"""Print one line per adsgd solve of a grid of small instances, to compare
how two versions of the solvers fare where a step size, a batch or a lam
makes certifying hard.

    python tests/robustness_grid.py > grid.txt
    python tests/robustness_grid.py --src OTHER_CHECKOUT/src > other.txt

Run from the root of a source checkout; --src imports gapsgd from another
tree's src instead of this one's, so the same grid runs on both. The grid:
data seeds 40-51, each with n = 60 + 5 (seed mod 5) samples and d = 80
features over q = 10 contiguous blocks (the tests' synthetic defaults: half
the cells stored, 8 planted coefficients, noise 0.05); squared and logistic
loss, each with L1 and group-L2 penalties; lam / lam_max 0.5, 0.25 and 0.1;
eta = 1/(4 L_spec) and 1/L_spec, L_spec from the spectral bound the tests
and the benchmark take their steps from; batch 1 and 10; m = 60,
max_outer = 60, gap_tol = 1e-6, and the data seed as the solver seed. That
is 576 solves.

Each line names the solve and gives certified (1 where the solve stopped on
a certified gap), stop (converged, max_outer, or diverged on a
DivergenceError), outer (the last outer iteration: the cap, or the row that
diverged), gap (the repr of the last row's full-problem duality gap, nan for
a diverged solve) and seconds (wall time of the solve, which varies between
runs; it is the last field, so `cut -d' ' -f1-11` of two outputs diffs the
rest).
A last line starting with # counts the stops. BLAS runs on one thread
unless OPENBLAS_NUM_THREADS is set. pytest does not collect this module;
tests/test_robustness_grid.py runs it whole and holds each (loss, penalty,
step) cell to a floor of certified solves, and every certified solve to a
gap of at most gap_tol.
"""

import argparse
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

SEEDS = range(40, 52)
D, Q = 80, 10
MODELS = (("lasso", "l1"), ("lasso", "group_l2"), ("logistic", "l1"),
          ("logistic", "group_l2"))
RATIOS = (0.5, 0.25, 0.1)
STEP_FACTORS = (4.0, 1.0)  # eta = 1 / (factor * L_spec)
BATCHES = (1, 10)
M, MAX_OUTER, GAP_TOL = 60, 60, 1e-6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the gapsgd package to run")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, args.src)
    import gapsgd as G
    from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
    from gapsgd.solvers import _spectral_bound

    stops = {"converged": 0, "max_outer": 0, "diverged": 0}
    for seed in SEEDS:
        n = 60 + 5 * (seed % 5)
        for model, reg in MODELS:
            data = generate_synthetic(SyntheticParams(n=n, d=D, sparsity=0.5, noise=0.05,
                                                      seed=seed, model=model,
                                                      support_size=8))
            for ratio in RATIOS:
                spec = build_spec(data, model=model, lambda_ratio=ratio, q=Q, reg=reg)
                for factor in STEP_FACTORS:
                    eta = 1.0 / (factor * _spectral_bound(spec))
                    for batch in BATCHES:
                        cfg = G.SolverConfig(solver="adsgd", eta=eta, m=M, batch_size=batch,
                                             max_outer=MAX_OUTER, gap_tol=GAP_TOL, seed=seed)
                        start = time.perf_counter()
                        try:
                            rep = G.solve(spec, cfg)
                            stop = "converged" if rep.converged else "max_outer"
                            outer, gap = rep.outer_iters, rep.gap
                        except G.DivergenceError as exc:
                            stop, outer, gap = "diverged", exc.iteration, float("nan")
                        seconds = time.perf_counter() - start
                        stops[stop] += 1
                        print(f"{model} {reg} seed={seed} n={n} lam={ratio:g} "
                              f"eta=1/{factor:g}L batch={batch} "
                              f"certified={int(stop == 'converged')} stop={stop} "
                              f"outer={outer} gap={gap!r} seconds={seconds:.4f}", flush=True)
    print(f"# {stops['converged']} of {sum(stops.values())} certified, "
          f"{stops['max_outer']} at max_outer, {stops['diverged']} diverged")


if __name__ == "__main__":
    main()
