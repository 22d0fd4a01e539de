"""Time one solver on one benchmark workload in two checkouts, solve by solve
in one process, so that a change shows through the host's swing.

    python tests/paired_timing.py PATH_A PATH_B --workload W --solver S
        [--lambda-ratio R] [--pairs K]

PATH_A and PATH_B are the roots of two source checkouts. Each one's
src/gapsgd is imported under a module name of its own (gapsgd_a, gapsgd_b),
so both run in one process, on one heap, one BLAS and one moment of the host.
Each side builds the workload W of benchmarks/run.py with its own package
(run.Instance: the same data, partition and step sizes as the benchmark),
then moves to lam = R * lambda_max (R defaults to run.LAMBDA_RATIO) with a
reference solve at run.ORACLE_TOL for that lam's P*. Pair k solves with
solver seed k mod SEEDS on both sides, one after the other, A first in even
pairs and B first in odd ones; each solve is timed by run.timed_solve and
checked by run.failure, the benchmark's own rule. One untimed solve a side
warms each up. The same path given twice is an A/A run: its ratios show
the spread that a claim has to exceed.

Output, one key=value line each: the settings; per side its path, the
median time of its solves, their outer-iteration total and how many
certified; then the median of the K paired ratios B/A, its quartiles, and
the pairs in which B was faster. A solve that fails is named on a line that
starts with "failed:", and the exit status is then 1. BLAS runs on one
thread, as in the benchmark. pytest does not collect this module;
tests/test_paired_timing.py runs it on one small row.
"""

import argparse
import importlib.util
import pathlib
import statistics
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

SEEDS = 8  # pair k runs solver seed k mod SEEDS


def load(root, name):
    """The gapsgd package under root/src, imported as the module `name`."""
    pkg = pathlib.Path(root).resolve() / "src" / "gapsgd"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"paired_timing: no gapsgd package under {pkg.parent}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def instance(G, wl, ratio, workdir):
    """run.Instance of wl built by the package G, moved to lam = ratio * lambda_max."""
    inst = run.Instance(G, wl, workdir)
    if ratio != run.LAMBDA_RATIO:
        inst.spec = G.harness.build_spec(inst.spec.dataset, model=wl.model, q=wl.q,
                                         reg=wl.reg, lambda_ratio=ratio)
        oracle = G.reference_solve(inst.spec, tol=run.ORACLE_TOL)
        inst.p_star = G.primal_objective(inst.spec, oracle.x_final)
    return inst


def solve(inst, solver, seed):
    """(seconds, outer iterations, why it failed or None) of one timed solve."""
    cfg = run.solver_config(inst, solver, seed)
    t0, t1, report, error = run.timed_solve(inst.G, inst.spec, cfg)
    why = run.failure(inst.G, inst.spec, inst.p_star, report, error)
    return t1 - t0, report.outer_iters if report is not None else 0, why


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path_a")
    parser.add_argument("path_b")
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--solver", required=True, choices=run.SOLVERS)
    parser.add_argument("--lambda-ratio", type=float, default=run.LAMBDA_RATIO)
    parser.add_argument("--pairs", type=int, default=40)
    args = parser.parse_args(argv)
    if not (0 < args.lambda_ratio <= 1 and args.pairs >= 1):
        parser.error("need 0 < --lambda-ratio <= 1 and --pairs >= 1")
    wl = run.WORKLOADS[args.workload]
    sides = {"A": args.path_a, "B": args.path_b}
    with tempfile.TemporaryDirectory() as workdir:
        insts = {side: instance(load(path, f"gapsgd_{side.lower()}"), wl, args.lambda_ratio,
                                workdir)
                 for side, path in sides.items()}
    times, outer, failed = {"A": [], "B": []}, {"A": 0, "B": 0}, {"A": [], "B": []}
    for side, inst in insts.items():  # warm-up, untimed and unchecked
        run.timed_solve(inst.G, inst.spec, run.solver_config(inst, args.solver, SEEDS))
    for k in range(args.pairs):
        for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
            s, o, why = solve(insts[side], args.solver, k % SEEDS)
            times[side].append(s)
            outer[side] += o
            if why:
                failed[side].append(f"failed: side={side} seed={k % SEEDS}: {why}")
    ratios = [b / a for a, b in zip(times["A"], times["B"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"workload={args.workload} solver={args.solver} lambda_ratio={args.lambda_ratio:g} "
          f"pairs={args.pairs}")
    for side, path in sides.items():
        print(f"side={side} path={path} median_s={statistics.median(times[side]):.6f} "
              f"outer_total={outer[side]} "
              f"certified={args.pairs - len(failed[side])}/{args.pairs}")
    print(f"ratio_b_over_a={statistics.median(ratios):.4f} q1={q1:.4f} q3={q3:.4f} "
          f"b_lower={sum(r < 1.0 for r in ratios)}/{args.pairs}")
    for line in failed["A"] + failed["B"]:
        print(line)
    return 1 if failed["A"] or failed["B"] else 0


if __name__ == "__main__":
    sys.exit(main())
