"""Print one hash line per benchmark solve, to diff two versions of the solvers.

    python tests/solve_hashes.py > hashes.txt

Run from the root of a source checkout. It builds each workload of
benchmarks/run.py as the benchmark does and solves it with adsgd, mrbcd and
proxsvrg at the benchmark's settings for solver seeds 0-7, and with the
reference solver at the benchmark's gap_tol. Each line names the workload,
solver and seed, and gives outer_iters, coord_updates and SHA-256 prefixes of
x_final's bytes and of the trace's gaps. Each workload's first line, solver
"oracle", describes the instance's ORACLE_TOL reference solve that sets the
benchmark's P*. After a workload's lines come those of the same instance with
the quadratic perturbation switched on (mu_p = MU_P, labelled
"<workload>+mu_p"), solved with the same configs by the reference and by each
stochastic solver at seeds 0-1, since no benchmark workload sets mu_p. Then
come those of the same instance solved by adsgd and proxsvrg at batch_size =
n (labelled "<workload>+full-batch"), seeds 0-1, with m = FULL_BATCH_M and
max_outer = FULL_BATCH_OUTER, since every benchmark solve samples its rows.
Then come those of the same data and lam on a scattered partition of as many
blocks, block j holding the features j, j + q, j + 2q, ... (labelled
"<workload>+scattered"), solved by the reference and by each stochastic
solver at seeds 0-1, since every benchmark partition is contiguous. Then come
those of the same data at lam = LOW_LAMBDA * lambda_max (labelled
"<workload>@0.25"), solved by the reference and by each stochastic solver at
the benchmark's settings for seeds 0-1, since every benchmark workload runs
at LAMBDA_RATIO = 0.5. Last come those of the same data at
lam = LOWEST_LAMBDA * lambda_max (labelled "<workload>@0.1"), solved by adsgd
at the benchmark's settings for seeds 0-1, where its solves run longest.
After all of these, for the group-L2 workload UNEVEN_WORKLOAD alone, come
those of the same data on a contiguous partition of mixed block sizes,
UNEVEN_SIZES repeated and the last block cut to fit, at lam = LAMBDA_RATIO
times that partition's lambda_max (labelled "<workload>+uneven"), solved by
the reference and by each stochastic solver at seeds 0-1: every benchmark
partition's blocks share one size, so only these lines refine group-L2
models whose blocks differ in size. A change that keeps every iterate
prints the same lines, so `diff` of two
checkouts' outputs shows any solve whose bits moved. The module reads benchmarks/run.py and changes
nothing in it; pytest does not collect it.
"""

import dataclasses
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)

import numpy as np  # noqa: E402

SEEDS = range(8)
MU_P, MU_P_SEEDS = 0.01, range(2)
FULL_BATCH_SOLVERS, FULL_BATCH_SEEDS = ("adsgd", "proxsvrg"), range(2)
FULL_BATCH_M, FULL_BATCH_OUTER = 20, 4
SCATTERED_SEEDS = range(2)
LOW_LAMBDA, LOW_LAMBDA_SEEDS = 0.25, range(2)
LOWEST_LAMBDA, LOWEST_LAMBDA_SEEDS = 0.1, range(2)
UNEVEN_WORKLOAD, UNEVEN_SIZES, UNEVEN_SEEDS = "logistic-group", (7, 10, 13), range(2)


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()[:16]


def _hashes(rep):
    gaps = [r.gap for r in rep.trace]
    return (f"outer_iters={rep.outer_iters} coord_updates={rep.coord_updates} "
            f"x={_digest(rep.x_final)} gaps={_digest(gaps)}")


def line(G, inst, name, seed, spec=None, label=None, **settings):
    spec, label = spec or inst.spec, label or inst.wl.name
    cfg = dataclasses.replace(run.solver_config(inst, name, seed), **settings)
    try:
        rep = G.solve(spec, cfg)
    except Exception as exc:  # noqa: BLE001 - a raising solve is reported, not fatal
        return f"{label} {name} {seed} raised {type(exc).__name__}: {exc}"
    return f"{label} {name} {seed} {_hashes(rep)}"


def main():
    G = run.import_program()
    for wl in run.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            inst = run.Instance(G, wl, workdir)
        print(f"{wl.name} oracle 0 {_hashes(inst.oracle)}", flush=True)
        print(line(G, inst, "reference", 0), flush=True)
        for name in run.STOCHASTIC:
            for seed in SEEDS:
                print(line(G, inst, name, seed), flush=True)
        perturbed, label = dataclasses.replace(inst.spec, mu_p=MU_P), f"{wl.name}+mu_p"
        print(line(G, inst, "reference", 0, perturbed, label), flush=True)
        for name in run.STOCHASTIC:
            for seed in MU_P_SEEDS:
                print(line(G, inst, name, seed, perturbed, label), flush=True)
        label = f"{wl.name}+full-batch"
        for name in FULL_BATCH_SOLVERS:
            for seed in FULL_BATCH_SEEDS:
                print(line(G, inst, name, seed, label=label, batch_size=inst.spec.dataset.n,
                           m=FULL_BATCH_M, max_outer=FULL_BATCH_OUTER), flush=True)
        d, q = inst.spec.dataset.d, inst.spec.partition.q
        scattered = G.BlockPartition([np.arange(j, d, q) for j in range(q)])
        spec, label = dataclasses.replace(inst.spec, partition=scattered), f"{wl.name}+scattered"
        print(line(G, inst, "reference", 0, spec, label), flush=True)
        for name in run.STOCHASTIC:
            for seed in SCATTERED_SEEDS:
                print(line(G, inst, name, seed, spec, label), flush=True)
        spec = G.harness.build_spec(inst.spec.dataset, model=wl.model, q=q, reg=wl.reg,
                                    lambda_ratio=LOW_LAMBDA)
        label = f"{wl.name}@{LOW_LAMBDA:g}"
        print(line(G, inst, "reference", 0, spec, label), flush=True)
        for name in run.STOCHASTIC:
            for seed in LOW_LAMBDA_SEEDS:
                print(line(G, inst, name, seed, spec, label), flush=True)
        spec = G.harness.build_spec(inst.spec.dataset, model=wl.model, q=q, reg=wl.reg,
                                    lambda_ratio=LOWEST_LAMBDA)
        label = f"{wl.name}@{LOWEST_LAMBDA:g}"
        for seed in LOWEST_LAMBDA_SEEDS:
            print(line(G, inst, "adsgd", seed, spec, label), flush=True)
        if wl.name == UNEVEN_WORKLOAD:
            print_uneven(G, inst)


def uneven_sizes(d):
    """UNEVEN_SIZES repeated over d features, the last block cut to fit."""
    sizes = np.resize(UNEVEN_SIZES, d // min(UNEVEN_SIZES) + 1)
    ends = np.cumsum(sizes)
    last = int(np.searchsorted(ends, d))
    sizes = sizes[:last + 1]
    sizes[-1] -= ends[last] - d
    return sizes


def print_uneven(G, inst):
    part = G.BlockPartition.from_sizes(uneven_sizes(inst.spec.dataset.d))
    spec = dataclasses.replace(inst.spec, partition=part)
    spec = dataclasses.replace(spec, lam=run.LAMBDA_RATIO * G.lambda_max(spec))
    label = f"{inst.wl.name}+uneven"
    print(line(G, inst, "reference", 0, spec, label), flush=True)
    for name in run.STOCHASTIC:
        for seed in UNEVEN_SEEDS:
            print(line(G, inst, name, seed, spec, label), flush=True)


if __name__ == "__main__":
    main()
