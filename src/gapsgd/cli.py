"""Command line front end.

Subcommands: solve, lambda-max, bench, oracle. Run it as `gapsgd` or as
`python -m gapsgd`. Exit codes: 0 on success, 2 for usage errors, 3 for
input parse errors, 4 for solve failures, which include a solve that stops
at max_outer without certifying its gap (it still prints its result and
writes its trace) and a bench plan with a cell that raised (every cell still
runs, prints and enters summary.csv). The GAPSGD_OUT_DIR environment
variable relocates relative output paths.
"""

import argparse
import os
import sys
import time

import numpy as np

from .harness import (LibsvmParseError, SyntheticParams, build_spec,
                      generate_synthetic, load_libsvm, parse_plan_file,
                      run_experiment, summary_table, write_trace_csv)
from .problem import lambda_max
from .solvers import _SOLVERS, ConvergenceError, DivergenceError, SolverConfig, solve

EXIT_PARSE = 3
EXIT_SOLVE = 4


def _out_path(path):
    base = os.environ.get("GAPSGD_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _add_data_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", metavar="PATH", help="LIBSVM text file")
    src.add_argument("--synthetic", metavar="N,D,SPARSITY,NOISE",
                     help="seeded synthetic instance, e.g. 100,200,0.3,0.01")
    p.add_argument("--model", choices=["lasso", "logistic"], default="lasso")
    p.add_argument("--blocks", type=int, default=None, metavar="Q",
                   help="number of contiguous coordinate blocks (default min(10, d))")
    p.add_argument("--seed", type=int, default=0)


def _add_solver_args(p):
    p.add_argument("--lambda-ratio", type=float, default=0.5, metavar="R",
                   help="lambda as a fraction of lambda_max")
    p.add_argument("--batch-size", type=int, default=None, metavar="B",
                   help="mini-batch size (default min(10, n))")
    p.add_argument("--inner-m", type=int, default=None, metavar="M",
                   help="base inner-loop count (default n)")
    p.add_argument("--eta", type=float, default=None, metavar="E",
                   help="step size (default 1/(16L))")
    p.add_argument("--mu-p", type=float, default=0.0, metavar="P",
                   help="quadratic perturbation strength")
    p.add_argument("--gap-tol", type=float, default=SolverConfig.gap_tol, metavar="T")
    p.add_argument("--max-outer", type=int, default=SolverConfig.max_outer, metavar="K")


def _dataset_from_args(args):
    if args.data:
        return load_libsvm(args.data, binarize_labels=args.model == "logistic")
    try:
        n, d, sparsity, noise = args.synthetic.split(",")
        params = SyntheticParams(n=int(n), d=int(d), sparsity=float(sparsity),
                                 noise=float(noise), seed=args.seed,
                                 model=args.model)
    except ValueError as exc:
        raise LibsvmParseError(f"bad --synthetic value {args.synthetic!r}: {exc}")
    return generate_synthetic(params)


def _spec_from_args(args, ratio=None):
    dataset = _dataset_from_args(args)
    return build_spec(dataset, model=args.model,
                      lambda_ratio=ratio if ratio is not None else 0.5,
                      q=args.blocks, mu_p=getattr(args, "mu_p", 0.0))


def _cmd_solve(args):
    start = time.perf_counter()
    spec = _spec_from_args(args, ratio=args.lambda_ratio)
    setup_s = time.perf_counter() - start
    cfg = SolverConfig(solver=args.solver, eta=args.eta, m=args.inner_m,
                       batch_size=args.batch_size, max_outer=args.max_outer,
                       gap_tol=args.gap_tol, seed=args.seed)
    report = solve(spec, cfg)
    x, t_id = report.x_final, report.identified_s
    print(f"solver={args.solver} n={spec.dataset.n} d={spec.dataset.d} "
          f"lam={spec.lam:.6g}")
    print(f"converged={report.converged} outer_iters={report.outer_iters} "
          f"gap={report.gap:.3e} objective={report.objective:.6g} "
          f"nnz={int(np.count_nonzero(x))} identified_at={report.identified_at} "
          f"identified_s={'None' if t_id is None else f'{t_id:.3f}'} "
          f"inner_steps={sum(r.inner_steps for r in report.trace)} "
          f"wall_time={report.wall_time:.3f}s setup_s={setup_s:.3f}")
    if args.out:
        path = _out_path(args.out)
        write_trace_csv(path, report.trace)
        print(f"trace written to {path}")
    return 0 if report.converged else EXIT_SOLVE


def _cmd_lambda_max(args):
    spec = _spec_from_args(args)
    print(f"{lambda_max(spec):.12g}")
    return 0


def _cmd_oracle(args):
    spec = _spec_from_args(args, ratio=args.lambda_ratio)
    report = solve(spec, SolverConfig(solver="reference", gap_tol=args.gap_tol))
    sup = report.support
    print(f"objective={report.objective:.12g} gap={report.gap:.3e} "
          f"support_size={sup.size}")
    print("support=" + ",".join(str(i) for i in sup))
    if args.out:
        path = _out_path(args.out)
        write_trace_csv(path, report.trace)
        print(f"trace written to {path}")
    return 0


def _cmd_bench(args):
    plan = parse_plan_file(args.plan)
    if args.out:
        plan.out_dir = args.out
    plan.out_dir = _out_path(plan.out_dir)
    summaries = run_experiment(plan)
    print(summary_table(summaries), end="")
    failures = [s for s in summaries if s.error]
    for s in failures:
        print(f"FAILED {s.solver} ratio={s.lambda_ratio} rep={s.repetition}: {s.error}")
    print(f"outputs in {plan.out_dir}")
    return EXIT_SOLVE if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapsgd",
        description="Sparsity-regularized solvers with dynamic gap-safe screening.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one instance")
    _add_data_args(p)
    _add_solver_args(p)
    p.add_argument("--solver", default="adsgd", choices=sorted(_SOLVERS) + ["reference"])
    p.add_argument("--out", metavar="PATH", help="write the trace CSV here")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("lambda-max", help="print the critical regularization weight")
    _add_data_args(p)
    p.set_defaults(fn=_cmd_lambda_max)

    p = sub.add_parser("oracle", help="run the reference solver and print the support")
    _add_data_args(p)
    p.add_argument("--lambda-ratio", type=float, default=0.5, metavar="R")
    p.add_argument("--gap-tol", type=float, default=1e-10, metavar="T")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("bench", help="run every cell of a benchmark plan file")
    p.add_argument("plan", help="key = value plan file")
    p.add_argument("--out", metavar="DIR", help="override the plan's output directory")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LibsvmParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvergenceError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
