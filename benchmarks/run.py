"""Time to a certified duality gap for gapsgd's solvers, with a per-layer trace.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
Each run builds one fixed instance, certifies its optimum P* with a tight
reference solve, then runs a fixed schedule of rounds through adsgd, mrbcd,
proxsvrg and reference via the public ``gapsgd.solve``; the number of rounds
is set from ``--seconds``. Every solve is checked against P*. The seed picks
the stochastic solvers' random streams, so a seed always runs the same solves.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` each solve is repeated under the
tracer and the JSON holds the per-layer metrics. See README.md.
"""

import os

# One thread per process: set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

import tracer as tr  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GAP_TOL = 1e-6
ORACLE_TOL = 1e-10
LAMBDA_RATIO = 0.5
MAX_OUTER = 300
SEED_STRIDE = 100_000  # solver seed = STRIDE * --seed + number of earlier solves
PROBE_EVERY_S = 0.05  # see SpeedProbe
PROBE_SMOOTH = 5  # probes in the running median that gives the local speed
PROBE_NOMINAL_S = 0.002  # the probe job's time at nominal speed
SETUP_LAYERS = ("generate_synthetic", "load_libsvm", "build_spec")  # in gapsgd.harness
SOLVERS = ("reference", "adsgd", "proxsvrg", "mrbcd")  # cheapest first
STOCHASTIC = ("adsgd", "proxsvrg", "mrbcd")
# step = 1 / (divisor * spectral smoothness bound); proxsvrg's divisor is the
# workload's own, see Workload
ETA_DIVISOR = {"adsgd": 4.0, "mrbcd": 4.0}


@dataclasses.dataclass(frozen=True)
class Workload:
    """A fixed seeded instance and its round.

    ``data`` holds the SyntheticParams fields. ``plan`` gives the timed
    set-ups and each solver's solves in one round, and ``round_s`` what a
    round takes at nominal host speed. proxsvrg steps 1 / (``svrg_divisor``
    * spectral smoothness bound): on lasso-sparse it diverged at 4 and 8,
    and at 16 for 2 of 10 solver seeds. On lasso-tall 16 gives 3 outer
    iterations on 20 of 24 seeds and 32 on 15 of 24; a 3-to-4 mix near
    half and half would make the median jump by a quarter between seeds.
    """

    name: str
    data: dict
    model: str
    reg: str
    q: int
    plan: dict
    round_s: float
    svrg_divisor: float = 32.0
    via_libsvm: bool = False


# Time to gap on these synthetic instances swings up to fivefold between data
# seeds, so each workload keeps one data seed and --seed varies the solvers.
# Sizes keep the slowest solver at a few seconds, so a run holds several of its solves.
# A round's counts follow how much each solver's time to gap varies between
# solver seeds (see README.md); cheap calls fill the gaps between slow ones.
WORKLOADS = {
    # wide and sparse: the inner step dominates, and a row gather fetches
    # about 1,000 entries per step whether or not their blocks were screened
    "lasso-sparse": Workload(
        "lasso-sparse", dict(n=1000, d=5000, sparsity=0.02, seed=0, model="lasso",
                             support_size=50),
        "lasso", "l1", 50,
        plan=dict(setup=4, reference=12, adsgd=2, proxsvrg=2, mrbcd=1), round_s=12.9,
        via_libsvm=True),
    # n >> d: short rows, and today's safe radius is too small here; data
    # seed 3 is the instance on which adsgd returns false certificates
    "lasso-tall": Workload(
        "lasso-tall", dict(n=2000, d=40, sparsity=1.0, seed=3, model="lasso"),
        "lasso", "l1", 10,
        plan=dict(setup=30, reference=24, adsgd=8, proxsvrg=2, mrbcd=1), round_s=6.8,
        svrg_divisor=16.0),
    # logistic loss and group-L2 blocks of 10: the paths both L1 workloads bypass
    "logistic-group": Workload(
        "logistic-group", dict(n=500, d=500, sparsity=0.2, seed=0, model="logistic",
                               support_size=30, support_placement="prefix",
                               amplitude=2.0),
        "logistic", "group_l2", 50,
        plan=dict(setup=10, reference=5, adsgd=4, proxsvrg=1, mrbcd=2), round_s=9.6),
}


def import_program():
    """Import gapsgd from ./src of this checkout, or exit 2 if it is not there."""
    if not (SRC / "gapsgd" / "__init__.py").is_file():
        print(f"benchmark: no gapsgd package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import gapsgd

    if pathlib.Path(gapsgd.__file__).resolve().parent != SRC / "gapsgd":
        print(f"benchmark: imported gapsgd from {gapsgd.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return gapsgd


def write_libsvm(data, path):
    """LIBSVM text with shortest round-trip floats, so loading restores every bit."""
    a, y = data.A, data.y.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(data.n):
            s, e = a.indptr[i], a.indptr[i + 1]
            feats = " ".join(f"{c + 1}:{v!r}" for c, v in
                             zip(a.indices[s:e].tolist(), a.data[s:e].tolist()))
            fh.write(f"{y[i]!r} {feats}\n")


def same_dataset(a, b):
    return (a.n == b.n and a.d == b.d
            and np.array_equal(a.A.indptr, b.A.indptr)
            and np.array_equal(a.A.indices, b.A.indices)
            and np.array_equal(a.A.data, b.A.data)
            and np.array_equal(a.y, b.y))


def solver_config(inst, name, seed):
    if name == "reference":
        return inst.G.SolverConfig(solver=name, gap_tol=GAP_TOL)
    divisor = inst.wl.svrg_divisor if name == "proxsvrg" else ETA_DIVISOR[name]
    return inst.G.SolverConfig(solver=name, seed=seed, gap_tol=GAP_TOL,
                               max_outer=MAX_OUTER, eta=1.0 / (divisor * inst.l_spec))


def timed_solve(G, spec, cfg):
    """(t0, t1, report, error): perf_counter at the call into gapsgd.solve and at its return."""
    t0 = time.perf_counter()
    try:
        report = G.solve(spec, cfg)
    except Exception as exc:  # noqa: BLE001 - a raising solve is a failed solve
        return t0, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
    return t0, time.perf_counter(), report, None


def failure(G, spec, p_star, report, error):
    """Why a solve does not count as reaching the gap, or None if it does."""
    if error is not None:
        return error
    if not report.converged:
        return "returned converged=False"
    x = np.asarray(report.x_final)
    if not np.all(np.isfinite(x)):
        return "returned a non-finite x"
    sub = G.primal_objective(spec, x) - p_star
    if not sub <= GAP_TOL:
        return f"suboptimality {sub:.3g} exceeds gap_tol {GAP_TOL:g}"
    return None


class Instance:
    """One workload's data, its timed set-up, and the oracle optimum."""

    def __init__(self, G, wl, workdir):
        self.G, self.wl = G, wl
        params = G.harness.SyntheticParams(**wl.data)
        generated = G.harness.generate_synthetic(params)
        if wl.via_libsvm:
            path = pathlib.Path(workdir) / f"{wl.name}.libsvm"
            write_libsvm(generated, path)
            self._load = lambda: G.harness.load_libsvm(path)
        else:
            self._load = lambda: G.harness.generate_synthetic(params)
        self.generated = generated
        # untimed: lets lazy imports and file caches settle
        data, self.spec = self.set_up()
        self.data_ok = same_dataset(data, generated)
        self.l_spec = G.solvers._spectral_bound(self.spec)
        self.oracle = G.reference_solve(self.spec, tol=ORACLE_TOL)
        self.p_star = G.primal_objective(self.spec, self.oracle.x_final)
        self.oracle_ok = bool(self.oracle.converged and math.isfinite(self.p_star))

    def set_up(self):
        data = self._load()
        return data, self.G.harness.build_spec(data, model=self.wl.model,
                                               lambda_ratio=LAMBDA_RATIO,
                                               q=self.wl.q, reg=self.wl.reg)

    def timed_set_up(self):
        """(t0, t1) of one set-up, whose data is then checked."""
        t0 = time.perf_counter()
        data, _ = self.set_up()
        t1 = time.perf_counter()
        self.data_ok = self.data_ok and same_dataset(data, self.generated)
        return t0, t1

    def warm_up(self):
        """Run every solver briefly so first-call costs stay out of the timings."""
        for name in SOLVERS:
            cfg = solver_config(self, name, SEED_STRIDE - 1)
            if name != "reference":
                cfg = dataclasses.replace(cfg, max_outer=2)
            timed_solve(self.G, self.spec, cfg)

    def describe(self):
        ds, spec = self.spec.dataset, self.spec
        return (f"workload {self.wl.name}: n={ds.n} d={ds.d} nnz={ds.A.nnz} "
                f"q={spec.partition.q} loss={spec.loss.name} penalty={spec.reg.name} "
                f"lam={spec.lam:.6g} P*={self.p_star:.12g} "
                f"L_spec={self.l_spec:.6g}")


class SpeedProbe:
    """The host's speed through a run, sampled by a fixed job that never calls gapsgd.

    The machine is shared. Its speed flips between two states about 1.7x apart,
    each lasting from a second to minutes, in CPU time as in wall time, so
    raw times of the same solve differ by more than the bounds from one run,
    or one second, to the next. While a run measures, a timer signal runs
    this job every PROBE_EVERY_S, inside the solves too. A timed interval is
    then scaled to nominal speed stretch by stretch: each stretch between two
    probes is weighed by PROBE_NOMINAL_S over the job's local time, the
    running median of PROBE_SMOOTH probes. The probes' own time is left out.
    The job's code and data are fixed, so only the host moves its time.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = sp.random(200, 1000, density=0.02, random_state=rng, format="csr")
        self._u, self._v = rng.standard_normal(200), rng.standard_normal(1000)
        self.probes = []  # (start, end) of each run of the job, perf_counter seconds
        self._pace = []
        self._armed = False

    def _job(self):
        """A Python loop, small vector updates and sparse products, as a solve runs."""
        x, total = np.zeros(50), 0.0
        for i in range(300):
            x = 0.99 * x + 0.01
            total += float(x[i % 50])
        for _ in range(20):
            total += float((self._a @ self._v)[0] + (self._a.T @ self._u)[0])
        return total

    def _sample(self):
        t0 = time.perf_counter()
        self._job()
        self.probes.append((t0, time.perf_counter()))

    def _on_alarm(self, _signum, _frame):
        self._sample()
        if self._armed:  # a signal handled after the block ended must not re-arm
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    @contextlib.contextmanager
    def running(self):
        """Probe the host until the block ends; probes also bracket the block."""
        for _ in range(PROBE_SMOOTH):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        try:
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(PROBE_SMOOTH):
            self._sample()
        took = [b - a for a, b in self.probes]
        half = PROBE_SMOOTH // 2
        self._pace = [statistics.median(took[max(0, k - half):k + half + 1])
                      for k in range(len(took))]

    def nominal_s(self, t0, t1):
        """Seconds the interval [t0, t1] of the ended block takes at nominal speed."""
        starts = [a for a, _ in self.probes]
        i, j = bisect.bisect_right(starts, t0), bisect.bisect_left(starts, t1)
        edges = [t0, *(t for probe in self.probes[i:j] for t in probe), t1]
        total = 0.0
        for k in range(j - i + 1):  # stretch k lies between probes i+k-1 and i+k
            pace = 0.5 * (self._pace[i + k - 1] + self._pace[i + k])
            total += (edges[2 * k + 1] - edges[2 * k]) * PROBE_NOMINAL_S / pace
        return total

    def describe(self):
        took = [b - a for a, b in self.probes]
        span = self.probes[-1][1] - self.probes[0][0]
        return (f"host speed: {len(took)} probes of the fixed job, median "
                f"{1e3 * statistics.median(took):.3f} ms (quartiles "
                + " / ".join(f"{1e3 * q:.3f}" for q in statistics.quantiles(took, n=4)[::2])
                + f" ms) against {1e3 * PROBE_NOMINAL_S:g} ms nominal; "
                f"{100 * sum(took) / span:.1f}% of the run")


def rounds_for(wl, seconds, trace):
    """Rounds in a run: a fixed count for given --seconds, so a seed always
    runs the same solves; a traced round runs each solve twice."""
    return max(1, round(seconds / (wl.round_s * (2 if trace else 1))))


def round_order(plan):
    """One round's calls, each kind spread evenly over the round.

    Kind r of k with c calls sits at positions (i + (r + 1) / (k + 1)) / c,
    so cheap solves fall between the slow ones and a slow phase of the host
    hits every kind alike.
    """
    k = len(plan)
    slots = sorted(((i + (r + 1) / (k + 1)) / count, r, name)
                   for r, (name, count) in enumerate(plan.items()) for i in range(count))
    return [name for _, _, name in slots]


def sweep(inst, seed, rounds, solve_once, set_up_once):
    """Run ``rounds`` rounds of the workload's plan, in round_order.

    A set-up calls set_up_once(); a solve calls solve_once(name, cfg) with a
    fresh seed for that solver.
    """
    solves = dict.fromkeys(SOLVERS, 0)
    order = round_order(inst.wl.plan)
    for _ in range(rounds):
        for name in order:
            if name == "setup":
                set_up_once()
                continue
            cfg = solver_config(inst, name, SEED_STRIDE * seed + solves[name])
            solves[name] += 1
            solve_once(name, cfg)


def measure(inst, seed, rounds):
    """The untraced run: end-to-end metrics."""
    G, spec = inst.G, inst.spec
    probe = SpeedProbe()
    spans = {name: [] for name in ("setup",) + SOLVERS}  # (t0, t1, reached the gap)
    failed = []

    def solve_once(name, cfg):
        t0, t1, report, error = timed_solve(G, spec, cfg)
        why = failure(G, spec, inst.p_star, report, error)
        spans[name].append((t0, t1, not why))
        if why:
            failed.append(f"failed: {name} seed {cfg.seed}: {why}")

    def set_up_once():
        spans["setup"].append((*inst.timed_set_up(), True))

    with probe.running():
        sweep(inst, seed, rounds, solve_once, set_up_once)
    lines = [probe.describe()]
    metrics = {}
    for name, done in spans.items():
        key = "setup_s" if name == "setup" else f"{name}_time_to_gap_s"
        nominal = statistics.median(probe.nominal_s(t0, t1) if ok else math.inf
                                    for t0, t1, ok in done)
        wall = statistics.median(t1 - t0 if ok else math.inf for t0, t1, ok in done)
        metrics[key] = (nominal, "s")
        what = "set-ups" if name == "setup" else "solves"
        n_failed = sum(not ok for _, _, ok in done)
        lines.append(f"{key} = {nominal:.6f} s at nominal speed, {wall:.6f} s wall "
                     f"(median of {len(done)} {what}, {n_failed} failed)")
    attempted = sum(len(spans[name]) for name in SOLVERS)
    # each solver weighs the same, so repeats of a cheap one cannot dilute failures
    metrics["certified_share"] = (statistics.mean(
        sum(ok for _, _, ok in spans[name]) / len(spans[name]) for name in SOLVERS),
        "share")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    lines.append(f"failed_share = {len(failed) / attempted:.6f} "
                 f"({len(failed)} of {attempted} attempted solves failed)")
    lines.append(f"certified_share = {metrics['certified_share'][0]:.6f} share")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.3f} MB")
    return metrics, attempted, failed, lines


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(name, pairs, inst):
    """Per-layer metrics of one solver from its (untraced s, traced s, report, Record)."""
    records = [rec for _, _, _, rec in pairs]
    reports = [rep for _, _, rep, _ in pairs if rep is not None]

    def stats(layer):
        return [rec.stats.get(layer, tr.Stat()) for rec in records]

    def calls(layer, field="calls"):
        return _mean([getattr(st, field) for st in stats(layer)]), "count"

    def secs(layer):
        return _mean([st.s for st in stats(layer)]), "s"

    out = {
        f"{name}.trace.overhead.s": (
            statistics.median(traced - plain for plain, traced, _, _ in pairs), "s"),
        f"{name}.solvers.solve_s": (_mean([t for _, t, _, _ in pairs]), "s"),
        f"{name}.solvers.engine_self_s": (
            _mean([t - rec.child_s - rec.hook_s for _, t, _, rec in pairs]), "s"),
        f"{name}.solvers.outer_iters": (_mean([r.outer_iters for r in reports]), "count"),
    }
    for layer in ("problem.loss_deriv", "problem.block_prox", "problem.soft_threshold",
                  "duality.dual_point", "duality.dual_value"):
        out[f"{name}.{layer}.calls"] = calls(layer)
        out[f"{name}.{layer}.s"] = secs(layer)
    out[f"{name}.duality.column_bounds.s"] = secs("duality.column_bounds")
    if name in STOCHASTIC:
        steps = sum(st.units for st in stats("solvers.inner_budget"))
        inner = sum(tr.inner_phase_s(rec.spans) for rec in records)
        entries = sum(st.units for st in stats("problem.gather_rows"))
        active = sum(st.active for st in stats("problem.gather_rows"))
        out.update({
            f"{name}.solvers.inner_steps": (steps / len(pairs), "count"),
            f"{name}.solvers.coord_updates": (_mean([r.coord_updates for r in reports]),
                                              "count"),
            f"{name}.solvers.us_per_inner_step": (1e6 * inner / steps if steps else 0.0,
                                                  "us"),
            f"{name}.problem.gather_rows.calls": calls("problem.gather_rows"),
            f"{name}.problem.gather_rows.s": secs("problem.gather_rows"),
            f"{name}.problem.gather_rows.entries": calls("problem.gather_rows", "units"),
            f"{name}.problem.gather_rows.active_share": (
                active / entries if entries else 1.0, "share"),
            f"{name}.problem.lipschitz_constants.s": secs("problem.lipschitz_constants"),
        })
    if name == "adsgd":
        equi = set(inst.G.equicorrelation_set(inst.spec, inst.oracle.dual).tolist())
        false_drops = [len(equi - set(r.active_history[-1].tolist())) for r in reports]
        out.update({
            "adsgd.duality.screen.calls": calls("duality.screen"),
            "adsgd.duality.screen.s": secs("duality.screen"),
            "adsgd.duality.screen.blocks_dropped": calls("duality.screen", "units"),
            "adsgd.duality.screen.false_drops": (_mean(false_drops), "count"),
            "adsgd.solvers.smooth_parts.calls": calls("solvers.smooth_parts"),
        })
    return out


def measure_traced(inst, seed, rounds):
    """The traced run: each solve once untraced and once traced, same seed."""
    G, spec = inst.G, inst.spec
    tracer = tr.Tracer()
    pairs = {name: [] for name in SOLVERS}
    failed = []
    setup_stats = {layer: tr.Stat() for layer in SETUP_LAYERS}

    def set_up_once():
        with tracer.trace() as rec:
            inst.timed_set_up()
        for layer, total in setup_stats.items():
            stat = rec.stats.get(f"harness.{layer}", tr.Stat())
            total.calls += stat.calls
            total.s += stat.s

    def solve_once(name, cfg):
        t0, t1, report, error = timed_solve(G, spec, cfg)
        plain = t1 - t0
        why = failure(G, spec, inst.p_star, report, error)
        if why:
            failed.append(f"failed: {name} seed {cfg.seed} (untraced): {why}")
        with tracer.trace() as rec:
            t0, t1, report, error = timed_solve(G, spec, cfg)
        traced = t1 - t0
        why = failure(G, spec, inst.p_star, report, error)
        if why:
            failed.append(f"failed: {name} seed {cfg.seed} (traced): {why}")
        pairs[name].append((plain, traced, report, rec))

    sweep(inst, seed, rounds, solve_once, set_up_once)
    metrics = {}
    for layer, stat in setup_stats.items():
        per_call = stat.s / stat.calls if stat.calls else 0.0
        metrics[f"setup.harness.{layer}.s"] = (per_call, "s")
    for name in SOLVERS:
        metrics.update(layer_metrics(name, pairs[name], inst))
    attempted = 2 * sum(len(v) for v in pairs.values())
    lines = [f"{key} = {value:.9g} {unit}" for key, (value, unit) in metrics.items()]
    lines.append(f"traced {attempted // 2} solves, each also run untraced; "
                 f"{len(failed)} of {attempted} failed")
    return metrics, attempted, failed, lines


def run_workload(G, wl, seed, seconds, trace):
    """Measure one workload; returns (human-readable lines, result object)."""
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        inst = Instance(G, wl, workdir)
        inst.warm_up()
        measure_run = measure_traced if trace else measure
        metrics, attempted, failed, lines = measure_run(inst, seed,
                                                        rounds_for(wl, seconds, trace))
    head = [inst.describe()]
    if not inst.data_ok:
        head.append("error: the loaded dataset differs from the generated one")
    if not inst.oracle_ok:
        head.append("error: the oracle did not certify P*")
    result = {
        "correct": inst.data_ok and inst.oracle_ok,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return head + lines + failed, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    G = import_program()
    lines, result = run_workload(G, WORKLOADS[args.workload], args.seed, args.seconds,
                                 args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
