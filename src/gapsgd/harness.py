"""Dataset ingestion, synthetic instance generation, and experiment orchestration.

Experiments write one CSV trace per (solver, lambda ratio, repetition) plus a
summary table; floats are serialized with their shortest round-trip decimal
form so re-parsing reproduces the records exactly.
"""

import csv
import dataclasses
import io
import math
import os

import numpy as np
import scipy.sparse as sp

from .problem import (LOSSES, REGULARIZERS, BlockPartition, Dataset, ProblemSpec,
                      lambda_max)
from .solvers import _SOLVERS, SolverConfig, TraceRecord, reference_solve, solve


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message carries the offending line number."""


def load_libsvm(path, binarize_labels=False):
    """Parse a LIBSVM text file: one `label idx:val ...` sample per line.

    Indices are 1-based in the file and strictly ascending within a line;
    the feature count is the largest index seen. With binarize_labels the
    sorted distinct labels are split in half, the lower half mapping to 0 and
    the rest to 1 (so {-1,+1} and {0,1} keep their usual meaning and
    multiclass data becomes first-half-versus-rest). Blank lines are skipped.
    """
    labels = []
    rows, cols, vals = [], [], []
    d = 0
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                label = float(parts[0])
            except ValueError:
                raise LibsvmParseError(f"line {ln}: bad label {parts[0]!r}") from None
            row = len(labels)
            labels.append(label)
            prev = 0
            for tok in parts[1:]:
                idx, sep, val = tok.partition(":")
                if not sep:
                    raise LibsvmParseError(f"line {ln}: bad feature token {tok!r}")
                try:
                    idx = int(idx)
                    val = float(val)
                except ValueError:
                    raise LibsvmParseError(
                        f"line {ln}: bad feature token {tok!r}") from None
                if idx < 1:
                    raise LibsvmParseError(f"line {ln}: index {idx} is not positive")
                if idx <= prev:
                    raise LibsvmParseError(
                        f"line {ln}: indices must be strictly ascending")
                prev = idx
                d = max(d, idx)
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
    n = len(labels)
    if n == 0 or d == 0:
        raise LibsvmParseError("file holds no samples with features")
    y = np.asarray(labels)
    if binarize_labels:
        classes = np.unique(y)
        low = set(classes[: classes.size // 2].tolist())
        y = np.array([0.0 if v in low else 1.0 for v in y])
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n, d))
    return Dataset(a, y)


@dataclasses.dataclass
class SyntheticParams:
    """Seeded desk-scale instance generator settings.

    sparsity is the design density; noise is the residual standard deviation
    for regression and the label flip probability for logistic data. The
    planted coefficients sit on support_size coordinates, either scattered or
    packed into a prefix, with magnitudes in [amplitude, 2*amplitude].
    """

    n: int
    d: int
    sparsity: float = 0.3
    noise: float = 0.01
    seed: int = 0
    model: str = "lasso"
    support_size: int = None
    support_placement: str = "random"
    amplitude: float = 1.0
    feature_scale: float = 1.0
    orthonormal: bool = False


def generate_synthetic(params):
    """Seeded sparse Gaussian design with a planted sparse linear model.

    Identical params (including the seed) produce byte-identical datasets;
    the planted coefficients are attached as dataset.x_true.
    """
    p = params
    if p.n < 1 or p.d < 1:
        raise ValueError("n and d must be at least 1")
    if not 0.0 < p.sparsity <= 1.0:
        raise ValueError("sparsity must lie in (0, 1]")
    if p.noise < 0:
        raise ValueError("noise must be nonnegative")
    if p.model not in ("lasso", "logistic"):
        raise ValueError(f"unknown model {p.model!r}")
    if p.orthonormal and p.n < p.d:
        raise ValueError("orthonormal designs need n >= d")
    rng = np.random.Generator(np.random.Philox(p.seed))
    if p.orthonormal:
        qmat, _ = np.linalg.qr(rng.normal(size=(p.n, p.d)))
        dense = qmat * math.sqrt(p.n) * p.feature_scale
    else:
        dense = rng.normal(size=(p.n, p.d)) * p.feature_scale
        dense *= rng.random(size=(p.n, p.d)) < p.sparsity
    k = p.support_size if p.support_size is not None else max(1, p.d // 20)
    if not 1 <= k <= p.d:
        raise ValueError("support_size must lie in [1, d]")
    if p.support_placement == "prefix":
        support = np.arange(k)
    elif p.support_placement == "random":
        support = np.sort(rng.choice(p.d, size=k, replace=False))
    else:
        raise ValueError(f"unknown support_placement {p.support_placement!r}")
    x_true = np.zeros(p.d)
    x_true[support] = (rng.choice([-1.0, 1.0], size=k)
                       * rng.uniform(1.0, 2.0, size=k) * p.amplitude)
    z = dense @ x_true
    if p.model == "lasso":
        y = z + p.noise * rng.normal(size=p.n)
    else:
        y = (rng.random(p.n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        if p.noise > 0:
            flip = rng.random(p.n) < p.noise
            y[flip] = 1.0 - y[flip]
    return Dataset(sp.csr_matrix(dense), y, x_true=x_true)


def build_spec(dataset, model="lasso", lam=None, lambda_ratio=0.5, q=None,
               reg="l1", mu_p=0.0):
    """Assemble a ProblemSpec with a contiguous q-block partition.

    q defaults to min(10, d). When lam is omitted it is set to
    lambda_ratio * lambda_max of the instance. A solve that screens a
    group-L2 problem takes a dense Gram per block and rejects blocks wider
    than 2048 columns (see duality.column_bounds), so on a design wider than
    20480 columns pass a q that keeps the blocks narrower.
    """
    loss = LOSSES["squared" if model == "lasso" else "logistic"]
    partition = BlockPartition.contiguous(dataset.d,
                                          min(10, dataset.d) if q is None else q)
    regularizer = REGULARIZERS[reg]
    probe = ProblemSpec(dataset=dataset, partition=partition, loss=loss,
                        reg=regularizer, lam=1.0, mu_p=mu_p)
    if lam is None:
        lmax = lambda_max(probe)
        if lmax <= 0:
            raise ValueError("lambda_max is zero; the zero vector solves every lam > 0")
        lam = lambda_ratio * lmax
    return dataclasses.replace(probe, lam=float(lam))


@dataclasses.dataclass
class ExperimentPlan:
    """A grid of benchmark runs over solvers, lambda ratios, and repetitions.

    q (the number of contiguous blocks) and mu_p (the quadratic perturbation)
    shape the problem, so every solver of the plan solves the same instance.
    """

    dataset_path: str = None
    synthetic: SyntheticParams = None
    model: str = "lasso"
    q: int = None
    mu_p: float = 0.0
    lambda_ratios: tuple = (0.5, 0.25)
    solvers: tuple = ()
    repetitions: int = 1
    out_dir: str = "runs"
    plot: bool = False

    def __post_init__(self):
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of dataset_path or synthetic is required")
        if any(not 0.0 < r <= 1.0 for r in self.lambda_ratios):
            raise ValueError("lambda ratios must lie in (0, 1]")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.solvers:
            raise ValueError("at least one solver config is required")


TRACE_HEADER = ["outer_iter", "elapsed_s", "objective", "gap",
                "active_blocks", "active_features", "radius", "working_blocks",
                "restart", "refined_dual"]


def write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_HEADER)
        for r in trace:
            w.writerow([repr(r.outer_iter), repr(r.elapsed_s), repr(r.objective),
                        repr(r.gap), repr(r.active_blocks), repr(r.active_features),
                        repr(r.radius), repr(r.working_blocks), r.restart,
                        int(r.refined_dual)])


def read_trace_csv(path):
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header}")
        for row in rd:
            out.append(TraceRecord(outer_iter=int(row[0]), elapsed_s=float(row[1]),
                                   objective=float(row[2]), gap=float(row[3]),
                                   active_blocks=int(row[4]),
                                   active_features=int(row[5]), radius=float(row[6]),
                                   working_blocks=int(row[7]), restart=row[8],
                                   refined_dual=row[9] == "1"))
    return out


@dataclasses.dataclass
class RunSummary:
    solver: str
    lambda_ratio: float
    repetition: int
    seed: int
    converged: bool
    outer_iters: int
    wall_time: float
    time_to_tol: float
    final_gap: float
    final_objective: float
    coord_updates: int
    trace_path: str
    error: str = ""


def _run_name(solver, ratio, rep):
    return f"{solver}_r{ratio:g}_rep{rep}"


def run_experiment(plan):
    """Execute every (solver, lambda ratio, repetition) cell of the plan.

    Each run writes its trace CSV; failures are recorded in the summary and
    the remaining runs continue. Returns the list of RunSummary rows. A
    summary CSV and optional objective-vs-time SVG chart land in out_dir.
    """
    if plan.dataset_path is not None:
        dataset = load_libsvm(plan.dataset_path,
                              binarize_labels=plan.model == "logistic")
    else:
        params = dataclasses.replace(plan.synthetic, model=plan.model)
        dataset = generate_synthetic(params)
    os.makedirs(plan.out_dir, exist_ok=True)
    summaries = []
    traces = {}
    oracle_objectives = {}
    for ratio in plan.lambda_ratios:
        spec = build_spec(dataset, model=plan.model, lambda_ratio=ratio,
                          q=plan.q, mu_p=plan.mu_p)
        if plan.plot:
            oracle_objectives[ratio] = reference_solve(
                spec, tol=min(1e-10, plan.solvers[0].gap_tol * 1e-2)).objective
        for cfg in plan.solvers:
            for rep in range(plan.repetitions):
                run_cfg = dataclasses.replace(cfg, seed=cfg.seed + rep)
                name = _run_name(run_cfg.solver, ratio, rep)
                path = os.path.join(plan.out_dir, name + ".csv")
                try:
                    report = solve(spec, run_cfg)
                except Exception as exc:  # noqa: BLE001 - keep the grid running
                    summaries.append(RunSummary(
                        solver=run_cfg.solver, lambda_ratio=ratio, repetition=rep,
                        seed=run_cfg.seed, converged=False, outer_iters=0,
                        wall_time=float("nan"), time_to_tol=float("nan"),
                        final_gap=float("nan"), final_objective=float("nan"),
                        coord_updates=0, trace_path="", error=str(exc)))
                    continue
                write_trace_csv(path, report.trace)
                traces[name] = report.trace
                summaries.append(RunSummary(
                    solver=run_cfg.solver, lambda_ratio=ratio, repetition=rep,
                    seed=run_cfg.seed, converged=report.converged,
                    outer_iters=report.outer_iters, wall_time=report.wall_time,
                    time_to_tol=report.wall_time if report.converged else float("nan"),
                    final_gap=report.gap, final_objective=report.objective,
                    coord_updates=report.coord_updates, trace_path=path))
    _write_summary(os.path.join(plan.out_dir, "summary.csv"), summaries)
    if plan.plot:
        for ratio in plan.lambda_ratios:
            chart = os.path.join(plan.out_dir, f"suboptimality_r{ratio:g}.svg")
            subset = {n: t for n, t in traces.items() if f"_r{ratio:g}_" in n}
            render_svg(chart, subset, oracle_objectives[ratio])
    return summaries


def _write_summary(path, summaries):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["solver", "lambda_ratio", "repetition", "seed", "converged",
                    "outer_iters", "wall_time", "time_to_tol", "final_gap",
                    "final_objective", "coord_updates", "trace_path", "error"])
        for s in summaries:
            w.writerow([s.solver, repr(s.lambda_ratio), s.repetition, s.seed,
                        int(s.converged), s.outer_iters, repr(s.wall_time),
                        repr(s.time_to_tol), repr(s.final_gap),
                        repr(s.final_objective), s.coord_updates, s.trace_path,
                        s.error])


def mean_time_to_tol(summaries):
    """Average converged wall time per (solver, lambda ratio)."""
    acc = {}
    for s in summaries:
        key = (s.solver, s.lambda_ratio)
        acc.setdefault(key, []).append(s.time_to_tol)
    return {key: float(np.mean(vals)) for key, vals in acc.items()}


def summary_table(summaries):
    """Human-readable averages per solver and lambda ratio."""
    means = mean_time_to_tol(summaries)
    buf = io.StringIO()
    buf.write(f"{'solver':<10} {'ratio':>6} {'mean time to tol (s)':>22}\n")
    for (solver, ratio), val in sorted(means.items()):
        shown = f"{val:.4f}" if math.isfinite(val) else "n/a"
        buf.write(f"{solver:<10} {ratio:>6g} {shown:>22}\n")
    return buf.getvalue()


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def render_svg(path, traces, best_objective, width=640, height=420):
    """Minimal dependency-free line chart: log10 suboptimality versus elapsed seconds."""
    pts = {}
    for name, trace in traces.items():
        xs, ys = [], []
        for r in trace:
            sub = r.objective - best_objective
            if sub > 0 and math.isfinite(sub):
                xs.append(r.elapsed_s)
                ys.append(math.log10(sub))
        if xs:
            pts[name] = (xs, ys)
    margin = 50
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" font-family="monospace" font-size="11">',
            f'<rect width="{width}" height="{height}" fill="white"/>']
    if pts:
        xmax = max(max(xs) for xs, _ in pts.values()) or 1.0
        ylo = min(min(ys) for _, ys in pts.values())
        yhi = max(max(ys) for _, ys in pts.values())
        if yhi - ylo < 1e-9:
            yhi = ylo + 1.0
        sx = (width - 2 * margin) / xmax
        sy = (height - 2 * margin) / (yhi - ylo)
        for i, (name, (xs, ys)) in enumerate(sorted(pts.items())):
            color = _SVG_COLORS[i % len(_SVG_COLORS)]
            coords = " ".join(
                f"{margin + x * sx:.2f},{height - margin - (y - ylo) * sy:.2f}"
                for x, y in zip(xs, ys))
            body.append(f'<polyline fill="none" stroke="{color}" '
                        f'stroke-width="1.5" points="{coords}"/>')
            body.append(f'<text x="{width - margin - 150}" y="{margin + 14 * i}" '
                        f'fill="{color}">{name}</text>')
        body.append(f'<text x="{margin}" y="{height - 12}">elapsed seconds '
                    f'(0 to {xmax:.3g})</text>')
        body.append(f'<text x="8" y="{margin - 10}">log10 objective suboptimality '
                    f'({ylo:.2f} to {yhi:.2f})</text>')
    body.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(body))


def _positive(val):
    num = float(val)
    if not 0 < num < math.inf:
        raise ValueError(val)
    return num


def _nonnegative(val):
    num = float(val)
    if not 0 <= num < math.inf:
        raise ValueError(val)
    return num


def _solver_names(val):
    names = tuple(tok.strip() for tok in val.split(","))
    if any(name.lower() not in {*_SOLVERS, "reference"} for name in names):
        raise ValueError(val)
    return names


_FLAGS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}
# key: (parse, what a value must be); parse raises ValueError or KeyError on a bad one
_PLAN_KEYS = {
    **dict.fromkeys(("data", "model", "support_placement", "out"), (str, "")),
    **dict.fromkeys(("n", "d", "seed", "support_size", "repetitions", "batch_size",
                     "blocks", "inner_m", "max_outer"), (int, "an integer")),
    **dict.fromkeys(("sparsity", "noise", "feature_scale"), (float, "a number")),
    "mu_p": (_nonnegative, "nonnegative and finite"),
    **dict.fromkeys(("plot", "theory_mode"),
                    (lambda v: _FLAGS[v.lower()], "0/1, true/false or yes/no")),
    **dict.fromkeys(("eta", "gap_tol"), (_positive, "positive and finite")),
    "lambda_ratios": (lambda v: tuple(float(tok) for tok in v.split(",")),
                      "comma-separated numbers"),
    "solvers": (_solver_names, "comma-separated names among "
                + ", ".join(sorted(_SOLVERS) + ["reference"])),
}


def parse_plan_file(path):
    """Read a benchmark plan from `key = value` lines (# starts a comment).

    Recognized keys: data, n, d, sparsity, noise, seed, model, feature_scale,
    support_size, support_placement, lambda_ratios, solvers, repetitions, out,
    plot, batch_size, blocks, inner_m, eta, theory_mode, mu_p, gap_tol,
    max_outer. The flags theory_mode and plot take 0/1, true/false or yes/no
    in any case; eta and gap_tol must be positive and finite, and mu_p
    nonnegative and finite. Every value is read as its key's type while the
    file is parsed, so an unknown key or a value of the wrong type, such as
    an unknown solver name, raises ValueError with its line. So does eta given with theory_mode on, and a
    plan without data that lacks n or d raises ValueError naming the key.
    """
    kv, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"plan line {ln}: expected key = value, got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _PLAN_KEYS:
                raise ValueError(f"plan line {ln}: unknown key {key!r}")
            parse, what = _PLAN_KEYS[key]
            try:
                kv[key] = parse(val)
            except (ValueError, KeyError):
                raise ValueError(f"plan line {ln}: {key} must be {what}, "
                                 f"got {val!r}") from None
            lines[key] = ln
    if kv.get("theory_mode") and "eta" in kv:
        raise ValueError(f"plan line {lines['theory_mode']}: theory_mode and eta "
                         f"(line {lines['eta']}) are mutually exclusive")
    for key in ("n", "d"):
        if "data" not in kv and key not in kv:
            raise ValueError(f"plan: synthetic data needs key {key!r}, or give data")
    model = kv.get("model", "lasso")
    solver_names = kv.get("solvers", ("adsgd",))
    base = SolverConfig(
        batch_size=kv.get("batch_size"), m=kv.get("inner_m"), eta=kv.get("eta"),
        theory_mode=kv.get("theory_mode", False), gap_tol=kv.get("gap_tol", 1e-6),
        max_outer=kv.get("max_outer", 200), seed=kv.get("seed", 0),
    )
    solvers = tuple(dataclasses.replace(base, solver=name) for name in solver_names)
    synthetic = None
    data_path = kv.get("data")
    if data_path is None:
        synthetic = SyntheticParams(
            n=kv["n"], d=kv["d"], sparsity=kv.get("sparsity", 0.3),
            noise=kv.get("noise", 0.01), seed=kv.get("seed", 0), model=model,
            feature_scale=kv.get("feature_scale", 1.0),
            support_size=kv.get("support_size"),
            support_placement=kv.get("support_placement", "random"),
        )
    return ExperimentPlan(
        dataset_path=data_path, synthetic=synthetic, model=model, q=kv.get("blocks"),
        mu_p=kv.get("mu_p", 0.0), lambda_ratios=kv.get("lambda_ratios", (0.5, 0.25)),
        solvers=solvers, repetitions=kv.get("repetitions", 1),
        out_dir=kv.get("out", "runs"), plot=kv.get("plot", False),
    )
