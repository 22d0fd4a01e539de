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
from itertools import chain, repeat
from operator import itemgetter

import numpy as np
import scipy.sparse as sp

from .problem import (LOSSES, REGULARIZERS, BlockPartition, Dataset, ProblemSpec,
                      lambda_max)
from .solvers import _SOLVERS, SolverConfig, TraceRecord, reference_solve, solve


_MODELS = {"lasso": "squared", "logistic": "logistic"}  # model name: the loss it fits


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; the message carries the offending line number."""


_CHUNK_CHARS = 1 << 18  # a chunk is whole lines of about this many characters
_MAX_INDEX = np.iinfo(np.int64).max


def load_libsvm(path, binarize_labels=False):
    """Parse a LIBSVM text file: one `label idx:val ...` sample per line.

    Indices are 1-based in the file and strictly ascending within a line;
    the feature count is the largest index seen. With binarize_labels the
    sorted distinct labels are split in half, the lower half mapping to 0 and
    the rest to 1 (so {-1,+1} and {0,1} keep their usual meaning and
    multiclass data becomes first-half-versus-rest). Blank lines are skipped.
    Labels, indices and values follow Python's own float and int grammar, so
    "+3", "007" and "1_0" read as they do there.

    The file is read in chunks of whole lines, about 256 KB each. A chunk's
    tokens are converted by map(int, ...) and map(float, ...) straight into
    arrays and checked by array masks, so no Python statement runs per
    stored entry. Where a chunk fails, its lines are checked one by one, and
    LibsvmParseError names the file's first bad line: a label or feature
    token that does not parse (a feature token is `idx:val` with one colon),
    a non-finite label or value, an index below 1 or above 2**63 - 1, indices
    not strictly ascending, or bytes that are not UTF-8. While parsing, the
    loader holds 16 bytes per stored entry (an int64 index and a float64
    value) and one chunk's Python strings; joining the chunks and building
    the CSR matrix briefly hold about twice that.
    """
    chunks = [_parse_chunk([])]  # empty arrays of each dtype, for an empty file
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        ln = 0
        while lines := fh.readlines(_CHUNK_CHARS):
            try:
                chunks.append(_parse_chunk(lines))
            except (ValueError, OverflowError):
                for k, line in enumerate(lines, start=ln + 1):
                    _check_line(k, line)
                raise
            ln += len(lines)
    y, counts, cols, vals = map(np.concatenate, zip(*chunks))
    del chunks
    n, d = y.size, int(cols.max(initial=0))
    if n == 0 or d == 0:
        raise LibsvmParseError("file holds no samples with features")
    if binarize_labels:  # the lower half of the sorted distinct labels maps to 0
        classes = np.unique(y)
        y = (y >= classes[classes.size // 2]).astype(np.float64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cols -= 1
    return Dataset(sp.csr_matrix((vals, cols, indptr), shape=(n, d)), y)


def _parse_chunk(lines):
    """(labels, feature counts, indices, values) of the non-blank lines.

    Raises ValueError or OverflowError where any line breaks the grammar;
    _check_line then names the line.
    """
    rows = list(filter(None, map(str.split, lines)))
    y = np.fromiter(map(float, map(itemgetter(0), rows)), np.float64, count=len(rows))
    feats = list(chain.from_iterable(map(itemgetter(slice(1, None)), rows)))
    nnz = len(feats)
    counts = np.fromiter(map(len, rows), np.int64, count=len(rows)) - 1
    colons = np.fromiter(map(str.count, feats, repeat(":")), np.int64, count=nnz)
    parts = ":".join(feats).split(":")  # idx, val, idx, val, ... with one colon each
    idx = np.fromiter(map(int, parts[0::2]), np.int64, count=nnz)
    val = np.fromiter(map(float, parts[1::2]), np.float64, count=nnz)
    row = np.repeat(np.arange(len(rows)), counts)
    descends = (np.diff(idx) <= 0) & (np.diff(row) == 0)
    if (np.any(colons != 1) or np.any(idx < 1) or np.any(descends)
            or not np.all(np.isfinite(y)) or not np.all(np.isfinite(val))):
        raise ValueError("a line breaks the LIBSVM grammar")
    return y, counts, idx, val


def _check_line(ln, line):
    """Raise LibsvmParseError for the first fault of line ln, read token by token."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:  # an undecodable byte, escaped as a surrogate
        raise LibsvmParseError(f"line {ln}: byte 0x{ord(line[exc.start]) - 0xDC00:02x} "
                               f"is not UTF-8") from None
    parts = line.split()
    if not parts:
        return
    try:
        label = float(parts[0])
    except ValueError:
        raise LibsvmParseError(f"line {ln}: bad label {parts[0]!r}") from None
    if not math.isfinite(label):
        raise LibsvmParseError(f"line {ln}: non-finite label {parts[0]!r}")
    prev = 0
    for tok in parts[1:]:
        idx, sep, val = tok.partition(":")
        if not sep:
            raise LibsvmParseError(f"line {ln}: bad feature token {tok!r}")
        try:
            idx = int(idx)
            val = float(val)
        except ValueError:
            raise LibsvmParseError(f"line {ln}: bad feature token {tok!r}") from None
        if idx < 1:
            raise LibsvmParseError(f"line {ln}: index {idx} is not positive")
        if idx > _MAX_INDEX:
            raise LibsvmParseError(f"line {ln}: index {idx} exceeds 2**63 - 1")
        if not math.isfinite(val):
            raise LibsvmParseError(f"line {ln}: non-finite feature value {tok!r}")
        if idx <= prev:
            raise LibsvmParseError(f"line {ln}: indices must be strictly ascending")
        prev = idx


@dataclasses.dataclass
class SyntheticParams:
    """Seeded desk-scale instance generator settings.

    sparsity is the design density; noise is the residual standard deviation
    for regression and the label flip probability for logistic data: finite
    and nonnegative, and at most 1 for logistic data. The
    planted coefficients sit on support_size coordinates, either scattered or
    packed into a prefix, with magnitudes in [amplitude, 2*amplitude], and
    feature_scale scales the design; both are positive and finite.
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
    if p.model not in _MODELS:
        raise ValueError(f"model must be one of {', '.join(_MODELS)}, got {p.model!r}")
    if p.seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {p.seed!r}")
    if not 0.0 <= p.noise < math.inf:
        raise ValueError(f"noise must be nonnegative and finite, got {p.noise!r}")
    for name in ("feature_scale", "amplitude"):
        if not 0.0 < getattr(p, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {getattr(p, name)!r}")
    if p.model == "logistic" and p.noise > 1.0:
        raise ValueError(f"noise is a label flip probability, at most 1, got {p.noise!r}")
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
    20480 columns pass a q that keeps the blocks narrower. Those bounds are
    formed once per dataset and partition: specs built from one dataset with
    one q share them, so a lambda path pays for them on its first screening
    solve only, and a cold solve still pays in full.
    """
    if model not in _MODELS:
        raise ValueError(f"model must be one of {', '.join(_MODELS)}, got {model!r}")
    if reg not in REGULARIZERS:
        raise ValueError(f"reg must be one of {', '.join(REGULARIZERS)}, got {reg!r}")
    partition = BlockPartition.contiguous(dataset.d,
                                          min(10, dataset.d) if q is None else q)
    probe = ProblemSpec(dataset=dataset, partition=partition, loss=LOSSES[_MODELS[model]],
                        reg=REGULARIZERS[reg], lam=1.0, mu_p=mu_p)
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


def _write_rows(path, fields, records):
    """One column per field: a bool as 0/1, a string as it is, None as an
    empty cell, a number by its repr."""
    def cell(f, v):
        return ("" if v is None else int(v) if f.type is bool else v if f.type is str
                else repr(v))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f.name for f in fields])
        w.writerows([cell(f, getattr(r, f.name)) for f in fields] for r in records)


_TRACE_FIELDS = dataclasses.fields(TraceRecord)
TRACE_HEADER = [f.name for f in _TRACE_FIELDS]


def write_trace_csv(path, trace):
    _write_rows(path, _TRACE_FIELDS, trace)


def read_trace_csv(path):
    """The TraceRecords of a trace CSV; ValueError on a wrong header or row length."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header}")
        for row in rd:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {rd.line_num} has {len(row)} cells, "
                                 f"not {len(header)}")
            out.append(TraceRecord(*(c == "1" if f.type is bool else f.type(c)
                                     for f, c in zip(_TRACE_FIELDS, row))))
    return out


@dataclasses.dataclass
class RunSummary:
    """One cell of a plan. identified_at and identified_s are the report's
    first identified row (SolveReport.identified_at, identified_s): None and
    NaN where no row is identified or the run raised."""

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
    identified_at: int = None
    identified_s: float = math.nan


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
                name = f"{run_cfg.solver}_r{ratio:g}_rep{rep}"
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
                    coord_updates=report.coord_updates, trace_path=path,
                    identified_at=report.identified_at,
                    identified_s=(math.nan if report.identified_s is None
                                  else report.identified_s)))
    _write_rows(os.path.join(plan.out_dir, "summary.csv"), dataclasses.fields(RunSummary),
                summaries)
    if plan.plot:
        for ratio in plan.lambda_ratios:
            chart = os.path.join(plan.out_dir, f"suboptimality_r{ratio:g}.svg")
            subset = {n: t for n, t in traces.items() if f"_r{ratio:g}_" in n}
            render_svg(chart, subset, oracle_objectives[ratio])
    return summaries


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


def _positive(val, cast=float):
    num = cast(val)
    if not 0 < num < math.inf:
        raise ValueError(val)
    return num


def _nonnegative(val, cast=float):
    num = cast(val)
    if not 0 <= num < math.inf:
        raise ValueError(val)
    return num


def _ratios(val):
    nums = tuple(float(tok) for tok in val.split(","))
    if any(not 0 < num <= 1 for num in nums):
        raise ValueError(val)
    return nums


def _solver_names(val):
    names = tuple(tok.strip() for tok in val.split(","))
    if any(name.lower() not in {*_SOLVERS, "reference"} for name in names):
        raise ValueError(val)
    return names


_FLAGS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}
# key: (parse, what a value must be); parse raises ValueError or KeyError on a bad one
_PLAN_KEYS = {
    **dict.fromkeys(("data", "out"), (str, "")),
    "model": ({name: name for name in _MODELS}.__getitem__, " or ".join(_MODELS)),
    "support_placement": ({"prefix": "prefix", "random": "random"}.__getitem__,
                          "prefix or random"),
    **dict.fromkeys(("n", "d", "support_size", "repetitions", "blocks", "batch_size",
                     "inner_m", "max_outer"),
                    (lambda v: _positive(v, int), "a positive integer")),
    "seed": (lambda v: _nonnegative(v, int), "a nonnegative integer"),
    "sparsity": (float, "a number"),
    **dict.fromkeys(("noise", "mu_p"), (_nonnegative, "nonnegative and finite")),
    **dict.fromkeys(("plot", "theory_mode"),
                    (lambda v: _FLAGS[v.lower()], "0/1, true/false or yes/no")),
    **dict.fromkeys(("eta", "gap_tol", "feature_scale"),
                    (_positive, "positive and finite")),
    "lambda_ratios": (_ratios, "comma-separated numbers in (0, 1]"),
    "solvers": (_solver_names, "comma-separated names among "
                + ", ".join(sorted(_SOLVERS) + ["reference"])),
}

# The dataclass field each plan key sets, per dataclass; a key the plan omits
# leaves the field's own default.
_SOLVER_FIELDS = {"batch_size": "batch_size", "inner_m": "m", "eta": "eta",
                  "theory_mode": "theory_mode", "gap_tol": "gap_tol",
                  "max_outer": "max_outer", "seed": "seed"}
_SYNTHETIC_FIELDS = {key: key for key in ("n", "d", "sparsity", "noise", "seed", "model",
                                          "feature_scale", "support_size",
                                          "support_placement")}
_PLAN_FIELDS = {"data": "dataset_path", "model": "model", "blocks": "q", "mu_p": "mu_p",
                "lambda_ratios": "lambda_ratios", "repetitions": "repetitions",
                "out": "out_dir", "plot": "plot"}


def _fields(kv, fields):
    """The keyword arguments of the plan's values kv, by fields' field names."""
    return {field: kv[key] for key, field in fields.items() if key in kv}


def parse_plan_file(path):
    """Read a benchmark plan from `key = value` lines (# starts a comment).

    Recognized keys: data, n, d, sparsity, noise, seed, model, feature_scale,
    support_size, support_placement, lambda_ratios, solvers, repetitions, out,
    plot, batch_size, blocks, inner_m, eta, theory_mode, mu_p, gap_tol,
    max_outer. The flags theory_mode and plot take 0/1, true/false or yes/no
    in any case; model is lasso or logistic and support_placement prefix or
    random; sparsity and lambda_ratios lie in (0, 1]; eta, gap_tol and
    feature_scale must be positive and finite, noise and mu_p nonnegative and
    finite, noise at most 1 for a logistic model, seed a nonnegative integer,
    and n, d, support_size, repetitions, blocks, batch_size, inner_m and
    max_outer positive integers (batch_size <= n is checked per solve). Every
    value is read as its key's type while the file is parsed, so an unknown
    key or a value of the wrong type, such as an unknown solver name, raises
    ValueError with its line. So do a sparsity or a logistic noise out of
    range and eta given with theory_mode on, and a plan without data that
    lacks n or d raises ValueError naming the key. A key the plan omits
    leaves its field at the default of SolverConfig, SyntheticParams or
    ExperimentPlan; solvers defaults to adsgd alone.
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
    if "sparsity" in kv and not 0 < kv["sparsity"] <= 1:
        raise ValueError(f"plan line {lines['sparsity']}: sparsity must lie in (0, 1], "
                         f"got {kv['sparsity']!r}")
    if kv.get("model") == "logistic" and kv.get("noise", 0.0) > 1:
        raise ValueError(f"plan line {lines['noise']}: noise is a label flip probability "
                         f"for a logistic model, at most 1, got {kv['noise']!r}")
    if kv.get("theory_mode") and "eta" in kv:
        raise ValueError(f"plan line {lines['theory_mode']}: theory_mode and eta "
                         f"(line {lines['eta']}) are mutually exclusive")
    for key in ("n", "d"):
        if "data" not in kv and key not in kv:
            raise ValueError(f"plan: synthetic data needs key {key!r}, or give data")
    base = SolverConfig(**_fields(kv, _SOLVER_FIELDS))
    solvers = tuple(dataclasses.replace(base, solver=name)
                    for name in kv.get("solvers", ("adsgd",)))
    synthetic = None if "data" in kv else SyntheticParams(**_fields(kv, _SYNTHETIC_FIELDS))
    return ExperimentPlan(synthetic=synthetic, solvers=solvers, **_fields(kv, _PLAN_FIELDS))
