"""Screened doubly stochastic solvers and the deterministic reference solver.

All three stochastic solvers take variance-reduced steps on one engine,
differing only in two switches:

    adsgd     block sampling + gap-safe screening
    mrbcd     block sampling, no screening
    proxsvrg  full-vector steps, no screening

Each outer iteration snapshots the iterate and evaluates it on the full
problem (duality.evaluate: objective, per-sample derivatives, the dual point
scaled over all q blocks with its dual value, and the duality gap). That gap
is the stopping test, so a certificate holds whatever screening dropped. A
screening solver then screens, after every row that does not stop the solve,
with the Gap Safe sphere of radius
sqrt(2 n gap max(c, 2 n mu_p)) (duality.safe_radius), the gap padded by the
bound on its rounding (duality._padded_gap), which drops blocks for
good: the safe set only shrinks. Inside the safe set it picks the epoch's
working set, the safe blocks where the iterate is nonzero plus those whose
scaled correlation reaches _TAU * lam, after Celer (Massias, Gramfort &
Salmon, ICML 2018). The epoch runs ceil(m * |W| / q) inner steps on that
working set W, m = n by default, so one pass over the samples when W holds
every block; a screening solve's epoch ends sooner where the refinement of
its inner iterate's model finds a point (below). Both the average of the
epoch's inner iterates over the steps it took and its last inner iterate
are then evaluated on the full problem, and the one with the strictly
smaller gap becomes the next iterate (_restart); a tie or a non-finite gap
keeps the average. The winner's evaluation is the next outer
iteration's: its trace row, stop test, screen, working set and snapshot,
unless a refined point of lower objective takes its place (below). A
screening epoch evaluates neither candidate where that refined point already
decides its row, by weak duality (_epoch), so an epoch costs two
evaluations, or none, plus one per refined model. The average drags in the
epoch's early iterates, the last iterate does not, and neither wins every
epoch. A W that is too small cannot certify, since the
gap scales the dual over every block; it costs outer iterations, and a block
it wrongly left out correlates above lam at the subproblem's optimum, so it
joins the next W. The solvers that never screen run every epoch on all q
blocks. Identical (spec, config, seed) triples reproduce bit-identical
iterate sequences. An evaluation's A x runs on the working design of the
epoch that produced x (_matvec), which holds x's support: the row sums read
that design's entries, not the whole dataset's, and lose only vals * 0.0
terms, so they keep the bits of A @ x. The starting row, and the row of an
empty safe set, has x = 0 and takes A x = 0. The evaluation's dual point
forms the iteration's one product A'g, on the whole design, since the dual
point is scaled over all q blocks: the screening test and the working set
read its block correlations and the variance reduction its smooth gradient:
the row's evaluation is the next epoch's snapshot, also where a screen has
dropped a block on which x_hat is nonzero (_epoch).

The iterate's own dual point is wrong to first order, so its gap tracks
about the square root of the suboptimality. A screening solve therefore
refines the row's model (_certify). A point's model lives on the columns of
the working design that holds it, as every row point, epoch candidate and
refined point lies in its epoch's: its key is the feature ids of its
nonzeros in that design's block-major order, a subsequence of
partition.order, with their signs for L1, so the same nonzeros give the same
key on any design (_model). A model of k unknowns, 0 < k <= n, with n k^2 at
most _REFINE_COST times the design's stored entries (_refinable), is refined
by _refine_support: at most _REFINE_STEPS Newton steps on the model's smooth
stationarity system, whose residual must reach _REFINE_TOL * lam. The whole
refinement runs in the working design's column numbering: it is handed the
point on those columns, finds its model there, takes the model's columns
from that design (_columns) and forms A x_r there; only x_r is scattered to
the d features, once, for its evaluation. A Lasso model's system is linear,
so its first step solves it. Where the solution flips the sign of an L1
coordinate, the refinement drops every flipped coordinate and solves again,
within the same budget, until the signs agree (the active-set move of
feature-sign search: Lee, Battle, Raina & Ng, NeurIPS 2007). That prunes the
coordinates of about 1e-9 that x_hat keeps off the optimum's support.

The solve keeps its last refinement that found a point in a slot, its
model's key and that point with its evaluation, as Celer keeps its working
set's solution. A row whose gap exceeds gap_tol, and an epoch's model check,
offer their model to the slot by one rule (_into_slot): it is refined unless
the slot holds it. A refinement that finds no point leaves the slot as it
was, so its model is offered again at its next row, from a nearer point.
Inside the epoch the inner iterate's model is checked after every |W| steps,
by the bytes of its signs or nonzero mask on the working columns, which W
fixes, so each working block is drawn about once between two checks; a
model held at three checks in a row is offered. Where its refinement finds
a point, certified or not, the epoch ends there, as Celer ends a working-set
subproblem once it has solved it and then picks the working set again. A
check evaluates only the refined point, so it adds no evaluation of its own.

Where P(x_r) < P(x_hat), the slot's x_r becomes the row's point with its
whole evaluation, as Celer takes its working set's solution for its
iterate; a tie keeps x_hat. The row then certifies, screens, scores the
working set and takes its snapshot from x_r and x_r's own dual point. x_r
lies on x_hat's support, inside the safe set. So every row's gap is P - D of
one point and that point's own dual point, scaled over every block: it
bounds the point's suboptimality whatever the model or the screens. The
engine marks every row's identification in one place: a row is identified
where its point is a refined one or its model's key is the previous row's,
and the safe set holds exactly its point's nonzero blocks. A row whose point
is x_r stops the solve only where its gap is at most gap_tol and the row is
identified. The screen after such a row is tested the same way, before any
design is cut: where it leaves exactly x_r's blocks, x_r is the next row,
with no epoch in between. So the stop waits on the screen: where x_r prunes
a coordinate that x_hat keeps in a block off the optimum's support, the
solve goes on until a screen drops that block. report.dual is the last
row's dual point, so P(x_final) - D(report.dual) is report.gap.

Every inner step of every solver is planned by _plan and runs the one
gradient kernel, step_gradient: the sampled rows' derivatives, relative to
the snapshot's, summed into the sampled block or into every working column,
Prox-SVRG's formula (Xiao & Zhang, SIAM J. Optim. 2014). _plan gathers the
batch's rows from the working design's storage (below), and step_gradient
forms the two products from the form of those rows. On the sparse storage
it runs two of scipy's compiled CSR loops over the gathered entries:
csr_matvec forms X_b x, and csc_matvec, reading the same entries as the CSC
matrix of the batch's rows, sums coef X_b into every working column, of
which a block step keeps its block's. Each adds its products to zeros in
entry order, so a block's columns hold the sums over its entries alone, and
every sum is that of a weighted np.bincount over the same products, to the
bit (the tests keep that bincount kernel as the oracle). On the dense twin
the same gradient comes from two matrix products, X_b x and coef X_b[:,
lo:hi]. One epoch, its plan, steps and restart, runs in _epoch; _engine
keeps the outer loop. vr_gradient is one step of the engine's own plan:
_compact builds the dataset's working design over every block, and _plan
and step_gradient take the batch and block as a chunk of one step.
partial_gradient is the same step on a zero snapshot.

The working design is plain CSR over a set of block ids: the row pointers
plus one array each of the column and value of every stored entry, in CSR
order, with its columns numbered block by block: block ib of its layout is
the column range offsets[ib]:offsets[ib + 1], and features maps each column
to its feature. A contiguous partition is already in that order; a
scattered one is renumbered. An epoch's design is built only where its
blocks differ from the last epoch's (_compact): over every block from the
dataset's CSR, over fewer cut from one column index per dataset, the CSR of
A', at a cost in the kept entries and n. The safe set is only block ids: a
screening solve cuts a design for each epoch's W, or for the safe set where
W falls back to it, and builds none over every block unless an epoch runs
on every block. The inner loop runs in those working columns: the iterate,
snapshot, snapshot gradient and running average hold one entry per feature
of W, gathered from and scattered back to feature ids through features,
and each sampled row contributes only its entries in W. That is where
screening and the working set cut the cost of a step, not just the number
of steps. Coordinates off W are exact zeros, and a cut keeps each row's
entries in their CSR order, so it removes only vals * 0.0 terms from the
row sums. Every step gathers its batch's rows, a full batch (batch_size ==
n) being the batch of every row.

Each working design is stored by its own density. One that holds at least
_RHO * n * p entries over its p columns also has a dense twin, an (n, p)
array in the same column numbering (_Working.dense), built when an epoch
first runs on it; _plan then takes the batch's rows from the twin, not from
the entries. The sparse loops gather and index every entry, which a BLAS
product over the cells outruns where most cells are stored, and a very
sparse design stored dense would multiply mostly zeros. The two storages
sum in different orders, so their iterates agree to rounding, not bit for
bit; each is deterministic for a seed. The choice lives in _Working.dense
and _plan alone.

The reference solver is FISTA with backtracking and momentum restarts. Its
step constant starts at the one-pass bound c * max(max_i ||a_i||^2, max_j
||a_j||^2) / n + 2 mu_p, at most the smoothness constant, and the
backtracking doubles it where needed, so no power iteration runs. An
iteration forms one A x per prox point tried (Dataset.matvec) and one A'g in
the evaluation of the iterate (Dataset.rmatvec), each one call of scipy's
compiled loop on the stored CSR arrays. Its extrapolated point y = x + beta
(x - x_prev) takes A y as that combination of the last two products A x,
and, where the loss derivative is affine (the squared loss),
its smooth gradient as that combination of the last two evaluations'
gradients, mu_p's term included, so a Lasso iteration forms no other
product. On the logistic loss a step from y forms one more A'g, at y, unless
y is the iterate, as after a restart or a step from t = 1 (beta = 0). Its L1
stop row is refined by the screening solves' own _refined_certificate, kept
where its gap is smaller, on the dataset's working design, handed the
iterate on its columns: the refinement gathers its model's columns from the
column index, with no twin built, and forms the refined point's A x on that
design.

The full-vector solver proxsvrg and the reference solver make one penalty
prox call per step. For group-L2 it shrinks every block of one size with a
few numpy calls, over the size classes of the working design's partition.
Only a solve that screens needs the per-block column bounds Omega_j^D(A_j).
They depend on the design, the penalty and the partition's layout alone, and
the reference's one-pass bound on the design's longest row and column, so
each is computed once per dataset (Dataset.memo): the first solve pays for
them, and later solves on that dataset, over any lambda, reuse their bits. A
solve's clock starts when it is entered, so wall_time and elapsed_s hold
that set-up too.
"""

import dataclasses
import functools
import math
import mmap
import time

import numpy as np

from .duality import (ActiveSet, DualPoint, _padded_gap, _rounding, column_bounds, evaluate,
                       safe_radius, screen)
from .problem import (BlockPartition, DegenerateProblemError, _gather_rows, _is_count, _is_real,
                      _vector, csc_matvec, csr_matvec, csr_row_index, csr_tocsc,
                      lipschitz_constants, primal_objective, smooth_gradient, smooth_value)


class DivergenceError(RuntimeError):
    """Objective became non-finite during a solve or, in a stochastic solve,
    passed _RUNAWAY times its starting value P(0)."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ConvergenceError(RuntimeError):
    """Iteration cap exhausted before reaching the gap tolerance."""

    def __init__(self, message, best_gap=None):
        super().__init__(message)
        self.best_gap = best_gap


@dataclasses.dataclass
class SolverConfig:
    """Hyperparameters shared by every solver.

    Unset fields resolve against the problem: eta to 1/(16 L), m to n and
    batch_size to min(10, n). m, batch_size, max_outer and seed must be
    Python or numpy integers, eta and gap_tol real numbers, none of them a
    bool, Python's or numpy's, and keep_iterates a bool. No field switches
    screening: adsgd screens after every row, and mrbcd is the same engine
    without it. The block partition and the perturbation mu_p belong to the
    ProblemSpec a solver is given.
    """

    solver: str = "adsgd"
    eta: float = None
    m: int = None
    batch_size: int = None
    max_outer: int = 200
    gap_tol: float = 1e-6
    seed: int = 0
    keep_iterates: bool = False


@dataclasses.dataclass
class TraceRecord:
    """One row per evaluated iterate, the last row being the one a solve stops at.

    objective and gap are P(x) and the full-problem duality gap at the row's
    point x, with x's own dual point, scaled over all q blocks, so the gap
    bounds x's suboptimality whatever screening dropped. The other fields
    describe the epoch that produced the iterate: active_blocks and
    active_features count the safe set it ran within, radius is the safe
    radius of the screen that preceded it (inf where none ran), that of the
    previous row's gap plus its rounding bound (duality._padded_gap).
    working_blocks counts the blocks its steps updated,
    0 on the starting row, and inner_steps the steps it ran: at most
    inner_budget(m, working_blocks, q), fewer where a screening solve's epoch
    ended at a model check whose refinement found a point, and 0 on
    the starting row and on any row no epoch produced. restart names the
    point: "start" on the starting row, then "average" or "last", the epoch's
    average or its last inner iterate, whichever had the smaller gap, or
    "refined" where a screening solve's row holds the refined point x_r of
    that iterate's model in its place, x_r having the lower objective. A
    last "refined" row may also follow straight after the screen of a
    "refined" row that left exactly x_r's blocks: it holds the same x_r, ran
    no epoch, so its working_blocks and inner_steps are 0, and its safe set
    and radius are that screen's. refined_dual is restart == "refined" in
    every solver, kept as a trace CSV column: the gap comes from a support
    refinement's point and its dual point. identified is True where a
    screening solve has identified the row's model: the safe set holds
    exactly the nonzero blocks of the row's point, and, where that point is
    not a refined one, its model is the previous row's. A refined point
    stops a solve only on an identified row. The reference solver's rows
    after the first are "last", but for a stop row that returns the point of
    its support refinement, which is "refined"; it takes no inner steps, so
    its inner_steps are 0.
    """

    outer_iter: int
    elapsed_s: float
    objective: float
    gap: float
    active_blocks: int
    active_features: int
    radius: float = math.inf
    working_blocks: int = 0
    restart: str = "start"
    refined_dual: bool = False
    identified: bool = False
    inner_steps: int = 0


@dataclasses.dataclass
class SolveReport:
    """Result of one solver run. dual is the dual point of the last trace row's
    point, so P(x_final) - D(dual) is gap. x_final is the last row's point:
    the refined point where that row's restart is "refined", else the last
    iterate. outer_iters is the last row's outer_iter; a screening solve that
    returns its refined point straight after a screen ran one epoch fewer.
    wall_time, like each row's elapsed_s, counts from the call into the
    solver, so it holds the solve's set-up."""

    x_final: np.ndarray
    trace: list
    converged: bool
    outer_iters: int
    wall_time: float
    objective: float
    gap: float
    coord_updates: int = 0
    dual: DualPoint = None
    iterates: list = None
    active_history: list = None

    @property
    def support(self):
        return np.flatnonzero(self.x_final != 0.0)

    @property
    def identified_at(self):
        """outer_iter of the first identified trace row, or None where no row is."""
        return next((r.outer_iter for r in self.trace if r.identified), None)

    @property
    def identified_s(self):
        """elapsed_s of the first identified trace row, or None where no row is."""
        return next((r.elapsed_s for r in self.trace if r.identified), None)


def inner_budget(m, q_k, q):
    """ceil(m * q_k / q), floored at one so screening never starves the inner loop."""
    return max(1, -((-m * q_k) // q))


def _resolve(spec, config):
    """(eta, m, batch_size) of config on spec; only a default eta computes
    lipschitz_constants."""
    n = spec.dataset.n
    for name, value in (("eta", config.eta), ("gap_tol", config.gap_tol)):
        if not (_is_real(value) or name == "eta" and value is None):
            raise ValueError(f"{name} must be a real number, got {value!r}")
    if not isinstance(config.keep_iterates, bool):
        raise ValueError(f"keep_iterates must be a bool, got {config.keep_iterates!r}")
    eta = (config.eta if config.eta is not None
           else 1.0 / (16.0 * lipschitz_constants(spec).L))
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    m = config.m if config.m is not None else n
    batch = config.batch_size if config.batch_size is not None else min(10, n)
    for name, count in (("m", m), ("batch_size", batch), ("max_outer", config.max_outer),
                        ("seed", config.seed)):
        if not _is_count(count):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 1 <= batch <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch}")
    if not 0 < config.gap_tol < math.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {config.gap_tol}")
    if config.max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if config.seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {config.seed}")
    return float(eta), int(m), int(batch)


# A working design at least this dense, stored entries over n * p cells, is
# also kept as an (n, p) array, and its steps take two matrix products in
# place of the entry gather and the compiled sparse loops. Time of dense over
# sparse storage for the same solves (same draws, 4 outer iterations, median
# of 4 seeds) on a 1000 x 1000 Lasso with 50 blocks, for adsgd / mrbcd /
# proxsvrg, on one core of a 2-core x86-64 host with OpenBLAS, against the
# sparse kernel's bincount predecessor: 1.14 / 1.20 / 1.24 at density 0.03,
# 1.03 / 0.81 / 0.91 at 0.06, 0.76 / 0.59 / 0.76 at 0.10 and 0.68 / 0.47 /
# 0.48 at 0.20, a crossover near 0.04-0.06. Against the compiled loops (two
# runs, proxsvrg at a step 16 times shorter): 1.10-1.12 / 1.32-1.33 /
# 1.23-1.36 at 0.03, 0.85-1.21 / 0.98-1.03 / 1.06-1.84 at 0.10 and
# 0.96-1.15 / 0.71-0.73 / 0.91-0.94 at 0.20, a crossover between 0.1 and 0.2.
# A new threshold moves designs between the storages' summation orders, and
# so the iterates of their solves; it is left for a change of its own.
_RHO = 0.1


@dataclasses.dataclass
class _Working:
    """The design on the block ids `blocks`, its columns numbered block by block.

    Working column p holds feature features[p]: the columns list the blocks
    `blocks`, in increasing id, and each block's features in increasing
    order, so block ib of the layout, block blocks[ib], is the columns
    layout.offsets[ib]:layout.offsets[ib + 1]. entries holds (cols, vals) of
    every stored entry in CSR order, cols as intp, and row r's entries are
    [indptr[r], indptr[r + 1]): plain CSR, 16 bytes per stored entry, the
    arrays of scipy's A[:, features]. While every block is kept and the
    partition is contiguous, layout is spec.partition itself. _compact
    builds it, from the dataset's CSR or its column index.
    """

    blocks: np.ndarray
    features: np.ndarray
    indptr: np.ndarray
    entries: tuple
    layout: BlockPartition

    @functools.cached_property
    def dense(self):
        """The design as an (n, p) float64 array in the same column numbering,
        where it stores at least _RHO * n * p entries over its p columns, else
        None: the one density test, which picks the rows _plan gathers for
        every step of an epoch or of a public gradient. Built when first read:
        by the first epoch or public gradient on the design, never by a
        refinement (_columns). Its row ids come from indptr."""
        (cols, vals), n, p = self.entries, self.indptr.size - 1, self.features.size
        if vals.size < _RHO * n * p:
            return None
        out = np.zeros((n, p))
        out[np.repeat(np.arange(n), np.diff(self.indptr)), cols] = vals
        return out


def _compact(spec, blocks):
    """Working design of the increasing block ids `blocks`.

    Over every block it is the dataset's CSR, its column indices as intp and
    renumbered block by block, which leaves a contiguous partition's columns
    as they are. Over fewer it is cut from the dataset's column index
    (_column_rows), at a cost in the kept entries and n, not the dataset's
    entries: the kept features' columns, gathered in increasing feature id,
    are transposed by csr_tocsc, so each row holds its kept entries in their
    CSR order and every row and block sum adds the same products in the same
    order. Their columns are then renumbered to the blocks' order, the
    identity where the kept features rise, as on a contiguous partition.
    Each design has a dense twin when it is at least _RHO dense
    (_Working.dense).
    """
    part, ds = spec.partition, spec.dataset
    if blocks.size == part.q:
        a = ds.A
        cols, layout = a.indices.astype(np.intp), part
        if np.any(np.diff(part.order) < 0):  # scattered blocks: number them in order
            rank = np.empty(part.d, dtype=np.intp)
            rank[part.order] = np.arange(part.d)
            cols, layout = rank[cols], BlockPartition.from_sizes(part.sizes)
        return _Working(blocks=blocks, features=part.order, indptr=a.indptr.astype(np.intp),
                        entries=(cols, a.data), layout=layout)
    sizes = part.sizes[blocks]
    ends = np.cumsum(sizes)
    features = part.order[np.arange(ends[-1]) + np.repeat(part.offsets[blocks] - ends + sizes,
                                                          sizes)]
    # the working column of each kept feature in increasing id, where they do not rise
    order = np.argsort(features) if np.any(np.diff(features) < 0) else None
    rp, rows, vals = _column_rows(ds, features if order is None else features[order])
    indptr, cols = np.empty(ds.n + 1, dtype=rp.dtype), np.empty(rows.size, dtype=rp.dtype)
    kept = np.empty(rows.size)
    csr_tocsc(features.size, ds.n, rp, rows, vals, indptr, cols, kept)
    cols = cols.astype(np.intp) if order is None else order[cols]
    return _Working(blocks=blocks, features=features, indptr=indptr.astype(np.intp),
                    entries=(cols, kept), layout=BlockPartition.from_sizes(sizes))


def _column_rows(ds, ids):
    """(rp, rows, vals): the dataset's columns ids, in that order, as the rows
    of a (k, n) CSR in the column index's index type, column ids[j] holding
    [rp[j], rp[j + 1]) with their row ids in increasing order. One
    csr_row_index call gathers them from the column index, the CSR of A',
    kept with the dataset (memo key ("columns",)) from the first cut or
    refinement that needs it: int32 indices while they fit, 12 bytes per
    stored entry and 4 per column."""
    indptr, indices, data = ds.memo(("columns",), lambda: _column_index(ds.A))
    ids = ids.astype(indptr.dtype)  # the compiled loop takes one index type
    rp = np.zeros(ids.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr[ids + 1] - indptr[ids], out=rp[1:])
    rows, vals = np.empty(rp[-1], dtype=indptr.dtype), np.empty(rp[-1])
    csr_row_index(ids.size, ids, indptr, indices, data, rows, vals)
    return rp, rows, vals


def _column_index(a):
    """The CSR of A' as (indptr, indices, data), read-only: A.tocsc()'s arrays,
    by the same csr_tocsc call. They live in an anonymous memory mapping of
    their own: on the malloc heap they took the space that a new dataset's
    transient arrays reuse while it is built, and each set-up of the
    benchmark's lasso-tall then grew and trimmed the heap top, 584 page
    faults and about a sixth more time a set-up."""
    (n, d), nnz, index = a.shape, a.nnz, a.indices.dtype
    buf = mmap.mmap(-1, 8 * nnz + index.itemsize * (nnz + d + 1))
    data = np.frombuffer(buf, np.float64, nnz)
    indices = np.frombuffer(buf, index, nnz, 8 * nnz)
    indptr = np.frombuffer(buf, index, d + 1, (8 + index.itemsize) * nnz)
    csr_tocsc(n, d, a.indptr, a.indices, a.data, indptr, indices, data)
    for arr in (indptr, indices, data):
        arr.flags.writeable = False
    return indptr, indices, data


# Stored entries one chunk of an epoch plan may gather. Planning a chunk holds
# about 16 bytes per entry at its peak, the gathered columns and values, for
# block and full-vector steps alike (tracemalloc, 1000 x 5000, 20000 and
# 100000 designs at 2%), so a chunk peaks near 0.5 MB, and at batch 10 it
# spreads the per-chunk calls over 25-80 steps on rows of 40-130 entries (23
# steps, a peak of 0.39 MB on the benchmark's lasso-sparse design); each
# sparse step's kernel call adds one float64 per working column while it
# runs. The chunk size never changes an iterate: the draws, and the terms of
# each sum, are those of one step at a time. Median time to gap at 2^15 over
# 2^14 on the benchmark's instances (6 solver seeds, three alternating
# rounds, in process on one core of a 2-core x86-64 host): mrbcd 0.89 on lasso-sparse and 0.98 on
# logistic-group, proxsvrg 0.96 and 0.98; adsgd 0.92 on logistic-group,
# inside its 2.2-2.4 ms spread between rounds; everything else within 1.5%.
# A dense design's chunk of the same steps gathers b * p cells a step;
# its longest row holds at least _RHO * p entries, so a chunk holds at most
# _CHUNK_ENTRIES / _RHO = 327,680 cells, 2.6 MB of float64.
_CHUNK_ENTRIES = 1 << 15


def _plan(work, y, g_snap, c, batches, ibs):
    """The c steps of one chunk, gathered at once.

    batches is a (c, b) intp array of the rows each step takes, a full
    batch's being every row; ibs holds the c sampled block ranks in
    work.blocks, which number the blocks of work.layout, or is None for
    full-vector steps. Returns an iterator of one ((rows, y_t, g_t), lo, hi)
    per step: the step's rows of the design, y and the snapshot's
    derivatives on its batch, and the working columns lo:hi it updates, its
    block's or all of them. The rows come from work's storage: on the dense
    twin (_Working.dense), one take gathers every step's, and rows is the
    step's (b, p) array; else one _gather_rows call fetches them, and rows is
    (cols, vals, rp), the chunk's entries and the step's b + 1 row pointers
    into them, a view of the chunk's, so a step slices no entry array. A
    step's entries lie in the order a gather of its batch alone would give
    them, so its sums add the same terms in the same order.
    """
    b = batches.shape[1]
    if work.dense is not None:
        rows = work.dense.take(batches, axis=0)  # iterated step by step
    else:
        cols, vals, rp = _gather_rows(work.indptr, work.entries, batches)
        rows = ((cols, vals, rp[s:s + b + 1]) for s in range(0, c * b, b))
    if ibs is None:
        los, his = [0] * c, [work.features.size] * c
    else:
        offsets = work.layout.offsets
        los, his = offsets[ibs].tolist(), offsets[ibs + 1].tolist()
    return zip(zip(rows, y[batches], g_snap[batches]), los, his)


def step_gradient(loss, x, rows, y, g_ref, lo, hi, mu, x_ref, mu_p):
    """Mini-batch gradient of the smooth part on the working columns lo:hi of x.

    The one gradient kernel, called positionally with one step of _plan:
    rows holds the batch's rows, y and g_ref y and the snapshot's
    derivatives on the batch, mu the snapshot's smooth gradient and x_ref
    the snapshot, in working columns, as x is. partial_gradient passes a
    zero snapshot, whose terms drop out exactly. On sparse rows (cols, vals,
    rp), batch row i holding the entries [rp[i], rp[i + 1]), csr_matvec
    forms A_b x, and csc_matvec, reading the entries as the CSC matrix of
    the batch's rows, sums coef A_b into every working column, each adding
    its products in entry order to zeros; a block step keeps the columns
    lo:hi of that sum, which hold the products of the block's entries alone,
    in the order a sum over them alone adds them. On dense (b, p) rows two
    ndarray.dot calls form A_b x and coef A_b[:, lo:hi]. Returns, as
    float64, the gradient on the columns lo:hi, a block or all of them:

        A_b'(f'(A_b x) - g_ref) / b  +  mu  +  2 mu_p (x - x_ref)
    """
    b, sparse = y.size, type(rows) is tuple
    if sparse:
        cols, vals, rp = rows
        z = np.zeros(b)
        csr_matvec(b, x.size, rp, cols, vals, x, z)
    else:
        z = rows.dot(x)  # ndarray.dot skips the matmul ufunc's dispatch
    coef = (loss.deriv(z, y) - g_ref) / float(b)  # a float divisor skips a cast
    if sparse:
        grad = np.zeros(x.size)
        csc_matvec(x.size, b, rp, cols, vals, coef, grad)
        grad = grad[lo:hi]
    else:
        grad = coef.dot(rows[:, lo:hi])
    grad += mu[lo:hi]
    if mu_p > 0:
        grad += 2.0 * mu_p * (x[lo:hi] - x_ref[lo:hi])
    return grad


def _check_batch(spec, batch, block):
    batch = np.asarray(batch).ravel()
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if batch.dtype.kind not in "iu" or not _is_count(block):
        raise ValueError("batch indices and block must be integers")
    batch = batch.astype(np.intp, copy=False)
    if batch.min() < 0 or batch.max() >= spec.dataset.n:
        raise ValueError("batch indices out of range")
    if not 0 <= block < spec.partition.q:
        raise ValueError(f"block {block} out of range [0, {spec.partition.q})")
    return batch


def _finite(spec, v, name):
    """v as a vector of d entries (problem._vector); ValueError naming it as
    name where an entry is not finite."""
    v = _vector(v, spec.dataset.d, name)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def _block_step(spec, x, batch, block, x_tilde=None, mu=None):
    """One step's gradient on `block`, in feature ids: a one-step chunk of the
    engine's epoch plan on the dataset's working design, run by _plan and
    step_gradient as an epoch runs it. x_tilde is the snapshot and mu its
    smooth gradient; the snapshot's derivatives are formed on the batch's
    rows alone, the only ones the step reads. Without x_tilde the snapshot is
    zero: zero derivatives, a zero gradient and a zero point, so the kernel's
    formula gives the plain mini-batch gradient (x - 0, g - 0 and adding +0
    are exact).
    """
    ds = spec.dataset
    work = _compact(spec, np.arange(spec.partition.q))
    g_snap = np.zeros(ds.n)
    if x_tilde is None:
        x_tilde = mu = np.zeros(ds.d)
    else:
        g_snap[batch] = spec.loss.deriv(ds.A[batch] @ x_tilde, ds.y[batch])
    f = work.features  # working column p holds feature f[p]
    (args, lo, hi), = _plan(work, ds.y, g_snap, 1, batch[None], np.array([block]))
    return step_gradient(spec.loss, x[f], *args, lo, hi, mu[f], x_tilde[f], spec.mu_p)


def partial_gradient(spec, x, batch, block):
    """Mini-batch gradient of the smooth part restricted to one block.

    batch may contain repeated sample indices; each occurrence contributes to
    the average. The perturbation term enters in full (it has no sample index).
    It is one step of the engine's plan, on a zero snapshot (_block_step). A
    non-finite x raises ValueError.
    """
    x = _finite(spec, x, "x")
    batch = _check_batch(spec, batch, block)
    return _block_step(spec, x, batch, block)


def vr_gradient(spec, x, x_tilde, mu_tilde, batch, block):
    """Variance-reduced block gradient: grad_I(x) - grad_I(x_tilde) + mu_tilde on the block.

    mu_tilde is the full-length smooth gradient at the snapshot; averaging the
    output over every singleton batch reproduces the exact block gradient.
    It is one step of the engine's plan (_block_step), so its bytes are those
    of an epoch's step on the same point, snapshot, batch and block. A
    non-finite x, x_tilde or mu_tilde raises ValueError.
    """
    x, x_tilde = _finite(spec, x, "x"), _finite(spec, x_tilde, "x_tilde")
    mu_tilde = _finite(spec, mu_tilde, "mu_tilde")
    batch = _check_batch(spec, batch, block)
    return _block_step(spec, x, batch, block, x_tilde, mu_tilde)


# A safe block joins an epoch's working set when x_hat is nonzero on it or its
# scaled correlation reaches _TAU * lam. adsgd's median time to gap on the
# benchmark's workloads and step sizes, for tau = 0.5 / 0.7 / 0.9: 0.067 /
# 0.062 / 0.064 s on logistic-group, 0.46 / 0.32 / 0.25 s on lasso-sparse and
# 0.093 / 0.095 / 0.102 s on lasso-tall. 0.7 was the fastest on logistic-group
# and within 3% of the fastest on lasso-tall; 0.9 was faster on lasso-sparse
# only.
_TAU = 0.7


def _working_blocks(spec, active, blocks, dp):
    """Ids of the active blocks that are among `blocks`, those where the row's
    point is nonzero (_model), or whose correlation in dp (scaled over all q
    blocks) is at least _TAU * lam, in increasing order."""
    hot = dp.correlations >= _TAU * spec.lam
    hot[blocks] = True
    return active.blocks[hot[active.blocks]]


def _matvec(work, v):
    """A x on the working design work, v holding x on its columns and x, a
    point of an epoch or refinement on work, being zero off them: csr_matvec
    adds each row's products to zero in entry order, as A @ x does, less the
    terms vals * 0.0 of the entries off work, so it gives the same bits."""
    n, (cols, vals) = work.indptr.size - 1, work.entries
    z = np.zeros(n)
    csr_matvec(n, v.size, work.indptr, cols, vals, v, z)
    return z


def _restart(spec, average, last):
    """(x, evaluation, label) of the epoch's next iterate, from its average and
    its last inner iterate, each given as (x, A x), A x formed on the epoch's
    working design (_matvec).

    Both are evaluated on the full problem, and the last iterate wins only
    with a finite gap strictly below the average's, or where the average's
    gap is not finite: a tie keeps the average, and a non-finite gap never
    beats a finite one.
    """
    (x_a, ev_a), (x_l, ev_l) = [(x, evaluate(spec, x, z)) for x, z in (average, last)]
    if np.isfinite(ev_l[3]) and not ev_a[3] <= ev_l[3]:
        return x_l, ev_l, "last"
    return x_a, ev_a, "average"


def _model(spec, features, v):
    """(key, k, blocks): the model of the point x that is v on the feature ids
    `features` and zero off them, what a refinement of x fixes. features is a
    working design's (_Working), a subsequence of spec.partition.order that
    holds every nonzero of x. key is the bytes of the ids of x's nonzeros in
    that order, followed for L1 by the bytes of their signs, so a point has
    one key on every design that holds its nonzeros; k counts the
    refinement's unknowns, the nonzeros for L1 and the features of their
    blocks for group-L2 (_refinable); blocks are the ids of the blocks where
    x is nonzero, in increasing order. Costs a few calls over |features|."""
    nz = np.flatnonzero(v)
    ids = features[nz]
    of = spec.partition.block_of[ids]
    first = np.ones(of.size, dtype=bool)  # of never falls: keep each run's first
    np.not_equal(of[1:], of[:-1], out=first[1:])
    blocks = of[first]
    if spec.reg.name == "l1":
        return ids.tobytes() + np.sign(v[nz]).tobytes(), ids.size, blocks
    return ids.tobytes(), int(spec.partition.sizes[blocks].sum()), blocks


def _refined_certificate(spec, work, v):
    """(x_r, its full-problem evaluation) of the refinement (_refine_support)
    of the point that is v on the working design work's columns and zero off
    them, or None where it finds no point. A x_r is formed on work from w_r,
    x_r on work's columns (_matvec); x_r is w_r scattered once to the d
    features, for evaluate."""
    w_r = _refine_support(spec, work, v)
    if w_r is None:
        return None
    x_r = np.zeros(spec.dataset.d)
    x_r[work.features] = w_r
    return x_r, evaluate(spec, x_r, _matvec(work, w_r))


def _refinable(spec, model):
    """Whether a screening solve may refine the model (_model): its k unknowns
    satisfy 0 < k <= n and n k^2 <= _REFINE_COST times the design's stored
    entries."""
    n, k = spec.dataset.n, model[1]
    return 0 < k <= n and n * k * k <= _REFINE_COST * spec.dataset.A.nnz


def _into_slot(spec, slot, model, work, v):
    """The slot after the model (_model) of the point v on work's columns is
    offered to it: (its key, _refined_certificate) where the model passes the
    cost gate (_refinable), the slot does not hold its key and the refinement
    finds a point, else the same slot object. The one rule of a row (_certify)
    and of a model check (_epoch), so the slot holds only found points, and a
    model whose refinement found none is offered again at its next row."""
    if slot[0] != model[0] and _refinable(spec, model):
        found = _refined_certificate(spec, work, v)
        if found is not None:
            return model[0], found
    return slot


def _certify(spec, v, evaluation, gap_tol, model, slot, work):
    """The refinement gate of a screening solve's row (module docstring).

    v is the row's point x_hat on the columns of work, the design of the
    epoch that produced it, evaluation x_hat's and model its model (_model).
    The starting row has no such design: work is None, and its x = 0 has an
    empty model, which the cost gate refuses before any design is read.
    slot is the last refinement that found a point, (its model's key, (x_r,
    its evaluation)), or (None, None) before the first. A row whose gap
    exceeds gap_tol offers its model to the slot (_into_slot). Returns
    (kept, slot): kept is (x_r, its evaluation) where the slot holds the
    refinement x_r of x_hat's model with P(x_r) < P(x_hat), the row's point
    and snapshot, uncopied as no point is written in place, else None.
    """
    obj, _, _, gap = evaluation
    if gap > gap_tol:
        slot = _into_slot(spec, slot, model, work, v)
        kept = slot[1]
        if slot[0] == model[0] and kept[1][0] < obj:
            return kept, slot
    return None, slot


def _epoch(spec, work, x_hat, evaluation, steps, rng, eta, batch_size, block_sampling,
           slot, gap_tol):
    """(x, evaluation, label, updates, taken, slot) of at most `steps` inner
    steps from x_hat on the working design work: the next iterate, its
    evaluation and label, from _restart or from the slot (below), the number
    of coordinate updates, the number of steps taken and the slot. x_hat is
    the point of the row that opens the
    epoch, a refined point where the row took one (_certify), and the
    snapshot, with evaluation its own. The steps start from x_hat on work,
    also where it is nonzero on a block the row's screen dropped: a
    variance-reduced step is unbiased for any snapshot whose full gradient
    it carries (Johnson & Zhang, NeurIPS 2013). With block_sampling a step
    updates one drawn block of work, else every working column.

    slot is None for a solve that never screens, whose epoch takes every step.
    A screening solve passes the engine's slot (_certify) and the solve's
    gap_tol, and checks x_cur's model after every |W| = work.blocks.size
    steps but the last; the start point is the first check. A check compares
    the bytes of x_cur's signs for L1, its nonzero mask for group-L2, with
    the previous check's: W is fixed within the epoch, so they differ exactly
    where the models do. Where the same model has held at three checks in a
    row, it is offered to the slot, x_cur as it stands (_into_slot). Where
    that refinement finds a point, certified or not, the slot changes and
    the epoch ends there: the next row finds the refinement in the slot, and
    takes it where its objective is the lower. An epoch whose refinements
    find no point leaves the slot as it was and takes every step; its next
    row offers the model again. Only the third check of a run offers it.
    Under a zero _REFINE_COST no model passes the gate, so such an epoch
    takes every step, as one that never screens.

    The steps are planned in chunks, each gathering at most _CHUNK_ENTRIES
    entries and cut at the last step. A chunk makes one rng.integers call,
    whose bounds list n for every batch row and the number of working blocks
    for every block draw, in step order. A full batch (batch_size == n)
    draws no rows: each of its steps takes every row, in order, and is
    gathered like any other batch, at the cost of a copy of the design. A
    bounded draw consumes the Philox stream alike alone or in an array
    (tests pin this), so the chunks draw the values of step-by-step draws
    and leave the stream in their state, on both storages alike. An epoch
    that ends at a check inside a chunk restores the generator's state from
    before that chunk's draw and draws the bounds of the steps it took
    again, so it too leaves the stream where step-by-step draws would, and
    the chunk size never changes an iterate. _plan yields the chunk's steps,
    gathered from work's storage, and each chunk runs as one loop: a step
    calls step_gradient positionally, updates its columns lo:hi of the
    iterate in place (grad *= eta, with eta a 0-d float64 array, v -= grad,
    the prox written back into v) and adds the iterate to the running sum,
    whose average over the steps taken is the first candidate, the last
    inner iterate the second. The prox threshold eta * lam stays a float.

    Each candidate's A x is formed on work (_matvec). Where the slot holds a
    refined point x_r, both candidates hold the slot's model (their keys,
    taken on the working columns where their nonzeros lie, are the slot's),
    and each one's objective P from that A x is finite and exceeds P(x_r) by
    more than gap_tol plus _rounding(P, P, P(x_r)), the row is decided: both
    gaps exceed gap_tol, so _certify would keep x_r over whichever candidate
    won. The full restart would test the computed P - D, P being this P to
    the bit (evaluate forms it from the same A x), and D <= P* <= P(x_r) by
    weak duality (Ndiaye, Fercoq, Gramfort & Salmon, JMLR 2017). So that gap
    falls below P - P(x_r) by at most the rounding of D and P(x_r), each
    within (n + d) eps of itself (duality._rounding); P's own term covers
    the comparisons'. D counts as |P|: objectives are at least 0, so P >
    gap_tol here, a computed D below -P leaves a gap above 2 P, and one
    above P is within its rounding of P. So the margin holds on every shape.
    The epoch then returns x_r and its evaluation, uncopied, labelled
    "refined", and evaluates neither candidate; the engine identifies that
    row as any row whose point is a refined one. Otherwise _restart
    evaluates both, from the same A x.
    """
    n, y, loss, mu_p = spec.dataset.n, spec.dataset.y, spec.loss, spec.mu_p
    prox, thresh = spec.reg.block_prox, eta * spec.lam
    # numpy multiplies by a 0-d float64 array in about half the time it takes
    # for a Python float. thresh stays a float: as a 0-d array it slows both
    # proxes (group-L2 on 10 columns 1.07 -> 1.48 us, L1 on 100 0.80 -> 0.93).
    eta = np.array(eta)
    sampled = batch_size < n
    wfeat, width = work.features, work.blocks.size
    x_tilde = x_hat[wfeat]
    x_cur = x_tilde.copy()
    x_sum = np.zeros(wfeat.size)
    g_ref, mu = evaluation[1], evaluation[2].gradient[wfeat]
    classes = None if block_sampling else work.layout.classes
    per_step = (batch_size * int(np.diff(work.indptr).max()) if sampled
                else work.entries[0].size)
    chunk = max(1, _CHUNK_ENTRIES // max(1, per_step))
    highs = np.array([n] * (batch_size if sampled else 0)
                     + [width] * block_sampling)
    # the step after which the next check runs, 0 once none is left
    check = width if slot is not None and width < steps else 0
    if slot is not None:
        # the signs for L1, the nonzero mask for group-L2: W is fixed within
        # the epoch, so working-column bytes compare like models
        pattern = np.sign if spec.reg.name == "l1" else np.bool_
        was, held = pattern(x_cur).tobytes(), 1
    updates, taken = 0, steps
    for done in range(0, steps, chunk):
        c = min(chunk, steps - done)
        if slot is not None:
            state = rng.bit_generator.state
        draws = (rng.integers(0, np.tile(highs, c)).reshape(c, -1) if highs.size
                 else None)
        batches = (draws[:, :batch_size] if sampled
                   else np.broadcast_to(np.arange(n), (c, n)))
        ibs = draws[:, -1] if block_sampling else None
        for t, (args, lo, hi) in enumerate(_plan(work, y, g_ref, c, batches, ibs), done + 1):
            grad = step_gradient(loss, x_cur, *args, lo, hi, mu, x_tilde, mu_p)
            grad *= eta
            v = x_cur[lo:hi]
            v -= grad
            prox(v, thresh, classes, out=v)
            x_sum += x_cur
            updates += hi - lo
            if t != check:
                continue
            check = check + width if check + width < steps else 0
            now = pattern(x_cur).tobytes()
            held, was = held + 1 if now == was else 1, now
            if held != 3:
                continue
            last, slot = slot, _into_slot(spec, slot, _model(spec, wfeat, x_cur), work, x_cur)
            if slot is not last:  # the refinement found a point
                taken = t
                break
        del args  # release this chunk before the next is planned
        if taken < steps:  # leave the stream where the steps taken leave it
            rng.bit_generator.state = state
            rng.integers(0, np.tile(highs, taken - done))
            break
    x_sum /= taken
    cands = []
    for v in (x_sum, x_cur):
        x = np.zeros(spec.dataset.d)
        x[wfeat] = v
        cands.append((x, _matvec(work, v)))
    if slot is not None and slot[1] is not None and all(
            _model(spec, wfeat, v)[0] == slot[0] for v in (x_sum, x_cur)):
        x_r, ev_r = slot[1]
        bar = ev_r[0] + gap_tol
        if all(math.isfinite(obj) and obj - _rounding(spec, obj, obj, ev_r[0]) > bar
               for obj in (primal_objective(spec, x, z) for x, z in cands)):
            return x_r, ev_r, "refined", updates, taken, slot
    return (*_restart(spec, *cands), updates, taken, slot)


# Every solve starts at x = 0, so a row above P(0) is an epoch that left the
# iterate worse than where it began. Averaged epochs overshoot a little early
# on: at most 1.05 times P(0) in the tests' and the benchmark's solves, and 1.7
# times where a step of 1/L_spec still certifies. A step too long for the data
# grows the objective geometrically, row on row, past 1e100 with the gap still
# finite. A row over _RUNAWAY times P(0) ends the solve as diverged: six decades
# above any overshoot seen, and a few rows into a runaway.
_RUNAWAY = 1e6


# A diverging solve overflows in its steps and evaluations; the non-finite or
# runaway objective check reports that as a DivergenceError, without numpy's
# warnings.
@np.errstate(over="ignore", invalid="ignore")
def _engine(spec, config, *, block_sampling, screening):
    start = time.perf_counter()
    # lipschitz_constants rejects this design too, but runs only for a default eta
    if not spec.dataset.A.data.any():
        raise DegenerateProblemError("design matrix is all zeros")
    eta, m, batch_size = _resolve(spec, config)
    rng = np.random.Generator(np.random.Philox(config.seed))

    active = ActiveSet.full(spec)
    bounds = column_bounds(spec) if screening else None
    work = None  # the design of the epoch that produced x_hat, none before the first
    x_hat = np.zeros(spec.dataset.d)
    trace, active_history = [], []
    iterates = [] if config.keep_iterates else None
    coord_updates, converged, k = 0, False, 0
    radius, width, taken = math.inf, 0, 0
    # the last row's model key; the last refinement that found a point, of a
    # screening solve only
    key, slot = None, (None, None) if screening else None
    evaluation, restart = evaluate(spec, x_hat, np.zeros(spec.dataset.n)), "start"
    runaway = _RUNAWAY * evaluation[0]

    def record(obj, gap, identified):
        """Append row k, of x_hat on the safe set active."""
        trace.append(TraceRecord(outer_iter=k, elapsed_s=time.perf_counter() - start,
                                 objective=obj, gap=float(gap),
                                 active_blocks=active.n_blocks,
                                 active_features=active.n_features,
                                 radius=radius, working_blocks=width, restart=restart,
                                 refined_dual=restart == "refined", identified=identified,
                                 inner_steps=taken))
        active_history.append(active.blocks.copy())
        if iterates is not None:
            iterates.append(x_hat.copy())

    while True:
        identified = False
        if screening:
            # x_hat lies on the columns of the epoch that produced it; the
            # starting row's x = 0 needs only the feature order, and its empty
            # model never reaches a design (_refinable)
            feats = spec.partition.order if work is None else work.features
            v = x_hat[feats]
            model = _model(spec, feats, v)
            if restart != "refined" and np.isfinite(evaluation[0]):
                # a refined point with the lower objective becomes the row's
                # point, with its whole evaluation
                kept, slot = _certify(spec, v, evaluation, config.gap_tol, model, slot, work)
                if kept is not None:
                    (x_hat, evaluation), restart = kept, "refined"
                    model = _model(spec, feats, x_hat[feats])
            identified = ((restart == "refined" or model[0] == key)
                          and np.array_equal(model[2], active.blocks))
            key = model[0]
        obj, _, dp, gap = evaluation
        record(obj, gap, identified)
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at outer iteration {k}",
                                  iteration=k)
        if obj > runaway:
            raise DivergenceError(f"objective ran away to {obj:.3g}, over {_RUNAWAY:g} "
                                  f"times P(0), at outer iteration {k}", iteration=k)
        # a refined point stops the solve only on an identified row
        if gap <= config.gap_tol and (identified or restart != "refined"):
            converged = True
            break
        if k >= config.max_outer:
            break
        k += 1

        radius, width, taken = math.inf, 0, 0
        if screening:
            radius = safe_radius(spec, _padded_gap(spec, evaluation))
            active = screen(spec, dp, radius, active, bounds)
            if (restart == "refined" and gap <= config.gap_tol
                    and np.array_equal(model[2], active.blocks)):
                continue  # the screen left exactly x_r's blocks: x_r is the next row
        if active.n_blocks == 0:  # empty subproblem: x_hat = 0, evaluated to certify it
            x_hat = np.zeros(spec.dataset.d)
            evaluation, restart = evaluate(spec, x_hat, np.zeros(spec.dataset.n)), "average"
            continue
        # A screening solver's epoch runs on the working set, inside the safe
        # set. The epoch starts from x_hat on it, so its average and last
        # iterate are zero off it. An empty one (x_hat zero on the safe set, no
        # safe block near lam) falls back to the safe set. Its design is cut
        # from the dataset's only where its blocks differ from the last epoch's.
        wb = _working_blocks(spec, active, model[2], dp) if screening else active.blocks
        if wb.size in (0, active.n_blocks):
            wb = active.blocks
        if work is None or not np.array_equal(wb, work.blocks):
            work = _compact(spec, wb)
        width = work.blocks.size
        x_hat, evaluation, restart, updates, taken, slot = _epoch(
            spec, work, x_hat, evaluation, inner_budget(m, width, spec.partition.q), rng,
            eta, batch_size, block_sampling, slot, config.gap_tol)
        coord_updates += updates

    return SolveReport(
        x_final=x_hat.copy(), trace=trace, converged=converged, outer_iters=k,
        wall_time=time.perf_counter() - start, objective=trace[-1].objective,
        gap=trace[-1].gap, coord_updates=coord_updates, dual=dp,
        iterates=iterates, active_history=active_history,
    )


def adsgd_solve(spec, config=None):
    """Accelerated doubly stochastic gradient descent with gap-safe screening."""
    config = config or SolverConfig(solver="adsgd")
    return _engine(spec, config, block_sampling=True, screening=True)


def mrbcd_solve(spec, config=None):
    """Mini-batch randomized block coordinate descent: the screened solver minus screening."""
    config = config or SolverConfig(solver="mrbcd")
    return _engine(spec, config, block_sampling=True, screening=False)


def proxsvrg_solve(spec, config=None):
    """Proximal stochastic variance-reduced gradient over the full coordinate vector."""
    config = config or SolverConfig(solver="proxsvrg")
    return _engine(spec, config, block_sampling=False, screening=False)


def _spectral_bound(spec):
    """Smoothness bound for full-gradient steps: c * sigma_max(A)^2 / n + 2 mu_p.

    sigma_max(A) comes from at most 60 power iterations from the uniform unit
    vector on Dataset.matvec and rmatvec, one A'u and one A v each, that A v
    also giving the next A'u; they stop where sigma moves by at most 1e-9 of
    max(sigma, 1), or at 0 where A'u vanishes, and approach sigma_max(A)
    from below. No solver calls this; the benchmark, the demos and the tests
    take step sizes from it.
    """
    ds = spec.dataset
    u = ds.matvec(np.full(ds.d, 1.0 / math.sqrt(ds.d)))
    sigma = 0.0
    for _ in range(60):
        w = ds.rmatvec(u)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            sigma = 0.0
            break
        u = ds.matvec(w / nw)
        sigma, last = float(np.linalg.norm(u)), sigma
        if abs(sigma - last) <= 1e-9 * max(sigma, 1.0):
            break
    base = spec.loss.curvature * sigma ** 2 / ds.n
    return max(base, 1e-12) + 2.0 * spec.mu_p


def _one_pass_bound(spec):
    """c * max(max_i ||a_i||^2, max_j ||a_j||^2) / n + 2 mu_p, from one pass over A.

    No row or column of A is longer than sigma_max(A), so this is at most the
    smoothness constant c * sigma_max(A)^2 / n + 2 mu_p; and since
    sigma_max(A)^2 <= ||A||_F^2, it is at least 1/min(n, d) of it. The
    reference solver starts its backtracking here. The longest row and
    column are found once per dataset.
    """
    ds = spec.dataset

    def longest():
        rows = np.repeat(np.arange(ds.n), np.diff(ds.A.indptr))
        row_sq = np.bincount(rows, weights=ds.A.data ** 2, minlength=ds.n)
        return max(float(row_sq.max()), float(ds.column_norms().max()) ** 2)

    top = ds.memo(("one_pass",), longest)
    base = spec.loss.curvature * top / ds.n
    return max(base, 1e-12) + 2.0 * spec.mu_p


# A screening solve accepts a refinement once the residual of its Newton
# steps, the largest entry of the stationarity system, falls to this fraction
# of lam; a model that holds at the optimum reaches below 1e-13 in a few steps.
_REFINE_TOL = 1e-9

# Newton steps of a refinement, over all its rounds; evaluating the residual
# of the point a step reached is not a step. Along adsgd runs on the
# benchmark workloads (solver seeds 0-7 at the benchmark's settings), whose
# epochs end at their first refinement that finds a point, every refinement
# reached _REFINE_TOL: 3.1, 1.1 and 2.1 refinements per solve on
# lasso-sparse, lasso-tall and logistic-group. On the Lasso workloads a
# model's system is linear, and each took 1 step, with no pruning round;
# group-L2 never prunes: 5 steps on logistic-group. At 0.25, 0.18 and 0.1
# lam_max (the same seeds, 186 refinements, each of which found a point) a
# Lasso model took at most 5 steps, with a pruning round in 93 of 125, and a
# group-L2 one at most 6. From the tests' REFINE_CASES, 5% off the
# optimum: 1 step on the Lasso, 3 on logistic L1, 3 or 4 on group-L2. Pruning
# three coordinates of about 1e-9 off the optimum takes 3 steps in 2 rounds
# on the Lasso case and 9 in 2 rounds on the logistic L1 case. One on a wrong
# model may run to the cap, so a lower cap bounds what a failed refinement
# costs.
_REFINE_STEPS = 10

# A screening solve refines a model of k unknowns only where n * k^2, the
# multiply-adds of one Newton step's Hessian, is at most this many times the
# design's stored entries, which one evaluation reads twice. One Newton step
# over one full evaluation (logistic loss, group-L2, on one core of a 2-core
# x86-64 host with OpenBLAS), for n k^2 / nnz = 2 / 25 / 225 on a 500 x 2000
# design at 20% density: 0.32 / 1.0 / 6.2; at 9 / 100 / 903 on 1000 x 5000 at
# 2%: 0.56 / 2.1 / 10.5; at 2 / 25 / 225 on a dense 2000 x 400: 0.28 / 1.0 /
# 4.1. At the bound a step costs two to three evaluations. An adsgd epoch on
# the benchmark workloads, which ends at its first refinement that finds a
# point, costs 3 to 10 evaluations (solver seeds 0-7; median epoch over one
# evaluation: 1.35 / 0.206 ms on logistic-group, 0.95 / 0.151 ms on
# lasso-tall, 1.23 / 0.188 ms on lasso-sparse). Its refinements lie at 1-9
# (logistic-group), 0.025-0.1 (lasso-tall) and 0.01-0.5 (lasso-sparse),
# where a step costs at most about half an evaluation, so a refinement that
# converges, in at most 5 steps, costs about an epoch or less, and one on a
# wrong model at most _REFINE_STEPS steps. At 0.25 to 0.1 lam_max they reach
# 49 (logistic-group), 1.6 (lasso-tall) and 92 (lasso-sparse), where epochs
# run longer: 25 to 80 evaluations at the longest.
_REFINE_COST = 100.0


def _columns(ds, work, support):
    """The columns of the working design work on its column ids support, as a
    dense (n, k) array in column-major order: copied from work's dense twin
    (_Working.dense) where an epoch built it, else gathered from the dataset
    ds's column index (_column_rows), at a cost in the support's stored
    entries, with no twin built. Either way, the bits of A's columns
    work.features[support], a stored -0.0 included.
    """
    dense = work.__dict__.get("dense")  # a cached_property read, never a build
    if dense is not None:
        return dense.T[support].T  # a (k, n) copy's transpose
    rp, rows, vals = _column_rows(ds, work.features[support])
    out = np.zeros((support.size, ds.n))  # its transpose is the (n, k) result
    cells = np.repeat(np.arange(0, out.size, ds.n), np.diff(rp))  # each entry's cell
    cells += rows
    out.ravel()[cells] = vals
    return out.T


def _group_model(part, x):
    """(support, bid, same) of x's group-L2 model on the partition part, x
    holding one entry per column of part: the columns of the blocks where x
    is nonzero, in increasing order; each one's block, numbered 0.. in
    increasing block id; and the (k, k) mask of the pairs of them that share
    a block. Array operations on the nonzero-block mask alone."""
    nonzero = np.zeros(part.q, dtype=bool)
    nonzero[part.block_of[x != 0.0]] = True
    support = np.flatnonzero(nonzero[part.block_of])
    bid = (np.cumsum(nonzero) - 1)[part.block_of[support]]
    return support, bid, bid[:, None] == bid


def _refine_support(spec, work, v):
    """Solve the smooth stationarity system on the model of the point that is
    v on the working design work's columns; the point on them, or None.

    The model is the support of v with its signs for L1, and the columns of
    the blocks of work.layout where v is nonzero for group-L2 (_group_model),
    numbered by working column: on a scattered partition block by block, not
    in increasing feature id. On it the penalty is smooth, lam * sign(w_i)
    on an L1 coordinate and lam * w_j / ||w_j|| on a group-L2 block, so the
    system A_S' f'(A_S w) / n + 2 mu_p w + lam grad Omega(w) = 0 has a root
    wherever the model is the optimum's. A round takes Newton steps from its
    start, the first of which solves the system of the squared loss with L1,
    a linear one, and ends on the point of smallest residual, or the last
    point where a step's system is singular.
    Where that point flips the sign of an L1 coordinate, or zeroes it, the
    next round starts from it with every such coordinate dropped from the
    model. The rounds share one budget of _REFINE_STEPS Newton steps: a flip
    left when it runs out, or an empty support, returns None, and so does a
    non-finite value. The point returned so has a support inside v's, with
    v's signs there, and a residual of at most _REFINE_TOL * lam, else None,
    as where a group-L2 block collapses toward zero, which the model cannot
    express. Never raises. Each round takes its model's columns from work
    (_columns), and no array of the refinement holds one entry per feature.

    A round forms its constants once: the columns, the ridge 2 mu_p I, the
    1e-13 I that keeps the system regular, and an F-ordered (n, k) buffer for
    a_s scaled by f''. A step makes one loss call for f' and f'' (derivs)
    and adds the group-L2 penalty's Hessian on the within-block pairs alone
    (_group_model's mask). Under mu_p = 0 it adds neither zero term: 1e-13 I
    adds a zero to every entry the ridge would, and where 2 mu_p w is a zero
    the penalty term, lam * sign or lam * w_j / ||w_j||, is nonzero or a zero
    of w's sign: each sum keeps its bits without them, and a non-finite w
    returns None either way.
    """
    ds, l1 = spec.dataset, spec.reg.name == "l1"
    if l1:
        support = np.flatnonzero(v)
    else:
        support, bid, same = _group_model(work.layout, v)
    w = v[support]
    signs = np.sign(w)
    n, loss, lam, two_mu = ds.n, spec.loss, spec.lam, 2.0 * spec.mu_p
    steps = 0  # Newton steps, over every round
    with np.errstate(all="ignore"):
        while True:  # one round per model; an L1 round that flips signs prunes them
            if support.size == 0:
                return None
            # column-major: the BLAS products below round differently on a row-major copy
            a_s = _columns(ds, work, support)
            eye = np.eye(support.size)
            ridge, tiny, pen = two_mu * eye, 1e-13 * eye, lam * signs
            curved = np.empty_like(a_s)  # a_s scaled row by row by f''
            best = (math.inf, w)  # (residual, point) of the round's best point
            while True:
                z = a_s.dot(w)  # ndarray.dot: the BLAS call of @, dispatched faster
                d1, d2 = loss.derivs(z, ds.y)
                if not l1:  # each coordinate's block norm, and lam * w / ||w_j||
                    nrm = np.sqrt(np.bincount(bid, weights=w * w))[bid]
                    unit = w / nrm
                    pen = lam * unit
                res = a_s.T.dot(d1)
                res /= n
                if two_mu:  # a zero under mu_p = 0 (docstring)
                    res += two_mu * w
                res += pen
                rnorm = float(np.abs(res).max())
                if rnorm < best[0]:
                    best = (rnorm, w)
                if rnorm < 1e-13 or steps >= _REFINE_STEPS:
                    break
                h = np.multiply(a_s, d2[:, None], out=curved).T.dot(a_s)
                h /= n
                if two_mu:  # a zero under mu_p = 0 (docstring)
                    h += ridge
                h += tiny
                if not l1:  # lam (I - u u') / ||w_j|| within each block
                    hp = unit[:, None] * unit
                    np.subtract(eye, hp, out=hp)
                    hp *= (lam / nrm)[:, None]
                    np.add(h, hp, out=h, where=same)
                try:
                    step = np.linalg.solve(h, res)
                except np.linalg.LinAlgError:
                    best = (rnorm, w)  # the point whose system is singular
                    break
                steps += 1
                w = w - step
                if not np.isfinite(w).all():
                    break
            w = best[1]
            if not l1 or steps >= _REFINE_STEPS or not np.all(np.isfinite(w)):
                break
            keep = np.sign(w) == signs
            if keep.all():
                break
            support, signs, w = support[keep], signs[keep], w[keep]
        if not best[0] <= _REFINE_TOL * lam:
            return None
    if not np.all(np.isfinite(w)) or (l1 and np.any(np.sign(w) != signs)):
        return None
    out = np.zeros(v.size)
    out[support] = w
    return out


def reference_solve(spec, tol=1e-10, max_iter=50000):
    """Deterministic accelerated proximal gradient oracle.

    Full-gradient steps with backtracking, momentum restarts, and for L1 a
    final _refined_certificate, whose point and dual point replace the stop
    row's where their gap is strictly smaller, so the returned dual point
    resolves equicorrelation membership well below the stopping tolerance.
    Raises ConvergenceError (carrying the best gap seen) if max_iter is
    exhausted, and ValueError, before the first evaluation, unless tol is a
    positive finite number and max_iter a nonnegative integer, neither a
    bool.

    The backtracking constant starts at _one_pass_bound, which is at most the
    smoothness constant, and doubles at every failed sufficient-decrease
    test. Each iteration forms one A x per prox point tried (Dataset.matvec)
    and one A'g in the evaluation of x (Dataset.rmatvec). At the
    extrapolated point y = xn + beta (xn - x), A y = A xn + beta (A xn - A x)
    costs no product, and on the squared loss, whose f' is affine, neither
    does the smooth gradient: it is the same combination of the two
    evaluations' gradients, exact in real arithmetic, mu_p's term included.
    On the logistic loss a step from y forms one more A'g there, unless y
    is x (a restart, and a step from t = 1, where beta = 0, put y on x).
    The support refinement runs on the dataset's working design, _compact
    over every block, handed x on its columns: it gathers its model's columns
    from the dataset's column index (_columns), and one that returns a
    point forms its A x on that design (_matvec) and one more A'g.
    """
    start = time.perf_counter()
    if not (_is_real(tol) and 0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not _is_count(max_iter) or max_iter < 0:
        raise ValueError(f"max_iter must be a nonnegative integer, got {max_iter!r}")
    ds = spec.dataset
    y, n, d = ds.y, ds.n, ds.d
    reg, lam = spec.reg, spec.lam
    part = spec.partition
    lb = _one_pass_bound(spec)

    x = np.zeros(d)
    zx = np.zeros(n)
    yv = x
    zy = zx
    t_mom = 1.0
    best_gap = np.inf
    trace = []
    it = 0
    converged = False

    def row(obj, gap, restart):
        return TraceRecord(outer_iter=it, elapsed_s=time.perf_counter() - start,
                           objective=obj, gap=float(gap), active_blocks=part.q,
                           active_features=d, working_blocks=part.q if it else 0,
                           restart=restart, refined_dual=restart == "refined")

    while True:
        obj, _, dp, gap = evaluate(spec, x, zx)
        best_gap = min(best_gap, gap)
        if it % 50 == 0 and not gap <= tol:  # the stop row follows the refinement
            trace.append(row(obj, gap, "last" if it else "start"))
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at iteration {it}",
                                  iteration=it)
        if gap <= tol:
            converged = True
            break
        if it >= max_iter:
            raise ConvergenceError(
                f"no convergence to gap {tol:g} within {max_iter} iterations "
                f"(best gap {best_gap:g})", best_gap=best_gap)
        it += 1

        # on the first step, after a restart and after a step from t = 1 the
        # momentum point is the iterate, whose smooth gradient the evaluation
        # already formed; on the squared loss, whose f' is affine, y's is the
        # same combination of the last two evaluations' as y is of their points
        if yv is x:
            grad = dp.gradient
        elif spec.loss.name == "squared":
            grad = dp.gradient + beta * (dp.gradient - prev)
        else:
            grad = smooth_gradient(spec, yv, spec.loss.deriv(zy, y))
        fy = smooth_value(spec, yv, zy)
        while True:
            xn = reg.block_prox(yv - grad / lb, lam / lb, part.classes)
            zn = ds.matvec(xn)
            fn = smooth_value(spec, xn, zn)
            diff = xn - yv
            bound = fy + float(grad @ diff) + 0.5 * lb * float(diff @ diff)
            if fn <= bound + 1e-12 * (abs(fy) + abs(fn)) + 1e-300:
                break
            lb *= 2.0
            if lb > 1e30:
                raise ConvergenceError("backtracking step size collapsed",
                                       best_gap=best_gap)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        beta = (t_mom - 1.0) / t_new
        if float((yv - xn) @ (xn - x)) > 0.0:
            t_new = 1.0
            yv, zy = xn, zn
        elif beta == 0.0:  # t was 1: y is xn, whose gradient the next evaluation forms
            yv, zy = xn, zn
        else:  # A y follows from A xn and A x, which are both at hand
            yv, zy = xn + beta * (xn - x), zn + beta * (zn - zx)
        x, zx, prev = xn, zn, dp.gradient
        t_mom = t_new

    restart = "last" if it else "start"
    ref = None
    if spec.reg.name == "l1":
        whole = _compact(spec, np.arange(part.q))
        ref = _refined_certificate(spec, whole, x[whole.features])
    if ref is not None and ref[1][3] < gap:
        (x, (obj, _, dp, gap)), restart = ref, "refined"
    trace.append(row(obj, gap, restart))
    return SolveReport(x_final=x.copy(), trace=trace, converged=converged,
                       outer_iters=it, wall_time=time.perf_counter() - start,
                       objective=obj, gap=float(gap), dual=dp)


_SOLVERS = {
    "adsgd": adsgd_solve,
    "mrbcd": mrbcd_solve,
    "proxsvrg": proxsvrg_solve,
}


def solve(spec, config):
    """Dispatch on config.solver; 'reference' runs the oracle at gap_tol."""
    name = config.solver.lower() if isinstance(config.solver, str) else None
    if name == "reference":
        return reference_solve(spec, tol=config.gap_tol)
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver {config.solver!r}; "
                         f"expected one of {sorted(_SOLVERS) + ['reference']}")
    return _SOLVERS[name](spec, config)
