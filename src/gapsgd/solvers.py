"""Screened doubly stochastic solvers and the deterministic reference solver.

All four stochastic solvers share one engine differing only in three switches:

    adsgd     block sampling + variance reduction + gap-safe screening
    mrbcd     block sampling + variance reduction, no screening
    asgd      full-vector mini-batch steps + screening, no variance reduction
    proxsvrg  full-vector variance-reduced steps, no screening

Each outer iteration snapshots the iterate and evaluates it on the full
problem (duality.evaluate over ActiveSet.full: objective, per-sample
derivatives, the dual point scaled over all q blocks, and the duality gap).
That gap is the stopping test, so a certificate holds whatever screening
dropped. A screening solver then screens with the Gap Safe sphere of radius
sqrt(2 n gap max(c, 2 n mu_p)) (duality.safe_radius), which drops blocks for
good: the safe set only shrinks. Inside the safe set it picks the epoch's
working set, the safe blocks where the iterate is nonzero plus those whose
scaled correlation reaches _TAU * lam, after Celer (Massias, Gramfort &
Salmon, ICML 2018). The epoch runs ceil(m * |W| / q) inner steps on that
working set W, m = n by default, so one pass over the samples when W holds
every block. Both the average of the epoch's inner iterates and its last
inner iterate are then evaluated on the full problem, and the one with the
strictly smaller gap becomes the next iterate (_restart); a tie or a
non-finite gap keeps the average. The winner's evaluation is the next outer
iteration's: its trace row, stop test, screen, working set and snapshot, so
an epoch costs two evaluations, plus one per refined model (below). The
average drags in the epoch's early iterates, the last iterate does not, and
neither wins every epoch. A W that is too small cannot certify, since the
gap scales the dual over every block; it costs outer iterations, and a block
it wrongly left out correlates above lam at the subproblem's optimum, so it
joins the next W. The solvers that never screen run every epoch on all q
blocks. Identical (spec, config, seed) triples reproduce bit-identical
iterate sequences. The evaluation's dual point forms the iteration's one
product A'g: the screening test and the working set read its block
correlations and the variance reduction its smooth gradient, which is
formed again only when screening truncates the snapshot.

The iterate's own dual point is wrong to first order, so its gap tracks
about the square root of the suboptimality. A screening solve therefore
certifies on the identified model: once the safe set holds exactly the
blocks where x_hat is nonzero and x_hat has the previous iterate's model
(its signs for L1, its nonzero pattern for group-L2; _model), of k <= n
unknowns with n k^2 at most _REFINE_COST times the design's stored entries,
_refine_support solves the smooth stationarity system on that model, in at
most _REFINE_STEPS Newton steps, once while the model holds (later iterates
of it reuse the result). The
refined point x_r is evaluated on the full problem, and its dual point
certifies x_hat wherever P(x_hat) - D(theta_r) is the smaller gap: that gap
is the row's, the stop test's and the safe radius's, and theta_r is the
sphere's centre and scores the working set, while the snapshot keeps
x_hat's own derivatives and gradient. A solve certified so returns x_r where
P(x_r) <= P(x_hat), else x_hat, and report.dual is the certifying dual
point, so P(x_final) - D(report.dual) is report.gap. theta_r is scaled over
every block like any dual point, so a refinement on a wrong model gives a
larger gap, which is never used, and cannot make a certificate false.

Every inner step of every solver goes through one of two gradient kernels,
one per storage of the working design (below): the sampled rows'
derivatives, relative to the snapshot's under variance reduction, summed into
the sampled block or into every working column. step_gradient sums the
gathered entries with two bincounts; dense_step_gradient forms the same
gradient from two matrix products, X_b x and coef X_b[:, lo:hi]. The engine
picks the kernel per epoch from the storage of the design the epoch runs on.
A batch of all n rows takes the whole working design as it stands, without a
draw. partial_gradient and vr_gradient run the same kernel on the
uncompacted design, picked by the same density test, from the batch's rows
alone.

An epoch is planned in chunks of steps, each chunk sized to gather at most
_CHUNK_ENTRIES entries and never reaching past the epoch's last step. A chunk
makes one rng.integers call, whose bounds list n for every batch row and the
number of active blocks for every block draw, in step order. That takes the
same values from the Philox stream as the draws made step by step, and leaves
the stream in the same state: each bounded draw consumes the stream alike
whether it comes alone or in an array, which tests pin. _plan then gathers
every sampled row of the chunk at once, through one index array computed from
the row pointers, selects each step's block entries with one mask over the
chunk, and returns the chunk's arrays with plain lists of each step's entry
offsets and columns. On a dense design _plan_dense gathers the chunk's rows
with one fancy index instead, as a (c, b, p) array. The engine runs a chunk
as one loop over those steps: each step calls its kernel positionally, on
slices of the chunk's arrays, and updates its columns of the iterate in
place, grad *= eta, v -= grad and the prox written back into v, then adds the
iterate to the running sum. On the sparse storage each step sums the same
entries in the same order as a per-step gather would, and the in-place
update rounds as the old expressions did, so neither changes a bit. The chunk
sizes and the draws are the same on both storages, so both take the same
rows and blocks.

The working design is the row pointers plus one array each of the column,
value and row of every stored entry, in CSR order, with its columns numbered
block by block: block ib of its layout is the column range
offsets[ib]:offsets[ib + 1], and features maps each column to its feature.
A contiguous partition is already in that order; a scattered one is
renumbered once, when a solve starts. After every screening event the safe
set's design is compacted to the surviving columns, cut down from the
previous one (so at most q times per solve): a mask drops the screened
blocks' entries, a cumulative count renumbers the surviving columns, which
stay block by block, a bincount of the kept entries' rows rebuilds the row
pointers, and the kept blocks' sizes give the new layout. The working set's
design is cut the same way from the safe set's, when W changes. The inner
loop runs in those working columns: the iterate, snapshot, snapshot gradient
and running average hold one entry per feature of W, gathered from and
scattered back to feature ids through features, and each sampled row
contributes only its entries in W. That is where screening and the working
set cut the cost of a step, not just the number of steps. Coordinates off W
are exact zeros, so compaction removes only vals * 0.0 terms from the row
sums.

Each working design is stored by its own density. One that holds at least
_RHO * n * p entries over its p columns also has a dense twin, an (n, p)
array in the same column numbering (_Working.dense), built when an epoch
first runs on it; the epochs on it take the dense kernel. The sparse
kernel's bincounts, gathers and casts are pure call overhead where most cells
are stored, and a very sparse design stored dense would multiply mostly
zeros. The two storages sum in different orders, so their iterates
agree to rounding, not bit for bit; each is deterministic for a seed.

The reference solver is FISTA with backtracking and momentum restarts. Its
step constant starts at the one-pass bound c * max(max_i ||a_i||^2,
max_j ||a_j||^2) / n + 2 mu_p, at most the smoothness constant, and the
backtracking doubles it where needed, so no power iteration runs. An
iteration forms one A x per prox point tried and one A'g in the evaluation of
the iterate, plus one A'g at the extrapolated point y unless y is the
iterate, as after a restart or a step from t = 1 (beta = 0); A y is the same
combination of the last two products A x.

The full-vector solvers (asgd, proxsvrg) and the reference solver make one
penalty prox call per step. For group-L2 it shrinks every block of one size
with a few numpy calls, over the size classes of the working design's
partition. Only a solve that screens computes the per-block column bounds
Omega_j^D(A_j), once, when it starts.
"""

import dataclasses
import functools
import itertools
import math
import time

import numpy as np

from .duality import (ActiveSet, DualPoint, _dual_value, dual_point, evaluate, safe_radius,
                      screen)
from .problem import (BlockPartition, DegenerateProblemError, _check_x, _gather_rows,
                      lipschitz_constants, primal_objective, smooth_gradient, smooth_value)


class DivergenceError(RuntimeError):
    """Objective became non-finite during a solve."""

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
    batch_size to min(10, n). theory_mode overrides the batch size with
    ceil(T / L) and pins eta = 1/(16 L); the matching inner budget
    m = ceil(65 q L / mu) additionally needs the strong convexity constant,
    supplied through mu_strong. The block partition and the perturbation
    mu_p belong to the ProblemSpec a solver is given.
    """

    solver: str = "adsgd"
    eta: float = None
    m: int = None
    batch_size: int = None
    max_outer: int = 200
    gap_tol: float = 1e-6
    seed: int = 0
    theory_mode: bool = False
    mu_strong: float = None
    screen_every: int = 1
    keep_iterates: bool = False


@dataclasses.dataclass
class TraceRecord:
    """One row per evaluated iterate, the last row being the one a solve stops at.

    objective and gap are P(x) and the full-problem duality gap at the row's
    iterate: the dual point is scaled over all q blocks, so the gap bounds
    the suboptimality whatever screening dropped. The other fields describe
    the epoch that produced the iterate: active_blocks and active_features
    count the safe set it ran within, radius is the safe radius of the screen
    that preceded it (inf where none ran) and working_blocks the blocks its
    steps updated, 0 on the starting row. restart names the iterate:
    "start" on the starting row, then "average" or "last", the epoch's
    average or its last inner iterate, whichever had the smaller gap, or
    "refined" where a screening solve returns the refined point that its
    last row certifies. refined_dual is True where the gap comes from the
    dual point of x_hat's support refinement rather than x_hat's own. The
    reference solver's rows after the first are "last".
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


@dataclasses.dataclass
class SolveReport:
    """Result of one solver run. dual is the dual point of the last trace row's
    gap, so P(x_final) - D(dual) is gap."""

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


def inner_budget(m, q_k, q):
    """ceil(m * q_k / q), floored at one so screening never starves the inner loop."""
    return max(1, -((-m * q_k) // q))


def _resolve(spec, config):
    """(eta, m, batch_size) of config on spec; only the defaults that need the
    smoothness bounds compute lipschitz_constants."""
    n = spec.dataset.n
    if config.theory_mode and config.eta is not None:
        raise ValueError("eta and theory_mode are mutually exclusive")
    consts = (lipschitz_constants(spec) if config.eta is None or config.theory_mode
              else None)
    eta = config.eta if config.eta is not None else 1.0 / (16.0 * consts.L)
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    m = config.m if config.m is not None else n
    if config.theory_mode and config.mu_strong is not None:
        if config.mu_strong <= 0:
            raise ValueError("mu_strong must be positive")
        m = math.ceil(65.0 * spec.partition.q * consts.L / config.mu_strong)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    batch = config.batch_size if config.batch_size is not None else min(10, n)
    if config.theory_mode:
        batch = min(n, max(1, math.ceil(consts.T / consts.L)))
    if not 1 <= batch <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch}")
    if not 0 < config.gap_tol < math.inf:
        raise ValueError(f"gap_tol must be positive and finite, got {config.gap_tol}")
    if config.max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if config.screen_every < 0:
        raise ValueError("screen_every must be nonnegative")
    return float(eta), int(m), int(batch)


# A working design at least this dense, stored entries over n * p cells, is
# also kept as an (n, p) array, and its steps take two matrix products in
# place of the entry gathers and bincounts. Time of dense over sparse storage
# for the same solves (same draws, 4 outer iterations, median of 4 seeds) on
# a 1000 x 1000 Lasso with 50 blocks, for adsgd / mrbcd / proxsvrg, on one
# core of a 2-core x86-64 host with OpenBLAS: 1.14 / 1.20 / 1.24 at density
# 0.03, 1.03 / 0.81 / 0.91 at 0.06, 0.76 / 0.59 / 0.76 at 0.10 and 0.68 /
# 0.47 / 0.48 at 0.20. The crossover lies near 0.04-0.06; 0.1 keeps every
# design that the dense storage would slow on the sparse one.
_RHO = 0.1


def _is_dense(nnz, n, p):
    """Whether a design of nnz stored entries over n rows and p columns takes
    the dense storage: the one test of the engine and the public gradients."""
    return nnz >= _RHO * n * p


@dataclasses.dataclass
class _Working:
    """The design restricted to the active features, its columns numbered block by block.

    Working column p holds feature features[p]: the columns list the active
    blocks in increasing id, and each block's features in increasing order,
    so block ib of the layout, block active.blocks[ib], is the columns
    layout.offsets[ib]:layout.offsets[ib + 1]. entries holds (cols, vals,
    row_of) of every stored entry in CSR order, cols as intp, and row r's
    entries are [indptr[r], indptr[r + 1]). While every block is active and
    the partition is contiguous, layout is spec.partition itself.
    """

    active: ActiveSet
    features: np.ndarray
    indptr: np.ndarray
    entries: tuple
    layout: BlockPartition

    @functools.cached_property
    def dense(self):
        """The design as an (n, p) float64 array in the same column numbering,
        where it stores at least _RHO * n * p entries over its p columns, else
        None. Built when first read: the engine reads it for the designs its
        epochs run on, not for the safe set's design it only cuts from."""
        (cols, vals, row_of), n, p = self.entries, self.indptr.size - 1, self.features.size
        if not _is_dense(vals.size, n, p):
            return None
        out = np.zeros((n, p))
        out[row_of, cols] = vals
        return out


def _compact(spec, active, prev=None):
    """Working design of `active`, cut down from prev's or from the dataset's.

    active.blocks must be a subset of prev's. The dataset's design is
    renumbered block by block once, which leaves a contiguous partition's
    columns as they are. Dropping entries keeps every row's survivors in
    their original CSR order, so each row sum over them, and each block sum,
    adds the same products in the same order. A cut keeps the surviving
    columns in their order, so they stay block by block, and its layout comes
    from the kept blocks' sizes. Each design, the dataset's and every cut,
    has a dense twin when it is at least _RHO dense (_Working.dense).
    """
    if prev is None:
        a, part = spec.dataset.A, spec.partition
        cols, layout = a.indices.astype(np.intp), part
        if np.any(np.diff(part.order) < 0):  # scattered blocks: number them in order
            rank = np.empty(part.d, dtype=np.intp)
            rank[part.order] = np.arange(part.d)
            cols, layout = rank[cols], BlockPartition.from_sizes(part.sizes)
        indptr = a.indptr.astype(np.intp)
        entries = (cols, a.data, np.repeat(np.arange(a.shape[0]), np.diff(indptr)))
        blocks, features = np.arange(part.q), part.order
    else:
        indptr, entries, layout = prev.indptr, prev.entries, prev.layout
        blocks, features = prev.active.blocks, prev.features
    if active.n_blocks < blocks.size:
        kept = np.zeros(spec.partition.q, dtype=bool)
        kept[active.blocks] = True
        kept = kept[blocks]
        alive = np.repeat(kept, layout.sizes)
        cols, vals, row_of = entries
        keep = np.flatnonzero(alive[cols])  # takes by index beat three boolean masks
        entries = ((np.cumsum(alive) - 1)[cols.take(keep)], vals.take(keep),
                   row_of.take(keep))
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(entries[2], minlength=indptr.size - 1), out=indptr[1:])
        features = features[alive]
        layout = BlockPartition.from_sizes(layout.sizes[kept])
    return _Working(active=active, features=features, indptr=indptr, entries=entries,
                    layout=layout)


# Stored entries one chunk of an epoch plan may gather. Planning a chunk holds
# about 40 bytes per entry at its peak, so this keeps a chunk under a
# megabyte, and at batch 10 it spreads the per-chunk calls over 12-40 steps on
# rows of 40-130 entries. Twice as many made solves at most 3% faster. A
# dense design's chunk of the same steps gathers b * p cells a step; its
# longest row holds at least _RHO * p entries, so a chunk holds at most
# _CHUNK_ENTRIES / _RHO cells.
_CHUNK_ENTRIES = 1 << 14


def _plan(work, y, g_snap, c, batches=None, ibs=None):
    """The c steps of one chunk, gathered and block-selected at once.

    batches is a (c, b) array of sampled rows, or None when every step takes
    all n rows; ibs holds the c sampled block ranks in work.active, which
    number the blocks of work.layout, or is None for full-vector steps. One
    _gather_rows call fetches the rows of every step, and one mask over the
    chunk's entries selects each step's block. Returns (fwd, bwd, steps):
    fwd is (cols, vals, row_id) of the chunk's entries, row_id counting rows
    within each step's batch; bwd is (pos, vals, row_id) of the entries the
    gradients sum, pos being each one's place in its step's block, or fwd
    itself for full-vector steps, pos then being the working column. steps
    iterates once over one tuple (s, e, y_t, g_t, bs, be, lo, hi) per step,
    zipped from plain Python int lists but for y_t and g_t: the step's
    entries are fwd[k][s:e], y_t and g_t hold y and the snapshot's
    derivatives on its batch (g_t None without variance reduction), it sums
    bwd[k][bs:be], and it updates the working columns lo:hi. A step's entries
    lie in the order a gather of its batch alone would give them, so its sums
    add the same terms in the same order. A full batch passes y, g_snap and
    work.entries themselves. The tuples and row views are made as the steps
    are taken, so a chunk of many short steps holds few Python objects.
    """
    if batches is None:
        fwd = work.entries
        s, e = [0] * c, [fwd[0].size] * c
        ys, gs = itertools.repeat(y, c), itertools.repeat(g_snap, c)
    else:
        cols, vals, row_id, starts = _gather_rows(work.indptr, work.entries, batches)
        fwd, ends = (cols, vals, row_id), starts.tolist()
        s, e = ends[:-1], ends[1:]
        ys = y[batches]  # iterated row by row
        gs = itertools.repeat(None, c) if g_snap is None else g_snap[batches]
    cols, vals, row_id = fwd
    if ibs is None:
        bwd, bs, be = fwd, s, e
        lo, hi = [0] * c, [work.features.size] * c
    else:
        layout = work.layout
        if batches is None:  # all entries again for every step, in step order
            sel = np.flatnonzero(layout.block_of[cols] == ibs[:, None])
            cuts = np.searchsorted(sel, np.arange(c + 1) * cols.size).tolist()
            sel %= cols.size
        else:
            sel = np.flatnonzero(layout.block_of[cols] == np.repeat(ibs, np.diff(starts)))
            cuts = np.searchsorted(sel, starts).tolist()
        bwd = (layout.slot[cols[sel]], vals[sel], row_id[sel])
        bs, be = cuts[:-1], cuts[1:]
        lo, hi = layout.offsets[ibs].tolist(), layout.offsets[ibs + 1].tolist()
    return fwd, bwd, zip(s, e, ys, gs, bs, be, lo, hi)


def step_gradient(loss, x, cols, vals, row_id, y, g_ref, pos, bvals, brow, lo, hi,
                  mu=None, x_ref=None, mu_p=0.0):
    """Mini-batch gradient of the smooth part on the working columns lo:hi of x.

    The one gradient kernel, called positionally with one step of _plan:
    (cols, vals, row_id) are its batch's entries and (pos, bvals, brow) the
    entries it sums, pos counted from lo; y and g_ref hold y and the
    snapshot's derivatives on the batch, g_ref None without variance
    reduction. With variance reduction mu holds the snapshot's smooth
    gradient and x_ref the snapshot; without it mu is None and x_ref is the
    anchor; both are in working columns, as x is. Returns, as float64, the
    gradient on the columns lo:hi, a block or all of them:

        A_b'(f'(A_b x) - g_ref) / b  [+ mu]  + 2 mu_p (x - x_ref)
    """
    b = y.size
    gb = loss.deriv(np.bincount(row_id, weights=vals * x[cols], minlength=b), y)
    coef = (gb - g_ref) / b if g_ref is not None else gb / b
    grad = np.bincount(pos, weights=bvals * coef[brow], minlength=hi - lo)
    grad = grad.astype(np.float64, copy=False)  # a sum over no entries comes back int64
    if mu is not None:
        grad += mu[lo:hi]
    if mu_p > 0:
        grad += 2.0 * mu_p * (x[lo:hi] - x_ref[lo:hi])
    return grad


def _plan_dense(work, y, g_snap, c, batches=None, ibs=None):
    """The c steps of one chunk on work.dense, as _plan draws them.

    One fancy index gathers the rows of every step as a (c, b, p) array, or,
    when every step takes all n rows, each step takes work.dense, y and g_snap
    themselves. Returns an iterator of one (x_b, y_t, g_t, lo, hi) per step:
    the step's rows of the design, y and the snapshot's derivatives on its
    batch (g_t None without variance reduction), and the working columns
    lo:hi it updates, a block's for block draws ibs, else all of them.
    """
    if batches is None:
        xs, ys = itertools.repeat(work.dense, c), itertools.repeat(y, c)
        gs = itertools.repeat(g_snap, c)
    else:
        xs, ys = work.dense[batches], y[batches]  # iterated step by step
        gs = itertools.repeat(None, c) if g_snap is None else g_snap[batches]
    if ibs is None:
        lo, hi = [0] * c, [work.features.size] * c
    else:
        lo, hi = work.layout.offsets[ibs].tolist(), work.layout.offsets[ibs + 1].tolist()
    return zip(xs, ys, gs, lo, hi)


def dense_step_gradient(loss, x, x_b, y, g_ref, lo, hi, mu=None, x_ref=None, mu_p=0.0):
    """step_gradient on a dense working design, called positionally with one
    step of _plan_dense: x_b holds the batch's rows over every working column.

    The same gradient on the columns lo:hi, from two matrix products:

        A_b'(f'(A_b x) - g_ref) / b  [+ mu]  + 2 mu_p (x - x_ref)
    """
    b = float(y.size)  # a float divisor skips an int-to-float cast per call
    gb = loss.deriv(x_b.dot(x), y)  # ndarray.dot skips the matmul ufunc's dispatch
    coef = (gb - g_ref) / b if g_ref is not None else gb / b
    grad = coef.dot(x_b[:, lo:hi])
    if mu is not None:
        grad += mu[lo:hi]
    if mu_p > 0:
        grad += 2.0 * mu_p * (x[lo:hi] - x_ref[lo:hi])
    return grad


def _check_batch(spec, batch, block):
    batch = np.asarray(batch, dtype=np.intp).ravel()
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if batch.min() < 0 or batch.max() >= spec.dataset.n:
        raise ValueError("batch indices out of range")
    if not 0 <= block < spec.partition.q:
        raise ValueError(f"block {block} out of range [0, {spec.partition.q})")
    return batch


def _block_step(spec, x, batch, block, x_tilde=None, mu=None):
    """One step's gradient on `block` of the whole design, in feature ids, from
    the kernel the engine runs on that design's storage.

    Only the batch's rows are gathered, in the engine's block-major column
    numbering, and the storage follows _is_dense on the whole design, as
    _Working.dense does, without building its dense twin. With variance reduction
    x_tilde is the snapshot, whose derivatives are formed on the batch alone,
    and mu its smooth gradient; without it the anchor is the reference point.
    """
    ds, part = spec.dataset, spec.partition
    rows = ds.A[batch]  # CSR rows in batch order, repeats kept, each in CSR order
    f = part.order  # working column p holds feature f[p]
    lo, hi = int(part.offsets[block]), int(part.offsets[block + 1])
    y_b = ds.y[batch]
    g_b = None if x_tilde is None else spec.loss.deriv(rows @ x_tilde, y_b)
    x_ref = spec.anchor if x_tilde is None else x_tilde
    tail = (None if mu is None else mu[f], x_ref[f], spec.mu_p)
    if _is_dense(ds.A.nnz, ds.n, ds.d):
        return dense_step_gradient(spec.loss, x[f], rows.toarray()[:, f], y_b, g_b, lo,
                                   hi, *tail)
    feats, vals = rows.indices, rows.data
    row_id = np.repeat(np.arange(batch.size), np.diff(rows.indptr))
    sel = np.flatnonzero(part.block_of[feats] == block)
    cols = part.offsets[part.block_of[feats]] + part.slot[feats]
    return step_gradient(spec.loss, x[f], cols, vals, row_id, y_b, g_b,
                         part.slot[feats[sel]], vals[sel], row_id[sel], lo, hi, *tail)


def partial_gradient(spec, x, batch, block):
    """Mini-batch gradient of the smooth part restricted to one block.

    batch may contain repeated sample indices; each occurrence contributes to
    the average. The perturbation term enters in full (it has no sample index).
    """
    x = _check_x(spec, x)
    batch = _check_batch(spec, batch, block)
    return _block_step(spec, x, batch, block)


def vr_gradient(spec, x, x_tilde, mu_tilde, batch, block):
    """Variance-reduced block gradient: grad_I(x) - grad_I(x_tilde) + mu_tilde on the block.

    mu_tilde is the full-length smooth gradient at the snapshot; averaging the
    output over every singleton batch reproduces the exact block gradient.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    if mu_tilde.shape != (spec.dataset.d,):
        raise ValueError("mu_tilde must have length d")
    x, x_tilde = _check_x(spec, x), _check_x(spec, x_tilde)
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


def _working_blocks(spec, active, x_hat, dp):
    """Ids of the active blocks where x_hat is nonzero or whose correlation in
    dp (scaled over all q blocks) is at least _TAU * lam, in increasing order."""
    hot = dp.correlations >= _TAU * spec.lam
    hot[spec.partition.block_of[np.flatnonzero(x_hat)]] = True
    return active.blocks[hot[active.blocks]]


def _restart(spec, full, wfeat, x_avg, x_last):
    """(x, evaluation, label) of the epoch's next iterate, from its average and
    its last inner iterate, given in the working columns wfeat.

    Both are evaluated on the full problem, and the last iterate wins only
    with a finite gap strictly below the average's, or where the average's
    gap is not finite: a tie keeps the average, and a non-finite gap never
    beats a finite one.
    """
    out = []
    for v in (x_avg, x_last):
        x = np.zeros(spec.dataset.d)
        x[wfeat] = v
        out.append((x, evaluate(spec, x, spec.dataset.A @ x, full)))
    (x_a, ev_a), (x_l, ev_l) = out
    if np.isfinite(ev_l[3]) and not ev_a[3] <= ev_l[3]:
        return x_l, ev_l, "last"
    return x_a, ev_a, "average"


def _model(spec, x):
    """What a refinement of x fixes: its signs for L1, its nonzero pattern for group-L2."""
    return np.sign(x) if spec.reg.name == "l1" else x != 0.0


def _refined_certificate(spec, x, full):
    """(x_r, P(x_r), dual point, dual value) of the refinement of x on the
    full problem, or None where _refine_support finds no point within
    _REFINE_STEPS Newton steps whose residual reaches _REFINE_TOL * lam."""
    x_r = _refine_support(spec, x, _REFINE_TOL * spec.lam, _REFINE_STEPS)
    if x_r is None:
        return None
    z = spec.dataset.A @ x_r
    dp = dual_point(spec, spec.loss.deriv(z, spec.dataset.y), full, x=x_r)
    return x_r, primal_objective(spec, x_r, z), dp, _dual_value(spec, dp, full)


def _engine(spec, config, *, block_sampling, variance_reduction, screening):
    ds = spec.dataset
    n, d = ds.n, ds.d
    loss, reg, lam, mu_p = spec.loss, spec.reg, spec.lam, spec.mu_p
    # lipschitz_constants rejects this design too, but runs only for defaults
    if not ds.A.data.any():
        raise DegenerateProblemError("design matrix is all zeros")
    eta, m, batch_size = _resolve(spec, config)
    kernel, dense_kernel = step_gradient, dense_step_gradient
    prox, thresh = reg.block_prox, eta * lam
    rng = np.random.Generator(np.random.Philox(config.seed))
    A, y, q, block_of = ds.A, ds.y, spec.partition.q, spec.partition.block_of
    # batch_size == n is the degenerate deterministic case: the batch is the
    # whole dataset (no draw), otherwise sample with replacement
    sampled = batch_size < n
    screens = screening and config.screen_every > 0

    full = active = ActiveSet.full(spec, bounds=screens)
    safe_work = work = _compact(spec, active)
    x_hat = np.zeros(d)
    trace, active_history = [], []
    iterates = [] if config.keep_iterates else None
    coord_updates = 0
    converged = False
    k = 0
    radius, width = math.inf, 0
    model, slot = None, (None, None)  # the last iterate's model; the last refinement's
    start = time.perf_counter()
    evaluation, restart = evaluate(spec, x_hat, A @ x_hat, full), "start"

    while True:
        obj, g_snap, dp, gap = evaluation
        mu_full, cert, refined = dp.gradient, dp, False
        if screens and np.isfinite(obj):
            # Once screening has identified the model, the safe set holding just
            # the blocks where x_hat is nonzero and the model unchanged since the
            # last iterate, the refinement's dual point certifies x_hat where its
            # gap is smaller. The snapshot keeps x_hat's own derivatives and
            # gradient. A model of k unknowns, the nonzeros for L1 and the safe
            # set's features for group-L2, is refined only with at most n of
            # them and within _REFINE_COST; the slot keeps the last model's
            # refinement while that model holds.
            prev, model = model, _model(spec, x_hat)
            identified = (prev is not None and np.array_equal(model, prev)
                          and np.array_equal(np.unique(block_of[np.flatnonzero(x_hat)]),
                                             active.blocks))
            unknowns = (np.count_nonzero(x_hat) if reg.name == "l1"
                        else active.n_features)
            if (identified and gap > config.gap_tol and unknowns <= n
                    and n * unknowns * unknowns <= _REFINE_COST * A.nnz):
                key = model.tobytes()
                if slot[0] != key:
                    slot = key, _refined_certificate(spec, x_hat, full)
                ref = slot[1]
                if ref is not None and obj - ref[3] < gap:
                    cert, gap, refined = ref[2], obj - ref[3], True
                    if gap <= config.gap_tol and ref[1] <= obj:  # return the better point
                        x_hat, obj, gap = ref[0], ref[1], ref[1] - ref[3]
                        restart = "refined"
        trace.append(TraceRecord(outer_iter=k, elapsed_s=time.perf_counter() - start,
                                 objective=obj, gap=float(gap),
                                 active_blocks=active.n_blocks,
                                 active_features=active.n_features,
                                 radius=radius, working_blocks=width, restart=restart,
                                 refined_dual=refined))
        active_history.append(active.blocks.copy())
        if iterates is not None:
            iterates.append(x_hat.copy())
        if not np.isfinite(obj):
            raise DivergenceError(f"objective became non-finite at outer iteration {k}",
                                  iteration=k)
        if gap <= config.gap_tol:
            converged = True
            break
        if k >= config.max_outer:
            break
        k += 1

        radius = math.inf
        if screens and (k - 1) % config.screen_every == 0:
            radius = safe_radius(spec, gap)
            new_active = screen(spec, cert, radius, active)
            if new_active.n_blocks < active.n_blocks:
                dropped = np.setdiff1d(active.features, new_active.features,
                                       assume_unique=True)
                active = new_active
                if np.any(x_hat[dropped] != 0.0):
                    x_hat[dropped] = 0.0
                    if variance_reduction:
                        # truncation moved the snapshot, so refresh its derivatives and
                        # gradient to keep the variance correction unbiased on the subproblem
                        g_snap = loss.deriv(A @ x_hat, y)
                        mu_full = smooth_gradient(spec, x_hat, g_snap)
        width = 0
        if active.n_blocks == 0:  # empty subproblem: x_hat = 0, evaluated to certify it
            evaluation, restart = evaluate(spec, x_hat, A @ x_hat, full), "average"
            continue
        if safe_work.active is not active:
            safe_work = _compact(spec, active, safe_work)
        # A screening solver's epoch runs on the working set, cut from the safe
        # set's design. x_hat is zero off it, and so are the epoch's average and
        # last iterate. An empty one (x_hat = 0, no safe block near lam) falls
        # back to the safe set.
        wb = _working_blocks(spec, active, x_hat, cert) if screens else active.blocks
        if wb.size in (0, active.n_blocks):
            work = safe_work
        elif not np.array_equal(wb, work.active.blocks):
            work = _compact(spec, active.keep(wb), safe_work)
        width = work.active.n_blocks

        m_k = inner_budget(m, width, q)
        # The inner loop runs in working columns: column p stands for feature
        # wfeat[p], block by block. Features off the working set hold exact
        # zeros, so leaving them out drops only the terms vals * 0.0 from every
        # row sum.
        wfeat = work.features
        x_tilde = x_hat[wfeat]
        x_cur = x_tilde.copy()
        x_sum = np.zeros(wfeat.size)
        if variance_reduction:
            mu, x_ref = mu_full[wfeat], x_tilde
        else:
            mu, x_ref = None, spec.anchor[wfeat]
        g_ref = g_snap if variance_reduction else None
        classes = None if block_sampling else work.layout.classes

        # Plan the epoch a chunk of steps at a time (see the module docstring):
        # one draw per chunk, with its bounds in step order, never past step m_k.
        per_step = (batch_size * int(np.diff(work.indptr).max()) if sampled
                    else work.entries[0].size)
        chunk = max(1, _CHUNK_ENTRIES // max(1, per_step))
        highs = np.array([n] * (batch_size if sampled else 0) + [width] * block_sampling)
        for done in range(0, m_k, chunk):
            c = min(chunk, m_k - done)
            draws = (rng.integers(0, np.tile(highs, c)).reshape(c, -1) if highs.size
                     else None)
            batches = draws[:, :batch_size] if sampled else None
            ibs = draws[:, -1] if block_sampling else None
            # each step updates its columns lo:hi of x_cur in place
            if work.dense is not None:
                for x_b, y_t, g_t, lo, hi in _plan_dense(work, y, g_ref, c, batches, ibs):
                    grad = dense_kernel(loss, x_cur, x_b, y_t, g_t, lo, hi, mu, x_ref, mu_p)
                    grad *= eta
                    v = x_cur[lo:hi]
                    v -= grad
                    prox(v, thresh, classes, out=v)
                    x_sum += x_cur
                    coord_updates += hi - lo
                del x_b  # release this chunk before the next is gathered
                continue
            (cols, vals, rows), (pos, bvals, brows), steps = _plan(work, y, g_ref, c,
                                                                   batches, ibs)
            for s, e, y_t, g_t, bs, be, lo, hi in steps:
                grad = kernel(loss, x_cur, cols[s:e], vals[s:e], rows[s:e], y_t, g_t,
                              pos[bs:be], bvals[bs:be], brows[bs:be], lo, hi, mu, x_ref,
                              mu_p)
                grad *= eta
                v = x_cur[lo:hi]
                v -= grad
                prox(v, thresh, classes, out=v)
                x_sum += x_cur
                coord_updates += hi - lo
            # release this chunk before the next is planned
            del cols, vals, rows, pos, bvals, brows, steps
        x_sum /= m_k
        x_hat, evaluation, restart = _restart(spec, full, wfeat, x_sum, x_cur)

    return SolveReport(
        x_final=x_hat.copy(), trace=trace, converged=converged, outer_iters=k,
        wall_time=time.perf_counter() - start, objective=trace[-1].objective,
        gap=trace[-1].gap, coord_updates=coord_updates, dual=cert,
        iterates=iterates, active_history=active_history,
    )


def adsgd_solve(spec, config=None):
    """Accelerated doubly stochastic gradient descent with gap-safe screening."""
    config = config or SolverConfig(solver="adsgd")
    return _engine(spec, config, block_sampling=True, variance_reduction=True,
                   screening=True)


def mrbcd_solve(spec, config=None):
    """Mini-batch randomized block coordinate descent: the screened solver minus screening."""
    config = config or SolverConfig(solver="mrbcd")
    return _engine(spec, config, block_sampling=True, variance_reduction=True,
                   screening=False)


def asgd_solve(spec, config=None):
    """Naive screened variant: plain mini-batch proximal steps over all active coordinates."""
    config = config or SolverConfig(solver="asgd")
    return _engine(spec, config, block_sampling=False, variance_reduction=False,
                   screening=True)


def proxsvrg_solve(spec, config=None):
    """Proximal stochastic variance-reduced gradient over the full coordinate vector."""
    config = config or SolverConfig(solver="proxsvrg")
    return _engine(spec, config, block_sampling=False, variance_reduction=True,
                   screening=False)


def _power_sigma(mat, iters, tol):
    """Largest singular value by power iteration with a fixed start vector."""
    k = mat.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    u = mat @ v
    mat_t = mat.T
    sigma = 0.0
    for _ in range(iters):
        w = mat_t @ u
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        u = mat @ v  # gives this iteration's sigma and the next one's A'u
        new_sigma = float(np.linalg.norm(u))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1.0):
            return new_sigma
        sigma = new_sigma
    return sigma


def _spectral_bound(spec):
    """Smoothness bound for full-gradient steps: c * sigma_max(A)^2 / n + 2 mu_p.

    The power iteration approaches sigma_max(A) from below. No solver calls
    this; the benchmark, the demos and the tests take step sizes from it.
    """
    sigma = _power_sigma(spec.dataset.A, iters=60, tol=1e-9)
    base = spec.loss.curvature * sigma ** 2 / spec.dataset.n
    return max(base, 1e-12) + 2.0 * spec.mu_p


def _one_pass_bound(spec):
    """c * max(max_i ||a_i||^2, max_j ||a_j||^2) / n + 2 mu_p, from one pass over A.

    No row or column of A is longer than sigma_max(A), so this is at most the
    smoothness constant c * sigma_max(A)^2 / n + 2 mu_p; and since
    sigma_max(A)^2 <= ||A||_F^2, it is at least 1/min(n, d) of it. The
    reference solver starts its backtracking here.
    """
    ds = spec.dataset
    rows = np.repeat(np.arange(ds.n), np.diff(ds.A.indptr))
    row_sq = np.bincount(rows, weights=ds.A.data ** 2, minlength=ds.n)
    top = max(float(row_sq.max()), float(ds.column_norms().max()) ** 2)
    base = spec.loss.curvature * top / ds.n
    return max(base, 1e-12) + 2.0 * spec.mu_p


# A screening solve accepts a refinement once the residual of its Newton
# steps, the largest entry of the stationarity system, falls to this fraction
# of lam; a model that holds at the optimum reaches below 1e-13 in a few steps.
_REFINE_TOL = 1e-9

# Newton steps a screening solve's refinement may take. Along adsgd and asgd
# runs on the benchmark workloads and the tests' instances, every refinement
# that reached _REFINE_TOL took at most 4 steps; one on a wrong model runs to
# the cap, so a lower cap bounds what a failed refinement costs.
_REFINE_STEPS = 10

# A screening solve refines a model of k unknowns only where n * k^2, the
# multiply-adds of one Newton step's Hessian, is at most this many times the
# design's stored entries, which one evaluation reads twice. One Newton step
# over one full evaluation (logistic loss, group-L2, on one core of a 2-core
# x86-64 host with OpenBLAS), for n k^2 / nnz = 2 / 25 / 225 on a 500 x 2000
# design at 20% density: 0.32 / 1.0 / 6.2; at 9 / 100 / 903 on 1000 x 5000 at
# 2%: 0.56 / 2.1 / 10.5; at 2 / 25 / 225 on a dense 2000 x 400: 0.28 / 1.0 /
# 4.1. At the bound a step costs two to three evaluations, while an adsgd
# epoch costs 7 to 38 of them on the benchmark workloads (median epoch over
# one evaluation: 1.20 / 0.171 ms on logistic-group, 6.00 / 0.160 ms on
# lasso-tall, 6.27 / 0.341 ms on lasso-sparse). A refinement that converges,
# in at most 4 steps, so costs about an epoch or less, and one on a wrong model
# at most _REFINE_STEPS steps. The benchmark's refinements lie at 9
# (logistic-group), 0.6 (lasso-tall) and 0.5 (lasso-sparse).
_REFINE_COST = 100.0


def _refine_support(spec, x, tol=None, max_steps=60):
    """Solve the smooth stationarity system on the model of x; the point, or None.

    The model is the support of x with its signs for L1, and the features of
    the blocks where x is nonzero for group-L2. On it the penalty is smooth,
    lam * sign(x_i) on an L1 coordinate and lam * w_j / ||w_j|| on a group-L2
    block, so the system A_S' f'(A_S w) / n + 2 mu_p (w - x0_S) + lam grad
    Omega(w) = 0 has a root wherever the model is the optimum's. Squared loss
    with L1 solves it as one linear system; every other case takes at most
    max_steps Newton steps from x and returns the point of smallest residual,
    or the last point where a step's system is singular. Returns None, and
    never raises, for an empty support, a system no solver can take, a
    non-finite value or an L1 sign change; with a tol, also where the Newton
    residual never falls to tol, as where a group-L2 block collapses toward
    zero, which the model cannot express.
    """
    ds, part, l1 = spec.dataset, spec.partition, spec.reg.name == "l1"
    if l1:
        support = np.flatnonzero(x != 0.0)
    else:
        nonzero = np.zeros(part.q, dtype=bool)
        nonzero[part.block_of[x != 0.0]] = True
        support = np.flatnonzero(nonzero[part.block_of])
    if support.size == 0:
        return None
    signs = np.sign(x[support])
    # column-major: the BLAS products below round differently on a row-major copy
    a_s = ds.A[:, support].toarray(order="F")
    n, k, loss, lam = ds.n, support.size, spec.loss, spec.lam
    mu_p = spec.mu_p
    anchor_s = spec.anchor[support]
    ridge = 2.0 * mu_p * np.eye(k)
    if not l1:  # each coordinate's block, numbered 0.., and the pairs within blocks
        _, bid = np.unique(part.block_of[support], return_inverse=True)
        members = [np.flatnonzero(bid == b) for b in range(bid.max() + 1)]
        pi = np.concatenate([np.repeat(m, m.size) for m in members])
        pj = np.concatenate([np.tile(m, m.size) for m in members])
        diag = pi == pj
    with np.errstate(all="ignore"):
        if l1 and loss.name == "squared":
            h = a_s.T @ a_s / n + ridge
            rhs = a_s.T @ ds.y / n - lam * signs + 2.0 * mu_p * anchor_s
            try:
                w = np.linalg.solve(h, rhs)
            except np.linalg.LinAlgError:
                try:
                    w = np.linalg.lstsq(h, rhs, rcond=None)[0]
                except np.linalg.LinAlgError:
                    return None
        else:
            best = (math.inf, x[support].copy())  # (residual, point) of the best point
            w = best[1]
            for _ in range(max_steps):
                z = a_s @ w
                if not l1:  # each coordinate's block norm, and lam * w / ||w_j||
                    nrm = np.sqrt(np.bincount(bid, weights=w * w))[bid]
                    unit = w / nrm
                res = a_s.T @ loss.deriv(z, ds.y) / n + 2.0 * mu_p * (w - anchor_s) \
                    + (lam * signs if l1 else lam * unit)
                rnorm = float(np.max(np.abs(res)))
                if rnorm < best[0]:
                    best = (rnorm, w)
                if rnorm < 1e-13:
                    break
                h = (a_s * loss.second_deriv(z, ds.y)[:, None]).T @ a_s / n + ridge \
                    + 1e-13 * np.eye(k)
                if not l1:  # lam (I - u u') / ||w_j|| within each block
                    h[pi, pj] += (diag - unit[pi] * unit[pj]) * (lam / nrm)[pi]
                try:
                    step = np.linalg.solve(h, res)
                except np.linalg.LinAlgError:
                    best = (rnorm, w)  # the point whose system is singular
                    break
                w = w - step
                if not np.all(np.isfinite(w)):
                    break
            w = best[1]
            if tol is not None and not best[0] <= tol:
                return None
    if not np.all(np.isfinite(w)) or (l1 and np.any(np.sign(w) != signs)):
        return None
    out = np.zeros(ds.d)
    out[support] = w
    return out


def reference_solve(spec, tol=1e-10, max_iter=50000):
    """Deterministic accelerated proximal gradient oracle.

    Full-gradient steps with backtracking, momentum restarts, and a final
    support-restricted refinement so the returned dual point resolves
    equicorrelation membership well below the stopping tolerance. Raises
    ConvergenceError (carrying the best gap seen) if max_iter is exhausted.

    The backtracking constant starts at _one_pass_bound, which is at most the
    smoothness constant, and doubles at every failed sufficient-decrease
    test. Each iteration forms one A x per prox point tried and one A'g in
    the evaluation of x, plus one A'g at the extrapolated point y when y is
    not x (a restart, and a step from t = 1, where beta = 0, put y on x);
    A y = A xn + beta (A xn - A x) costs no product. A support refinement
    that returns a point forms one more A x.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    ds = spec.dataset
    A, y, n, d = ds.A, ds.y, ds.n, ds.d
    reg, lam = spec.reg, spec.lam
    part = spec.partition
    active = ActiveSet.full(spec, bounds=False)
    lb = _one_pass_bound(spec)

    x = np.zeros(d)
    zx = np.zeros(n)
    yv = x
    zy = zx
    t_mom = 1.0
    best_gap = np.inf
    trace = []
    start = time.perf_counter()
    it = 0
    converged = False

    while True:
        obj, _, dp, gap = evaluate(spec, x, zx, active)
        best_gap = min(best_gap, gap)
        if it % 50 == 0 or gap <= tol:
            trace.append(TraceRecord(outer_iter=it, elapsed_s=time.perf_counter() - start,
                                     objective=obj, gap=float(gap),
                                     active_blocks=active.n_blocks,
                                     active_features=active.n_features,
                                     working_blocks=active.n_blocks if it else 0,
                                     restart="last" if it else "start"))
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
        # already formed
        if yv is x:
            grad = dp.gradient
        else:
            grad = smooth_gradient(spec, yv, spec.loss.deriv(zy, y))
        fy = smooth_value(spec, yv, zy)
        while True:
            xn = reg.block_prox(yv - grad / lb, lam / lb, part.classes)
            zn = A @ xn
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
        x, zx = xn, zn
        t_mom = t_new

    refined = _refine_support(spec, x) if spec.reg.name == "l1" else None
    if refined is not None:
        obj_r, _, dp_r, gap_r = evaluate(spec, refined, A @ refined, active)
        if np.isfinite(gap_r) and gap_r < gap:
            x, obj, dp, gap = refined, obj_r, dp_r, gap_r
    trace.append(TraceRecord(outer_iter=it, elapsed_s=time.perf_counter() - start,
                             objective=obj, gap=float(gap),
                             active_blocks=active.n_blocks,
                             active_features=active.n_features,
                             working_blocks=active.n_blocks if it else 0,
                             restart="last" if it else "start"))
    return SolveReport(x_final=x.copy(), trace=trace, converged=converged,
                       outer_iters=it, wall_time=time.perf_counter() - start,
                       objective=obj, gap=float(gap), dual=dp)


_SOLVERS = {
    "adsgd": adsgd_solve,
    "asgd": asgd_solve,
    "mrbcd": mrbcd_solve,
    "proxsvrg": proxsvrg_solve,
}


def solve(spec, config):
    """Dispatch on config.solver; 'reference' runs the oracle at gap_tol."""
    name = config.solver.lower()
    if name == "reference":
        return reference_solve(spec, tol=config.gap_tol)
    if name not in _SOLVERS:
        raise ValueError(f"unknown solver {config.solver!r}; "
                         f"expected one of {sorted(_SOLVERS) + ['reference']}")
    return _SOLVERS[name](spec, config)
