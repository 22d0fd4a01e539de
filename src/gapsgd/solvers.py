"""Screened doubly stochastic solvers and the deterministic reference solver.

All four stochastic solvers share one engine differing only in three switches:

    adsgd     block sampling + variance reduction + gap-safe screening
    mrbcd     block sampling + variance reduction, no screening
    asgd      full-vector mini-batch steps + screening, no variance reduction
    proxsvrg  full-vector variance-reduced steps, no screening

Each outer iteration snapshots the iterate and evaluates it (duality.evaluate:
objective, per-sample derivatives, scaled dual point and duality gap, which
also drives the stopping test), optionally screens with the sphere of radius
sqrt(2*T*gap), and then runs ceil(m * q_k / q) inner steps whose average
becomes the next iterate. Identical (spec, config, seed) triples reproduce
bit-identical iterate sequences. The evaluation's dual point forms the
iteration's one product A'g: the screening test reads its block correlations
and the variance reduction its smooth gradient, which is formed again only
when screening truncates the snapshot.

Every inner step of every solver goes through step_gradient: the sampled rows'
derivatives, relative to the snapshot's under variance reduction, summed into
the sampled block or into every active coordinate. A batch of all n rows
takes every entry of the working design as it stands, without a draw.
partial_gradient and vr_gradient plan their one step with _plan and run the
same kernel on the uncompacted design.

An epoch is planned in chunks of steps, each chunk sized to gather at most
_CHUNK_ENTRIES entries and never reaching past the epoch's last step. A chunk
makes one rng.integers call, whose bounds list n for every batch row and the
number of active blocks for every block draw, in step order. That takes the
same values from the Philox stream as the draws made step by step, and leaves
the stream in the same state: each bounded draw consumes the stream alike
whether it comes alone or in an array, which tests pin. _plan then gathers
every sampled row of the chunk at once, through one index array computed from
the row pointers, and selects each step's block entries with one mask over
the chunk, so a step does only the work that depends on the iterate: its two
bincounts, the loss derivative, the prox and the running sum. Each step sums
the same entries in the same order as a per-step gather would, so the plan
changes no bit.

The working design is the row pointers plus one array each of the column,
value and row of every stored entry, in CSR order. After every screening
event it is compacted to the surviving columns, cut down from the previous
working design (so at most q times per solve): a mask drops the screened
columns' entries, a cumulative count renumbers the surviving columns and a
bincount of the kept entries' rows rebuilds the row pointers. Its blocks are
a BlockPartition of the compacted columns, whose block ib is the active set's
block of rank ib; while every block is active that is the problem's partition
itself, so nothing is rebuilt. The inner loop runs in those compacted
coordinates: the iterate, snapshot, snapshot gradient and running average
hold one entry per surviving feature, and each sampled row contributes only
its surviving entries. That is where screening cuts the cost of a step, not
just the number of steps. Screened coordinates are exact zeros, so compaction
removes only vals * 0.0 terms from the row sums and leaves every iterate
bit-identical.

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
import math
import time
import typing

import numpy as np

from .duality import ActiveSet, DualPoint, evaluate, safe_radius, screen
from .problem import (BlockPartition, _check_x, _gather_rows, lipschitz_constants,
                      smooth_gradient, smooth_value)


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

    Unset fields resolve against the problem: eta to 1/(16 L), m to 2 n and
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
    """One row per outer iteration; gap is the value used for that round's screening."""

    outer_iter: int
    elapsed_s: float
    objective: float
    gap: float
    active_blocks: int
    active_features: int


@dataclasses.dataclass
class SolveReport:
    """Result of one solver run."""

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


def _resolve(spec, config, consts):
    n = spec.dataset.n
    if config.theory_mode and config.eta is not None:
        raise ValueError("eta and theory_mode are mutually exclusive")
    eta = config.eta if config.eta is not None else 1.0 / (16.0 * consts.L)
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    m = config.m if config.m is not None else 2 * n
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


@dataclasses.dataclass
class _Working:
    """The design restricted to the active features, columns renumbered 0..n_features-1.

    entries holds (cols, vals, row_of) of every stored entry in CSR order,
    cols as intp, and row r's entries are [indptr[r], indptr[r + 1]). layout
    is the BlockPartition of the compacted columns: its block ib is block
    active.blocks[ib], so a block's rank in the active set indexes it. While
    every block is active, layout is spec.partition itself.
    """

    active: ActiveSet
    indptr: np.ndarray
    entries: tuple
    layout: BlockPartition


def _compact(spec, active, prev=None):
    """Working design of `active`, cut down from prev's or from the dataset's.

    active.features must be a subset of prev's features. Dropping entries
    keeps every row's survivors in their original order, so each row sum
    over them adds the same products in the same order. A cut lists each
    surviving block's compacted columns in increasing order, as the
    partition lists the block's features.
    """
    if prev is None:
        a = spec.dataset.A
        indptr = a.indptr.astype(np.intp)
        entries = (a.indices.astype(np.intp), a.data,
                   np.repeat(np.arange(a.shape[0]), np.diff(indptr)))
        features = np.arange(spec.dataset.d)
    else:
        indptr, entries, features = prev.indptr, prev.entries, prev.active.features
    afeat = active.features
    if afeat.size < features.size:
        alive = np.isin(features, afeat)
        cols, vals, row_of = entries
        keep = np.flatnonzero(alive[cols])  # takes by index beat three boolean masks
        entries = ((np.cumsum(alive) - 1)[cols.take(keep)], vals.take(keep),
                   row_of.take(keep))
        indptr = np.zeros_like(indptr)
        np.cumsum(np.bincount(entries[2], minlength=indptr.size - 1), out=indptr[1:])
    part = layout = spec.partition
    if active.n_blocks < part.q:
        order = np.argsort(part.block_of[afeat], kind="stable")
        stops = np.cumsum(part.sizes[active.blocks])[:-1]
        layout = BlockPartition(np.split(order, stops))
    return _Working(active=active, indptr=indptr, entries=entries, layout=layout)


# Stored entries one chunk of an epoch plan may gather. Planning a chunk holds
# about 40 bytes per entry at its peak, so this keeps a chunk under a
# megabyte, and at batch 10 it spreads the per-chunk calls over 12-40 steps on
# rows of 40-130 entries. Twice as many made solves at most 3% faster.
_CHUNK_ENTRIES = 1 << 14


class _Step(typing.NamedTuple):
    """One inner step of an epoch plan (see _plan).

    fwd is (cols, vals, row_id) of the batch's entries, row_id counting rows
    within the batch. bwd is (pos, vals, row_id) of the entries the gradient
    sums: those inside block ib, pos being each one's slot in the block, or
    every entry of fwd, pos being its compacted column, when ib is None.
    y and g_ref hold y and the snapshot's derivatives on the batch; g_ref is
    None without variance reduction.
    """

    fwd: tuple
    bwd: tuple
    ib: int | None
    y: np.ndarray
    g_ref: np.ndarray | None


def _plan(work, y, g_snap, c, batches=None, ibs=None):
    """Yield the c steps of one chunk, gathered and block-selected at once.

    batches is a (c, b) array of sampled rows, or None when every step takes
    all n rows; ibs holds the c sampled block ranks in work.active, which
    number the blocks of work.layout, or is None for full-vector steps. One
    _gather_rows call fetches the rows of every step, with the offset where
    each step's entries start, and one mask over the chunk's entries selects
    each step's block. A step's entries are views into the chunk's arrays, in
    the order a gather of its batch alone would give them, so its sums add
    the same terms in the same order. A full batch passes y, g_snap and
    work.entries themselves.
    Each step is built as it is asked for, so a chunk of many short steps
    holds no more Python objects than one step.
    """
    if batches is None:
        cols, vals, row_id = work.entries
    else:
        cols, vals, row_id, starts = _gather_rows(work.indptr, work.entries, batches)
        ends = starts.tolist()
        y = y[batches]
        g_snap = None if g_snap is None else g_snap[batches]
    if ibs is not None:
        layout = work.layout
        if batches is None:  # all entries again for every step, in step order
            sel = np.flatnonzero(layout.block_of[cols] == ibs[:, None])
            cuts = np.searchsorted(sel, np.arange(c + 1) * cols.size).tolist()
            sel %= cols.size
        else:
            sel = np.flatnonzero(layout.block_of[cols] == np.repeat(ibs, np.diff(starts)))
            cuts = np.searchsorted(sel, starts).tolist()
        pos, svals, srow = layout.slot[cols[sel]], vals[sel], row_id[sel]
        ibs = ibs.tolist()
    fwd, y_b, g_b, ib = work.entries, y, g_snap, None
    for t in range(c):
        if batches is not None:
            s, e = ends[t], ends[t + 1]
            fwd = (cols[s:e], vals[s:e], row_id[s:e])
            y_b, g_b = y[t], None if g_snap is None else g_snap[t]
        bwd = fwd
        if ibs is not None:
            s, e = cuts[t], cuts[t + 1]
            bwd, ib = (pos[s:e], svals[s:e], srow[s:e]), ibs[t]
        yield _Step(fwd, bwd, ib, y_b, g_b)


def step_gradient(work, loss, x, step, mu=None, x_ref=None, mu_p=0.0):
    """Mini-batch gradient of the smooth part at the compacted iterate x.

    step is one _Step of _plan over work. With variance reduction mu holds
    the snapshot's smooth gradient and x_ref the snapshot; without it mu is
    None and x_ref is the anchor. Returns, as float64 in compacted
    coordinates, the gradient on block step.ib of work.layout (ordered as
    its groups[ib]), or on every coordinate when step.ib is None:

        A_b'(f'(A_b x) - g_ref) / b  [+ mu]  + 2 mu_p (x - x_ref)
    """
    cols, vals, row_id = step.fwd
    b = step.y.size
    gb = loss.deriv(np.bincount(row_id, weights=vals * x[cols], minlength=b), step.y)
    coef = (gb - step.g_ref) / b if step.g_ref is not None else gb / b
    if step.ib is None:
        sl, size = slice(None), x.size
    else:
        sl = work.layout.groups[step.ib]
        size = sl.size
    pos, vals, row_id = step.bwd
    grad = np.bincount(pos, weights=vals * coef[row_id], minlength=size)
    grad = grad.astype(np.float64, copy=False)  # a sum over no entries comes back int64
    if mu is not None:
        grad += mu[sl]
    if mu_p > 0:
        grad += 2.0 * mu_p * (x[sl] - x_ref[sl])
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


def partial_gradient(spec, x, batch, block):
    """Mini-batch gradient of the smooth part restricted to one block.

    batch may contain repeated sample indices; each occurrence contributes to
    the average. The perturbation term enters in full (it has no sample index).
    """
    x = _check_x(spec, x)
    batch = _check_batch(spec, batch, block)
    work = _compact(spec, ActiveSet.full(spec, bounds=False))
    step, = _plan(work, spec.dataset.y, None, 1, batch[None, :], np.array([block]))
    return step_gradient(work, spec.loss, x, step, x_ref=spec.anchor, mu_p=spec.mu_p)


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
    ds, work = spec.dataset, _compact(spec, ActiveSet.full(spec, bounds=False))
    g_tilde = spec.loss.deriv(ds.A @ x_tilde, ds.y)
    step, = _plan(work, ds.y, g_tilde, 1, batch[None, :], np.array([block]))
    return step_gradient(work, spec.loss, x, step, mu=mu_tilde, x_ref=x_tilde,
                         mu_p=spec.mu_p)


def _engine(spec, config, *, block_sampling, variance_reduction, screening):
    ds = spec.dataset
    n, d = ds.n, ds.d
    loss, reg, lam, mu_p = spec.loss, spec.reg, spec.lam, spec.mu_p
    consts = lipschitz_constants(spec)
    eta, m, batch_size = _resolve(spec, config, consts)
    rng = np.random.Generator(np.random.Philox(config.seed))
    A, y, q = ds.A, ds.y, spec.partition.q
    # batch_size == n is the degenerate deterministic case: the batch is the
    # whole dataset (no draw), otherwise sample with replacement
    sampled = batch_size < n
    screens = screening and config.screen_every > 0

    active = ActiveSet.full(spec, bounds=screens)
    work = _compact(spec, active)
    x_hat = np.zeros(d)
    trace, active_history = [], []
    iterates = [] if config.keep_iterates else None
    coord_updates = 0
    converged = False
    k = 0
    start = time.perf_counter()

    while True:
        obj, g_snap, dp, gap = evaluate(spec, x_hat, A @ x_hat, active)
        trace.append(TraceRecord(outer_iter=k, elapsed_s=time.perf_counter() - start,
                                 objective=obj, gap=float(gap),
                                 active_blocks=active.n_blocks,
                                 active_features=active.n_features))
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

        mu_full = dp.gradient
        if screens and (k - 1) % config.screen_every == 0:
            r = safe_radius(gap, consts.T)
            new_active = screen(spec, dp, r, active)
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
        if active.n_blocks == 0:
            continue  # empty subproblem; the next evaluation certifies x = 0
        if work.active is not active:
            work = _compact(spec, active, work)

        m_k = inner_budget(m, active.n_blocks, q)
        # The inner loop runs in compacted coordinates: position p stands for
        # feature afeat[p]. Screened features hold exact zeros, so leaving them
        # out drops only the terms vals * 0.0 from every row sum.
        afeat = active.features
        x_tilde = x_hat[afeat]
        x_cur = x_tilde.copy()
        x_sum = np.zeros(afeat.size)
        if variance_reduction:
            mu, x_ref = mu_full[afeat], x_tilde
        else:
            mu, x_ref = None, spec.anchor[afeat]

        # Plan the epoch a chunk of steps at a time (see the module docstring):
        # one draw per chunk, with its bounds in step order, never past step m_k.
        per_step = (batch_size * int(np.diff(work.indptr).max()) if sampled
                    else work.entries[0].size)
        chunk = max(1, _CHUNK_ENTRIES // max(1, per_step))
        highs = np.array([n] * (batch_size if sampled else 0)
                         + [active.n_blocks] * block_sampling)
        for done in range(0, m_k, chunk):
            c = min(chunk, m_k - done)
            draws = (rng.integers(0, np.tile(highs, c)).reshape(c, -1) if highs.size
                     else None)
            steps = _plan(work, y, g_snap if variance_reduction else None, c,
                          batches=draws[:, :batch_size] if sampled else None,
                          ibs=draws[:, -1] if block_sampling else None)
            for step in steps:
                grad = step_gradient(work, loss, x_cur, step, mu=mu, x_ref=x_ref,
                                     mu_p=mu_p)
                if block_sampling:
                    sl = work.layout.groups[step.ib]
                    x_cur[sl] = reg.block_prox(x_cur[sl] - eta * grad, eta * lam)
                    coord_updates += sl.size
                else:
                    x_cur = reg.block_prox(x_cur - eta * grad, eta * lam,
                                           work.layout.classes)
                    coord_updates += afeat.size
                x_sum += x_cur
            del draws, steps, step  # release this chunk before the next is planned
        x_hat = np.zeros(d)
        x_hat[afeat] = x_sum / m_k

    return SolveReport(
        x_final=x_hat.copy(), trace=trace, converged=converged, outer_iters=k,
        wall_time=time.perf_counter() - start, objective=trace[-1].objective,
        gap=trace[-1].gap, coord_updates=coord_updates, dual=dp,
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


def _refine_support(spec, x):
    """Solve the smooth stationarity system on the fixed support of x.

    Only for max-abs (L1-style) penalties where the subgradient on the support
    is the sign vector. Returns None when the refinement is unavailable or
    leaves the sign pattern.
    """
    if spec.reg.name != "l1":
        return None
    support = np.flatnonzero(x != 0.0)
    if support.size == 0:
        return None
    ds = spec.dataset
    signs = np.sign(x[support])
    # column-major: the BLAS products below round differently on a row-major copy
    a_s = ds.A[:, support].toarray(order="F")
    n = ds.n
    mu_p = spec.mu_p
    anchor_s = spec.anchor[support]
    ridge = 2.0 * mu_p * np.eye(support.size)
    if spec.loss.name == "squared":
        h = a_s.T @ a_s / n + ridge
        rhs = a_s.T @ ds.y / n - spec.lam * signs + 2.0 * mu_p * anchor_s
        try:
            w = np.linalg.solve(h, rhs)
        except np.linalg.LinAlgError:
            w = np.linalg.lstsq(h, rhs, rcond=None)[0]
    else:
        from scipy.special import expit

        w = x[support].copy()
        best = None
        for _ in range(60):
            z = a_s @ w
            res = a_s.T @ (expit(z) - ds.y) / n + 2.0 * mu_p * (w - anchor_s) \
                + spec.lam * signs
            rnorm = float(np.max(np.abs(res)))
            if best is None or rnorm < best[0]:
                best = (rnorm, w.copy())
            if rnorm < 1e-13:
                break
            sg = expit(z)
            h = (a_s * (sg * (1.0 - sg))[:, None]).T @ a_s / n + ridge \
                + 1e-13 * np.eye(support.size)
            try:
                step = np.linalg.solve(h, res)
            except np.linalg.LinAlgError:
                break
            w = w - step
            if not np.all(np.isfinite(w)):
                w = best[1]
                break
        else:
            w = best[1]
    if not np.all(np.isfinite(w)) or np.any(np.sign(w) != signs):
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
                                     active_features=active.n_features))
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

    refined = _refine_support(spec, x)
    if refined is not None:
        obj_r, _, dp_r, gap_r = evaluate(spec, refined, A @ refined, active)
        if np.isfinite(gap_r) and gap_r < gap:
            x, obj, dp, gap = refined, obj_r, dp_r, gap_r
    trace.append(TraceRecord(outer_iter=it, elapsed_s=time.perf_counter() - start,
                             objective=obj, gap=float(gap),
                             active_blocks=active.n_blocks,
                             active_features=active.n_features))
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
