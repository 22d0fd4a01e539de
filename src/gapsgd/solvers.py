"""Screened doubly stochastic solvers and the deterministic reference solver.

All four stochastic solvers share one engine differing only in three switches:

    adsgd     block sampling + variance reduction + gap-safe screening
    mrbcd     block sampling + variance reduction, no screening
    asgd      full-vector mini-batch steps + screening, no variance reduction
    proxsvrg  full-vector variance-reduced steps, no screening

Each outer iteration snapshots the iterate, computes the full smooth gradient,
builds a scaled dual point, measures the duality gap (which also drives the
stopping test), optionally screens with the sphere of radius sqrt(2*T*gap),
and then runs ceil(m * q_k / q) inner steps whose average becomes the next
iterate. Identical (spec, config, seed) triples reproduce bit-identical
iterate sequences.

After every screening event the design is compacted to the surviving columns
(built from the previous compacted design, so at most q times per solve), and
the inner loop runs in those compacted coordinates: the iterate, snapshot,
snapshot gradient and running average hold one entry per surviving feature,
and each sampled row contributes only its surviving entries. That is where
screening cuts the cost of a step, not just the number of steps. Screened
coordinates are exact zeros, so compaction removes only vals * 0.0 terms from
the row sums and leaves every iterate bit-identical.

The full-vector solvers (asgd, proxsvrg) and the reference solver make one
penalty prox call per step. For group-L2 it shrinks every block of one size
with a few numpy calls, over size classes that the engine rebuilds in
compacted coordinates at each compaction. Only a solve that screens computes
the per-block column bounds Omega_j^D(A_j), once, when it starts.
"""

import dataclasses
import math
import time

import numpy as np
import scipy.sparse as sp

from .duality import ActiveSet, DualPoint, _dual_value, dual_point, safe_radius, screen
from .problem import (_gather_rows, _split_rows, lipschitz_constants,
                      partial_gradient, size_classes)


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

    Unset fields resolve against the problem: eta to 1/(16 L), m to 2 n,
    batch_size to min(10, n), and q to min(10, d). theory_mode overrides the
    batch size with ceil(T / L) and pins eta = 1/(16 L); the matching inner
    budget m = ceil(65 q L / mu) additionally needs the strong convexity
    constant, supplied through mu_strong. q and mu_p are consumed by the
    harness when it assembles a ProblemSpec; solvers read the partition and
    perturbation from the ProblemSpec they are given.
    """

    solver: str = "adsgd"
    eta: float = None
    m: int = None
    batch_size: int = None
    q: int = None
    max_outer: int = 200
    gap_tol: float = 1e-6
    seed: int = 0
    theory_mode: bool = False
    mu_strong: float = None
    mu_p: float = 0.0
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


def vr_gradient(spec, x, x_tilde, mu_tilde, batch, block):
    """Variance-reduced block gradient: grad_I(x) - grad_I(x_tilde) + mu_tilde on the block.

    mu_tilde is the full-length smooth gradient at the snapshot; averaging the
    output over every singleton batch reproduces the exact block gradient.
    """
    mu_tilde = np.asarray(mu_tilde, dtype=np.float64)
    if mu_tilde.shape != (spec.dataset.d,):
        raise ValueError("mu_tilde must have length d")
    group = spec.partition.groups[block]
    return (partial_gradient(spec, x, batch, block)
            - partial_gradient(spec, x_tilde, batch, block)
            + mu_tilde[group])


def _resolve(spec, config, consts):
    n = spec.dataset.n
    if config.theory_mode and config.eta is not None:
        raise ValueError("eta and theory_mode are mutually exclusive")
    eta = config.eta if config.eta is not None else 1.0 / (16.0 * consts.L)
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
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
    if config.gap_tol <= 0:
        raise ValueError("gap_tol must be positive")
    if config.max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    if config.screen_every < 0:
        raise ValueError("screen_every must be nonnegative")
    return float(eta), int(m), int(batch)


def _smooth_parts(spec, x):
    """(per-sample derivatives, full smooth gradient) at x."""
    ds = spec.dataset
    g = spec.loss.deriv(ds.A @ x, ds.y)
    mu = (ds.A.T @ g) / ds.n
    if spec.mu_p > 0:
        mu = mu + 2.0 * spec.mu_p * (x - spec.anchor)
    return g, mu


@dataclasses.dataclass
class _Working:
    """The design restricted to the active features, columns renumbered 0..n_features-1.

    Block ib of active.blocks owns the compacted columns spans[ib]: a slice
    when the partition is contiguous, a sorted position array otherwise.
    classes groups the same blocks by size for the full-vector prox.
    """

    active: ActiveSet
    matrix: sp.csr_matrix
    rows: tuple           # _split_rows(matrix)
    block_of: np.ndarray  # block id of every compacted column
    sizes: list
    spans: list
    classes: list         # size_classes(block_of, sizes)


def _compact(part, active, matrix, features):
    """Working design of `active` from `matrix`, whose columns hold `features`.

    active.features must be a subset of features. Selecting sorted unique
    columns keeps every row's entries in their original order, so each row
    sum over the surviving entries adds the same products in the same order.
    """
    afeat = active.features
    if afeat.size < features.size:
        matrix = matrix[:, np.searchsorted(features, afeat)]
    sizes = part.sizes[active.blocks]
    if part.is_contiguous:
        stops = np.cumsum(sizes).tolist()
        spans = [slice(e - z, e) for e, z in zip(stops, sizes.tolist())]
    else:
        spans = [np.searchsorted(afeat, part.groups[j]) for j in active.blocks]
    block_of = part.block_of[afeat]
    return _Working(active=active, matrix=matrix, rows=_split_rows(matrix),
                    block_of=block_of, sizes=sizes.tolist(), spans=spans,
                    classes=size_classes(block_of, sizes))


def _engine(spec, config, *, block_sampling, variance_reduction, screening):
    ds = spec.dataset
    n, d = ds.n, ds.d
    part = spec.partition
    loss, reg, lam, mu_p = spec.loss, spec.reg, spec.lam, spec.mu_p
    anchor = spec.anchor
    consts = lipschitz_constants(spec)
    eta, m, batch_size = _resolve(spec, config, consts)
    rng = np.random.Generator(np.random.Philox(config.seed))
    A, y, q = ds.A, ds.y, part.q
    csc = ds.A_csc
    cindptr, cindices, cdata = csc.indptr, csc.indices, csc.data
    contig = part.is_contiguous
    full_batch = batch_size == n
    screens = screening and config.screen_every > 0

    active = ActiveSet.full(spec, bounds=screens)
    work = _compact(part, active, A, active.features)
    x_hat = np.zeros(d)
    trace, active_history = [], []
    iterates = [] if config.keep_iterates else None
    coord_updates = 0
    converged = False
    dp = None
    k = 0
    start = time.perf_counter()

    while True:
        z = A @ x_hat
        g_snap = loss.deriv(z, y)
        mu_full = (A.T @ g_snap) / n
        obj = float(np.mean(loss.value(z, y)))
        if mu_p > 0:
            mu_full = mu_full + 2.0 * mu_p * (x_hat - anchor)
            obj += mu_p * float(np.sum((x_hat - anchor) ** 2))
        obj += lam * reg.value(x_hat, part)
        dp = dual_point(spec, g_snap, active, x=x_hat)
        gap = obj - _dual_value(spec, dp, active)
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

        if screens and (k - 1) % config.screen_every == 0:
            r = safe_radius(gap, consts.T)
            new_active = screen(spec, dp, r, active)
            if new_active.n_blocks < active.n_blocks:
                dropped = np.setdiff1d(active.features, new_active.features,
                                       assume_unique=True)
                active = new_active
                if np.any(x_hat[dropped] != 0.0):
                    # truncation moved the snapshot, so refresh its gradient to
                    # keep the variance correction unbiased on the subproblem
                    x_hat[dropped] = 0.0
                    g_snap, mu_full = _smooth_parts(spec, x_hat)
        if active.n_blocks == 0:
            continue  # empty subproblem; the next evaluation certifies x = 0
        if work.active is not active:
            work = _compact(part, active, work.matrix, work.active.features)

        m_k = inner_budget(m, active.n_blocks, q)
        # The inner loop runs in compacted coordinates: position p stands for
        # feature afeat[p]. Screened features hold exact zeros, so leaving them
        # out drops only the terms vals * 0.0 from every row sum.
        afeat, blocks_arr = active.features, active.blocks
        W, rows, block_of = work.matrix, work.rows, work.block_of
        sizes, spans, classes = work.sizes, work.spans, work.classes
        x_tilde = x_hat[afeat]
        x_cur = x_tilde.copy()
        x_sum = np.zeros(afeat.size)
        mu = mu_full[afeat]
        anc = anchor[afeat]

        for _t in range(m_k):
            # batch_size == n is the degenerate deterministic case: the batch is
            # the whole dataset (no draw), otherwise sample with replacement
            if not full_batch:
                batch = rng.integers(0, n, size=batch_size)
            if block_sampling:
                ib = int(rng.integers(0, blocks_arr.size))
                j = int(blocks_arr[ib])
                gsz, sl = sizes[ib], spans[ib]

            if full_batch:
                gb = loss.deriv(W @ x_cur, y)
                coef = (gb - g_snap) / n if variance_reduction else gb / n
            else:
                cols, vals, row_id = _gather_rows(rows, batch)
                zb = np.bincount(row_id, weights=vals * x_cur[cols], minlength=batch_size)
                gb = loss.deriv(zb, y[batch])
                if variance_reduction:
                    coef = (gb - g_snap[batch]) / batch_size
                else:
                    coef = gb / batch_size

            if block_sampling:
                if full_batch:
                    # the column view is shared with the full design, so it
                    # is addressed by the block's original feature ids
                    gvec = np.zeros(gsz)
                    if contig:
                        lo, hi = part.starts[j], part.stops[j]
                        s, e = cindptr[lo], cindptr[hi]
                        colrep = np.repeat(np.arange(lo, hi),
                                           np.diff(cindptr[lo:hi + 1]))
                        np.add.at(gvec, colrep - lo, cdata[s:e] * coef[cindices[s:e]])
                    else:
                        for i, c in enumerate(part.groups[j]):
                            s, e = cindptr[c], cindptr[c + 1]
                            gvec[i] = cdata[s:e] @ coef[cindices[s:e]]
                else:
                    if contig:
                        mask = (cols >= sl.start) & (cols < sl.stop)
                        pos = cols[mask] - sl.start
                    else:
                        mask = block_of[cols] == j
                        pos = np.searchsorted(sl, cols[mask])
                    gvec = np.bincount(pos, weights=vals[mask] * coef[row_id[mask]],
                                       minlength=gsz)
                if variance_reduction:
                    gvec += mu[sl]
                    if mu_p > 0:
                        gvec += 2.0 * mu_p * (x_cur[sl] - x_tilde[sl])
                elif mu_p > 0:
                    gvec += 2.0 * mu_p * (x_cur[sl] - anc[sl])
                x_cur[sl] = reg.block_prox(x_cur[sl] - eta * gvec, eta * lam)
                coord_updates += gsz
            else:
                if full_batch:
                    ga = W.T @ coef
                else:
                    ga = np.bincount(cols, weights=vals * coef[row_id], minlength=afeat.size)
                if variance_reduction:
                    ga += mu
                    if mu_p > 0:
                        ga += 2.0 * mu_p * (x_cur - x_tilde)
                elif mu_p > 0:
                    ga += 2.0 * mu_p * (x_cur - anc)
                x_cur = reg.block_prox(x_cur - eta * ga, eta * lam, classes)
                coord_updates += int(afeat.size)
            x_sum += x_cur
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
                   screening=config.screen_every > 0)


def mrbcd_solve(spec, config=None):
    """Mini-batch randomized block coordinate descent: the screened solver minus screening."""
    config = config or SolverConfig(solver="mrbcd")
    return _engine(spec, config, block_sampling=True, variance_reduction=True,
                   screening=False)


def asgd_solve(spec, config=None):
    """Naive screened variant: plain mini-batch proximal steps over all active coordinates."""
    config = config or SolverConfig(solver="asgd")
    return _engine(spec, config, block_sampling=False, variance_reduction=False,
                   screening=config.screen_every > 0)


def proxsvrg_solve(spec, config=None):
    """Proximal stochastic variance-reduced gradient over the full coordinate vector."""
    config = config or SolverConfig(solver="proxsvrg")
    return _engine(spec, config, block_sampling=False, variance_reduction=True,
                   screening=False)


def _spectral_bound(spec):
    """Smoothness bound for full-gradient steps: c * sigma_max(A)^2 / n + 2 mu_p."""
    from .duality import _power_sigma

    sigma = _power_sigma(spec.dataset.A, iters=60, tol=1e-9)
    base = spec.loss.curvature * sigma ** 2 / spec.dataset.n
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
    a_s = np.asarray(ds.A_csc[:, support].todense())
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
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    ds = spec.dataset
    A, y, n, d = ds.A, ds.y, ds.n, ds.d
    loss, reg, lam, mu_p = spec.loss, spec.reg, spec.lam, spec.mu_p
    anchor = spec.anchor
    part = spec.partition
    active = ActiveSet.full(spec, bounds=False)
    lb = _spectral_bound(spec)

    def smooth_value(xv, zv):
        val = float(np.mean(loss.value(zv, y)))
        if mu_p > 0:
            val += mu_p * float(np.sum((xv - anchor) ** 2))
        return val

    def evaluate(xv, zv):
        gx = loss.deriv(zv, y)
        obj = smooth_value(xv, zv) + lam * reg.value(xv, part)
        dpx = dual_point(spec, gx, active, x=xv)
        return obj, dpx, obj - _dual_value(spec, dpx, active)

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
    obj = gap = None
    dp = None

    while True:
        obj, dp, gap = evaluate(x, zx)
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

        gy = loss.deriv(zy, y)
        grad = (A.T @ gy) / n
        if mu_p > 0:
            grad = grad + 2.0 * mu_p * (yv - anchor)
        fy = smooth_value(yv, zy)
        while True:
            xn = reg.block_prox(yv - grad / lb, lam / lb, part.classes)
            zn = A @ xn
            fn = smooth_value(xn, zn)
            diff = xn - yv
            bound = fy + float(grad @ diff) + 0.5 * lb * float(diff @ diff)
            if fn <= bound + 1e-12 * (abs(fy) + abs(fn)) + 1e-300:
                break
            lb *= 2.0
            if lb > 1e30:
                raise ConvergenceError("backtracking step size collapsed",
                                       best_gap=best_gap)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        y_next = xn + ((t_mom - 1.0) / t_new) * (xn - x)
        if float((yv - xn) @ (xn - x)) > 0.0:
            t_new = 1.0
            y_next = xn
        x, zx = xn, zn
        yv = y_next
        zy = zn if y_next is xn else A @ y_next
        t_mom = t_new

    refined = _refine_support(spec, x)
    if refined is not None:
        zr = A @ refined
        obj_r, dp_r, gap_r = evaluate(refined, zr)
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
