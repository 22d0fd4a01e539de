"""Dual points, duality gaps, safe radii, and the gap-safe block elimination test.

The dual variable theta lives in sample space (length n): it is built from the
per-sample derivative vector (f_1'(a_1'x), ..., f_n'(a_n'x)) and rescaled so
that (1/n) * Omega_j^D(A_j' theta) <= lam on every active block. When the
quadratic perturbation mu_p ||x - x0||^2 is enabled, each coordinate also
carries a pseudo-sample dual kappa_j; gap and screening are then computed for
the perturbed problem, so eliminations are safe for the perturbed optimum only.
"""

import dataclasses
import math

import numpy as np

from .problem import blockwise_dual_norms, primal_objective


@dataclasses.dataclass
class DualPoint:
    """Feasible dual candidate: theta over samples, optional kappa over features."""

    theta: np.ndarray
    scale_used: float
    kappa: np.ndarray = None


@dataclasses.dataclass
class ActiveSet:
    """Surviving blocks, their features, and cached per-block column bounds.

    column_bounds holds Omega_j^D(A_j) for all q blocks of the originating
    partition; restricted sets share the array and index it by block id. It
    is None for a set built without bounds, which screen() cannot use.
    """

    blocks: np.ndarray
    features: np.ndarray
    column_bounds: np.ndarray
    partition: object

    @classmethod
    def full(cls, spec, bounds=True):
        """Every block active. bounds=False skips column_bounds, which only the
        screening test reads and which costs a power iteration per block for
        group-L2."""
        part = spec.partition
        return cls(
            blocks=np.arange(part.q, dtype=np.intp),
            features=np.arange(part.d, dtype=np.intp),
            column_bounds=column_bounds(spec) if bounds else None,
            partition=part,
        )

    def keep(self, block_ids):
        block_ids = np.asarray(block_ids, dtype=np.intp)
        feats = (np.concatenate([self.partition.groups[j] for j in block_ids])
                 if block_ids.size else np.empty(0, dtype=np.intp))
        return ActiveSet(blocks=np.sort(block_ids), features=np.sort(feats),
                         column_bounds=self.column_bounds, partition=self.partition)

    @property
    def n_blocks(self):
        return int(self.blocks.size)

    @property
    def n_features(self):
        return int(self.features.size)


def _power_sigma(mat, iters=20, tol=1e-6):
    """Largest singular value by power iteration with a fixed start vector."""
    k = mat.shape[1]
    v = np.full(k, 1.0 / math.sqrt(k))
    sigma = 0.0
    for _ in range(iters):
        u = mat @ v
        w = mat.T @ u
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        new_sigma = float(np.linalg.norm(mat @ v))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1.0):
            return new_sigma
        sigma = new_sigma
    return sigma


def column_bounds(spec):
    """Omega_j^D(A_j) per block: the operator norm of the block's column map.

    For max-abs block duals (L1) this is the largest column Euclidean norm in
    the block; for Euclidean block duals it is the submatrix spectral norm.
    """
    part, reg = spec.partition, spec.reg
    if reg.name == "l1":
        norms = spec.dataset.column_norms()
        if part.is_contiguous:
            return np.maximum.reduceat(norms, part.starts)
        return np.array([norms[g].max() for g in part.groups])
    csc = spec.dataset.A_csc
    return np.array([_power_sigma(csc[:, g]) for g in part.groups])


def _pseudo_grad(spec, x):
    """Per-coordinate derivative of the perturbation pseudo-samples."""
    return 2.0 * spec.dataset.n * spec.mu_p * (x - spec.anchor)


def _block_correlations(spec, theta_like, kappa_like, active):
    """(1/n) * Omega_j^D(A_j' v + kappa_Gj) for active blocks, in block id order."""
    ds = spec.dataset
    corr = ds.A.T @ theta_like
    if kappa_like is not None:
        corr = corr + kappa_like
    per_block = blockwise_dual_norms(corr, spec.partition, spec.reg)
    return per_block[active.blocks] / ds.n


def dual_point(spec, sample_grad, active, x=None):
    """Scaled dual candidate from the per-sample derivative vector.

    theta = -sample_grad / max(1, max_{j active} (1/n) Omega_j^D(A_j' g) / lam).
    With mu_p > 0 the current iterate x is required so the perturbation duals
    can be formed and scaled consistently.
    """
    g = np.asarray(sample_grad, dtype=np.float64)
    if g.shape != (spec.dataset.n,):
        raise ValueError(f"sample_grad has shape {g.shape}, expected ({spec.dataset.n},)")
    p = None
    if spec.mu_p > 0:
        if x is None:
            raise ValueError("x is required to build the dual point when mu_p > 0")
        p = _pseudo_grad(spec, np.asarray(x, dtype=np.float64))
    scale = 1.0
    if active.n_blocks > 0:
        corr = _block_correlations(spec, g, p, active)
        scale = max(1.0, float(corr.max()) / spec.lam)
    return DualPoint(theta=-g / scale, scale_used=scale,
                     kappa=None if p is None else -p / scale)


def _dual_value(spec, dp, active):
    """D(theta) = -(1/n) sum_i f_i*(-theta_i), extended with perturbation duals."""
    ds = spec.dataset
    conj = spec.loss.conjugate(-dp.theta, ds.y)
    if np.any(np.isinf(conj)):
        return -np.inf
    val = -float(np.sum(conj)) / ds.n
    if spec.mu_p > 0 and dp.kappa is not None and active.n_features > 0:
        ka = dp.kappa[active.features]
        x0 = spec.anchor[active.features]
        hstar = -ka * x0 + ka ** 2 / (4.0 * ds.n * spec.mu_p)
        val -= float(np.sum(hstar)) / ds.n
    return val


def duality_gap(spec, x, dp, active):
    """P(x) - D(theta); an upper bound on the suboptimality when theta is feasible.

    x must carry exact zeros on screened coordinates so the restricted primal
    coincides with the full one. An out-of-domain theta yields +inf, which
    signals that this iteration must not screen.
    """
    return primal_objective(spec, x) - _dual_value(spec, dp, active)


def safe_radius(gap, T):
    """sqrt(2 * T * gap); negative gaps are clamped to zero."""
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if not np.isfinite(gap):
        return np.inf
    return math.sqrt(2.0 * T * max(gap, 0.0))


def screen(spec, dp, r, active):
    """Drop every active block certified zero at the optimum by the sphere test.

    Block j is removed when (1/n) Omega_j^D(A_j' theta) + (1/n) Omega_j^D(A_j) * r
    falls strictly below lam. An infinite radius removes nothing.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if active.n_blocks == 0 or not np.isfinite(r):
        return active
    corr = _block_correlations(spec, dp.theta, dp.kappa, active)
    bounds = active.column_bounds[active.blocks]
    if spec.mu_p > 0:
        bounds = np.sqrt(bounds ** 2 + 1.0)
    # 1e-12 relative guard so rounding in the dual scaling can never evict a
    # block sitting exactly at the bound
    keep = corr + bounds * r / spec.dataset.n >= spec.lam * (1.0 - 1e-12)
    if keep.all():
        return active
    return active.keep(active.blocks[keep])


def equicorrelation_set(spec, dp, tol=1e-7):
    """Blocks whose column correlations with the optimal dual attain lam.

    dp should come from a high-precision reference solve; tol absorbs the
    remaining numerical slack in the attainment test.
    """
    ds = spec.dataset
    corr = ds.A.T @ dp.theta
    if dp.kappa is not None:
        corr = corr + dp.kappa
    per_block = blockwise_dual_norms(corr, spec.partition, spec.reg) / ds.n
    return np.flatnonzero(per_block >= spec.lam - tol).astype(np.intp)
