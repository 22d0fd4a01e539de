"""Dual points, duality gaps, safe radii, and the gap-safe block elimination test.

The dual variable theta lives in sample space (length n): it is built from the
per-sample derivative vector (f_1'(a_1'x), ..., f_n'(a_n'x)) and rescaled so
that (1/n) * Omega_j^D(A_j' theta) <= lam on every active block. When the
quadratic perturbation mu_p ||x - x0||^2 is enabled, each coordinate also
carries a pseudo-sample dual kappa_j; gap and screening are then computed for
the perturbed problem, so eliminations are safe for the perturbed optimum only.

dual_point forms the one product A'g of an evaluation and keeps in the
DualPoint what screen, equicorrelation_set and variance reduction read of it.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .problem import blockwise_dual_norms, primal_objective


@dataclasses.dataclass
class DualPoint:
    """Feasible dual candidate: theta over samples, optional kappa over features.

    dual_point also sets gradient, smooth_gradient at the iterate, and
    correlations, (1/n) Omega_j^D(A_j' theta + kappa_Gj) for every block j.
    """

    theta: np.ndarray
    scale_used: float
    kappa: np.ndarray = None
    gradient: np.ndarray = None
    correlations: np.ndarray = None


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
        screening test reads and which costs, for group-L2, one block-diagonal
        Gram product and one s x s eigensolve per block of size s."""
        part = spec.partition
        return cls(
            blocks=np.arange(part.q, dtype=np.intp),
            features=np.arange(part.d, dtype=np.intp),
            column_bounds=column_bounds(spec) if bounds else None,
            partition=part,
        )

    def keep(self, block_ids):
        block_ids = np.asarray(block_ids, dtype=np.intp)
        feats = np.flatnonzero(np.isin(self.partition.block_of, block_ids))
        return ActiveSet(blocks=np.sort(block_ids), features=feats,
                         column_bounds=self.column_bounds, partition=self.partition)

    @property
    def n_blocks(self):
        return int(self.blocks.size)

    @property
    def n_features(self):
        return int(self.features.size)


# Dense Gram entries that column_bounds forms at once (about 150 MB at peak
# when the blocks are dense); it rejects blocks wider than 2048 columns.
_GRAM_ENTRIES = 2048 ** 2


def _gram_sigma(a, idx):
    """sigma_max(A_j), rounded up, for each block j of one size class.

    Row i of the (k, s) array idx lists the columns of block i. The stored
    entries of a row are cut into (row, block) pieces, and the pieces are
    stacked as the rows of F, so F'F is block-diagonal with A_j'A_j on its
    diagonal. Each block's largest eigenvalue then comes from a dense s x s
    eigensolve, at O(nnz + within-block pairs) cost and k s^2 memory.
    column_bounds bounds k s^2 by _GRAM_ENTRIES.

    Rounding allowance, with eps the unit roundoff and F_j = ||A_j||_F^2:
    every Gram entry is a sum of at most n products, so the computed Gram
    differs from A_j'A_j by at most gamma_n |A_j|'|A_j| entrywise, which has
    spectral norm at most gamma_n F_j (gamma_n = n eps / (1 - n eps)).
    eigvalsh returns the exact eigenvalues of a matrix within about s eps
    times its norm, itself at most (1 + gamma_n) F_j. By Weyl's inequality
    sigma_max^2 <= lambda + (n + s) eps F_j up to second-order terms. The
    allowance doubles that, which also covers the trace's own rounding
    (relative error below (n + s) eps, all terms positive) and the final
    add and square root, since F_j >= sigma_max^2.
    """
    k, s = idx.shape
    sub = a[:, idx.ravel()].sorted_indices()  # a column fancy index may leave rows unsorted
    rows = np.repeat(np.arange(a.shape[0]), np.diff(sub.indptr))
    piece = rows * k + sub.indices // s  # entries of one piece are adjacent
    starts = np.flatnonzero(np.diff(piece, prepend=-1))
    f = sp.csr_matrix((sub.data, sub.indices, np.append(starts, piece.size)),
                      shape=(starts.size, k * s))
    gram = (f.T @ f).tocoo()
    dense = np.zeros((k, s, s))
    dense[gram.row // s, gram.row % s, gram.col % s] = gram.data
    top = np.linalg.eigvalsh(dense)[:, -1]
    frob = np.trace(dense, axis1=1, axis2=2)
    slack = 2.0 * (a.shape[0] + s) * np.finfo(np.float64).eps * frob
    return np.sqrt(np.maximum(top + slack, 0.0))


def column_bounds(spec):
    """Omega_j^D(A_j) per block: the operator norm of the block's column map.

    For max-abs block duals (L1) this is the largest column Euclidean norm in
    the block; for Euclidean block duals it is the submatrix spectral norm,
    from the block's Gram matrix and rounded up so that the sphere test can
    rely on it as an upper bound. That costs a dense s x s Gram and an O(s^3)
    eigensolve per block of s columns, so blocks wider than 2048 columns are
    rejected with a ValueError before any work; split such blocks (a larger
    q) to screen.
    """
    part, reg, a = spec.partition, spec.reg, spec.dataset.A
    if reg.name == "l1":
        return blockwise_dual_norms(spec.dataset.column_norms(), part, reg)
    widest = max(idx.shape[1] for _, idx in part.classes)
    if widest ** 2 > _GRAM_ENTRIES:
        raise ValueError(
            f"group-L2 screening bounds take a dense Gram per block; a block of "
            f"{widest} columns exceeds the limit of {math.isqrt(_GRAM_ENTRIES)}, "
            f"so use more, smaller blocks")
    out = np.empty(part.q)
    for ids, idx in part.classes:
        step = _GRAM_ENTRIES // idx.shape[1] ** 2
        for lo in range(0, ids.size, step):
            out[ids[lo:lo + step]] = _gram_sigma(a, idx[lo:lo + step])
    return out


def dual_point(spec, sample_grad, active, x=None):
    """Scaled dual candidate from the per-sample derivative vector.

    theta = -sample_grad / max(1, max_{j active} (1/n) Omega_j^D(A_j' g) / lam).
    With mu_p > 0 the current iterate x is required so the perturbation duals
    can be formed and scaled consistently.
    """
    ds = spec.dataset
    g = np.asarray(sample_grad, dtype=np.float64)
    if g.shape != (ds.n,):
        raise ValueError(f"sample_grad has shape {g.shape}, expected ({ds.n},)")
    corr = ds.rmatvec(g)
    gradient = corr / ds.n
    p = None
    if spec.mu_p > 0:
        if x is None:
            raise ValueError("x is required to build the dual point when mu_p > 0")
        x = np.asarray(x, dtype=np.float64)
        gradient = gradient + 2.0 * spec.mu_p * (x - spec.anchor)
        p = 2.0 * ds.n * spec.mu_p * (x - spec.anchor)  # pseudo-sample derivatives
        corr = corr + p
    per_block = blockwise_dual_norms(corr, spec.partition, spec.reg) / ds.n
    scale = 1.0
    if active.n_blocks > 0:
        scale = max(1.0, float(per_block[active.blocks].max()) / spec.lam)
    return DualPoint(theta=-g / scale, scale_used=scale,
                     kappa=None if p is None else -p / scale, gradient=gradient,
                     correlations=per_block / scale)


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


def evaluate(spec, x, z, active):
    """(objective, per-sample derivatives, dual point, gap) at x, where z = A x.

    The dual point is scaled over the active blocks, and the gap is
    duality_gap's P(x) - D(theta) for that point.
    """
    g = spec.loss.deriv(z, spec.dataset.y)
    obj = primal_objective(spec, x, z)
    dp = dual_point(spec, g, active, x=x)
    return obj, g, dp, obj - _dual_value(spec, dp, active)


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
    falls strictly below lam, with the correlations that dual_point stored in
    dp. An infinite radius removes nothing.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if active.n_blocks == 0 or not np.isfinite(r):
        return active
    corr = dp.correlations[active.blocks]
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
    return np.flatnonzero(dp.correlations >= spec.lam - tol).astype(np.intp)
