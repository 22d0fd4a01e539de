"""Dual points, duality gaps, safe radii, and the gap-safe block elimination test.

The primal objective is P(x) = mean_i f_i(a_i'x) + mu_p ||x||^2 + lam Omega(x).
The dual variable theta lives in sample space (length n): it is built from the
per-sample derivative vector (f_1'(a_1'x), ..., f_n'(a_n'x)) and rescaled so
that (1/n) * Omega_j^D(A_j' theta) <= lam on all q blocks. When the
quadratic perturbation mu_p ||x||^2 is enabled, each coordinate also
carries a pseudo-sample dual kappa_j; gap and screening are then computed for
the perturbed problem, so eliminations are safe for the perturbed optimum only.

dual_point forms the one product A'g of an evaluation and keeps in the
DualPoint what screen, equicorrelation_set and variance reduction read of it;
evaluate adds the objective, the dual value and the gap, and is the one
evaluation of every solver. Every dual point is scaled over all q blocks, so
its gap certifies the full problem whatever screening dropped; safe_radius
turns that gap into the radius of a sphere that holds the dual optimum, and
screen drops the blocks that sphere proves zero at the optimum.
"""

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from .problem import _vector, blockwise_dual_norms, primal_objective


@dataclasses.dataclass
class DualPoint:
    """Feasible dual candidate: theta over samples, optional kappa over features.

    dual_point also sets gradient, smooth_gradient at the iterate, and
    correlations, (1/n) Omega_j^D(A_j' theta + kappa_Gj) for every block j;
    evaluate sets value, the dual objective D(theta).
    """

    theta: np.ndarray
    scale_used: float
    kappa: np.ndarray = None
    gradient: np.ndarray = None
    correlations: np.ndarray = None
    value: float = None


@dataclasses.dataclass
class ActiveSet:
    """The blocks screening has not dropped, in increasing id, and their features."""

    blocks: np.ndarray
    features: np.ndarray
    partition: object

    @classmethod
    def full(cls, spec):
        """Every block of spec's partition."""
        part = spec.partition
        return cls(blocks=np.arange(part.q, dtype=np.intp),
                   features=np.arange(part.d, dtype=np.intp), partition=part)

    def keep(self, block_ids):
        """The set of the given blocks, whose features are listed in increasing order."""
        block_ids = np.asarray(block_ids, dtype=np.intp)
        kept = np.zeros(self.partition.q, dtype=bool)
        kept[block_ids] = True
        feats = np.flatnonzero(kept[self.partition.block_of])
        return ActiveSet(blocks=np.sort(block_ids), features=feats,
                         partition=self.partition)

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
    q) to screen. The bounds are computed once per dataset, penalty and
    partition layout, and returned read-only.
    """
    part, reg, ds = spec.partition, spec.reg, spec.dataset
    if reg.name != "l1":
        widest = int(part.sizes.max())
        if widest ** 2 > _GRAM_ENTRIES:
            raise ValueError(
                f"group-L2 screening bounds take a dense Gram per block; a block of "
                f"{widest} columns exceeds the limit of {math.isqrt(_GRAM_ENTRIES)}, "
                f"so use more, smaller blocks")

    def bounds():
        if reg.name == "l1":
            out = blockwise_dual_norms(ds.column_norms(), part, reg)
        else:
            out = np.empty(part.q)
            for ids, idx, _ in part.classes:
                step = _GRAM_ENTRIES // idx.shape[1] ** 2
                for lo in range(0, ids.size, step):
                    out[ids[lo:lo + step]] = _gram_sigma(ds.A, idx[lo:lo + step])
        out.flags.writeable = False
        return out

    return ds.memo(("column_bounds", reg.name) + part.layout_key, bounds)


def dual_point(spec, sample_grad, x=None):
    """Scaled dual candidate from the per-sample derivative vector.

    theta = -sample_grad / max(1, max_j (1/n) Omega_j^D(A_j' g) / lam), the
    maximum over all q blocks, so theta is feasible for the full problem.
    With mu_p > 0 the current iterate x, of shape (d,), is required so the
    perturbation duals can be formed and scaled consistently.
    """
    ds = spec.dataset
    g = _vector(sample_grad, ds.n, "sample_grad")
    corr = ds.rmatvec(g)
    gradient = corr / ds.n
    p = None
    if spec.mu_p > 0:
        if x is None:
            raise ValueError("x is required to build the dual point when mu_p > 0")
        x = _vector(x, ds.d, "x")
        gradient = gradient + 2.0 * spec.mu_p * x
        p = 2.0 * ds.n * spec.mu_p * x  # pseudo-sample derivatives
        corr = corr + p
    per_block = blockwise_dual_norms(corr, spec.partition, spec.reg) / ds.n
    scale = max(1.0, float(per_block.max()) / spec.lam)
    return DualPoint(theta=-g / scale, scale_used=scale,
                     kappa=None if p is None else -p / scale, gradient=gradient,
                     correlations=per_block / scale)


def _dual_value(spec, dp):
    """D(theta) = -(1/n) sum_i f_i*(-theta_i), extended with perturbation duals."""
    ds = spec.dataset
    conj = spec.loss.conjugate(-dp.theta, ds.y)
    if np.isinf(conj).any():
        return -np.inf
    val = -float(np.add.reduce(conj)) / ds.n
    if spec.mu_p > 0 and dp.kappa is not None:
        hstar = dp.kappa ** 2 / (4.0 * ds.n * spec.mu_p)
        val -= float(np.add.reduce(hstar)) / ds.n
    return val


def duality_gap(spec, x, dp):
    """P(x) - D(theta); an upper bound on the suboptimality when theta is feasible.

    An out-of-domain theta yields +inf, which signals that this iteration
    must not screen.
    """
    return primal_objective(spec, x) - _dual_value(spec, dp)


def evaluate(spec, x, z):
    """(objective, per-sample derivatives, dual point, gap) at x, where z = A x.

    The dual point is scaled over all q blocks and carries its dual value
    D(theta), and the gap is duality_gap's P(x) - D(theta) for that point.
    """
    g = spec.loss.deriv(z, spec.dataset.y)
    obj = primal_objective(spec, x, z)
    dp = dual_point(spec, g, x=x)
    dp.value = _dual_value(spec, dp)
    return obj, g, dp, obj - dp.value


def safe_radius(spec, gap):
    """sqrt(2 n gap max(c, 2 n mu_p)), c the loss curvature; a negative gap counts as 0.

    The sphere of this radius around a dual feasible point holds the dual
    optimum (the Gap Safe sphere of Ndiaye, Fercoq, Gramfort & Salmon, JMLR
    2017). If the dual D is gamma-strongly concave, its maximiser u* over the
    feasible set satisfies D(u*) - D(u) >= (gamma / 2) ||u - u*||^2 for every
    feasible u, and weak duality gives D(u*) <= P(x), so ||u - u*||^2 <=
    2 (P(x) - D(u)) / gamma = 2 gap / gamma.

    Here u stacks theta (one entry per sample) and kappa (one per feature):
    D = -(1/n) sum_i f_i*(-theta_i) - (1/n) sum_j h_j*(-kappa_j), where the
    pseudo-sample h_j(t) = n mu_p t^2 writes the perturbation mu_p ||x||^2
    as (1/n) sum_j h_j(x_j). A c-smooth f_i has a (1/c)-strongly convex
    conjugate, and h_j is 2 n mu_p-smooth, so D is strongly concave with
    gamma = 1 / (n max(c, 2 n mu_p)), and without the perturbation (no
    kappa) with gamma = 1 / (n c). Both give the radius above. Every dual
    point is scaled over all q blocks, so it is feasible for the full problem
    whatever screening dropped. A non-finite gap gives an infinite radius,
    which screens nothing.
    """
    if not np.isfinite(gap):
        return np.inf
    c = max(spec.loss.curvature, 2.0 * spec.dataset.n * spec.mu_p)
    return math.sqrt(2.0 * spec.dataset.n * c * max(gap, 0.0))


def _rounding(spec, *values):
    """(n + d) eps (|v_1| + |v_2| + ...), the bound on the rounding of the
    objectives and dual values given: each of P and D sums at most n + d
    terms of its own order, so each computed value lies within (n + d) eps
    of itself of the true one, and a difference of them within this sum."""
    ds = spec.dataset
    return (ds.n + ds.d) * np.finfo(np.float64).eps * sum(abs(v) for v in values)


def _padded_gap(spec, evaluation):
    """An evaluation's gap plus its rounding bound _rounding(P, D): the
    computed P - D may sit that far below the true gap, at or below 0 off
    the optimum, where safe_radius would give 0. A non-finite gap stays so."""
    obj, _, dp, gap = evaluation
    return gap + _rounding(spec, obj, dp.value)


def screen(spec, dp, r, active, bounds):
    """Drop every active block certified zero at the optimum by the sphere test.

    Block j is removed when (1/n) Omega_j^D(A_j' theta + kappa_Gj) +
    (1/n) b_j r falls strictly below lam, with the correlations that
    dual_point stored in dp, r from safe_radius and bounds from
    column_bounds, one per block of the partition. b_j bounds how far the
    block's correlation can move inside the sphere: it is Omega_j^D(A_j)
    without the perturbation, and with mu_p > 0 the norm of the stacked map
    (theta, kappa) -> A_j' theta + kappa_Gj, sqrt(Omega_j^D(A_j)^2 + 1). For
    the max-abs (L1) dual norm that is sqrt(||a_i||^2 + 1) at the block's
    longest column a_i, since |a_i' u + v_i| <= ||(a_i, 1)|| ||(u, v_i)||; for
    the Euclidean (group-L2) one it is the spectral norm of [A_j' I], whose
    square is the largest eigenvalue of A_j' A_j + I. Every block outside the
    sphere's reach is zero at the optimum. An infinite radius removes nothing.
    """
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if active.n_blocks == 0 or not np.isfinite(r):
        return active
    corr = dp.correlations[active.blocks]
    bounds = bounds[active.blocks]
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
