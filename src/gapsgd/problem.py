"""Problem definitions: datasets, losses, block-separable penalties, derived constants.

Everything here is immutable after construction and safe to share across
concurrent solver runs; the operations are pure functions of their inputs.
A Dataset keeps the design constants that every solve would otherwise
recompute (Dataset.memo), each a pure function of the design and its key,
so concurrent solves at worst compute one twice, to the same bits.

BlockPartition is the one block layout: the problem's partition, and the
solvers' working design over the surviving blocks, are each one. The working
design numbers its columns block by block, so its layouts are consecutive
ranges, built from the block sizes with array operations alone
(BlockPartition.from_sizes). A penalty's block_prox shrinks one block, or,
given a partition's size classes, a whole vector at once, and writes into
out when given one, which may be v itself. For group-L2 the whole-vector prox
and the penalty value work per size class: they gather the k blocks of size s
into a (k, s) array and take all k norms with one row-wise sum.
"""

import dataclasses
import functools
import hashlib
import math

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, xlogy

# scipy's compiled CSR loops, from its private module scipy.sparse._sparsetools
# (checked against scipy 1.17), imported here alone: the row gather
# _gather_rows and the sparse step kernel solvers.step_gradient run on them.
# They check no bounds, so every index array they get comes from the
# engine's working design or from a batch that passed solvers._check_batch,
# and is intp. csr_matvec adds each row's products to its output in entry
# order, and csc_matvec each product into its output row in entry order: the
# sums np.bincount forms over the same products, to the same bits.
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index


class DegenerateProblemError(ValueError):
    """Raised when the design matrix carries no information (all zeros)."""


def _is_count(v):
    """Whether v is a Python or numpy integer; a bool is neither a count nor a block."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def soft_threshold(v, t, out=None):
    """Coordinate-wise shrinkage sign(v) * max(|v| - t, 0), as v - clip(v, -t, t).

    Both forms round alike: away from the threshold each subtracts t from |v|
    once, and within it each gives a zero, which the clip form makes +0.0
    where the sign form may give -0.0. nan and +-inf pass through as in the
    sign form. out may be v itself.
    """
    clip = np.maximum(v, -t)
    np.minimum(clip, t, out=clip)
    return np.subtract(v, clip, out=out)


class Dataset:
    """Sparse design matrix, stored once as CSR, plus responses.

    Parameters
    ----------
    matrix : array or scipy sparse matrix, shape (n, d)
    y : array, shape (n,)
        Real responses for regression; {0, 1} labels for logistic models.
    x_true : array of shape (d,), or None
        Planted coefficients when the data is synthetic; purely informational.

    Raises ValueError when a matrix entry, a response or an entry of x_true
    is not finite, or when y or x_true has the wrong shape.
    """

    def __init__(self, matrix, y, x_true=None):
        a = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        a.sum_duplicates()  # also sorts every row's column indices
        n, d = a.shape
        if n < 1 or d < 1:
            raise ValueError(f"dataset must be non-empty, got shape {(n, d)}")
        if not np.all(np.isfinite(a.data)):
            raise ValueError("design matrix holds non-finite entries")
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.shape[0] != n:
            raise ValueError(f"y has {y.shape[0]} entries, expected {n}")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses hold non-finite values")
        self.n = n
        self.d = d
        self.A = a
        self.y = y
        if x_true is not None:
            x_true = np.asarray(x_true, dtype=np.float64)
            if x_true.shape != (d,):
                raise ValueError(f"x_true has shape {x_true.shape}, expected {(d,)}")
            if not np.all(np.isfinite(x_true)):
                raise ValueError("x_true holds non-finite values")
        self.x_true = x_true
        for arr in (a.data, a.indices, a.indptr, y):
            arr.flags.writeable = False
        # scipy's transpose of a CSR matrix is a CSC view of the same three
        # arrays: nothing is copied, and A'v gives the bits of A.T @ v
        self._at = a.T
        self._memo = {}

    def rmatvec(self, v):
        """A'v, as smooth_gradient, dual_point and lambda_max form it.

        The product runs on one transposed view kept with the dataset, so
        no call builds a transposed matrix. The spectral bound's power
        iteration builds its own view once per call; the support refinement
        (of the screening solvers and the reference) uses column slices of
        A, and so do the group-L2 screening bounds' block Gram matrices,
        formed once per dataset and partition (memo): a cold solve pays
        for them, a later one on the same dataset and layout does not.
        """
        return self._at @ v

    def memo(self, key, compute):
        """compute(), run on the first call with this key and kept with the dataset.

        For the design constants that every solve would otherwise recompute:
        key names the constant and all it depends on beyond the design, such
        as the penalty name and BlockPartition.layout_key.
        """
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def column_norms(self):
        """Euclidean norm of every column."""
        return np.sqrt(np.bincount(self.A.indices, weights=self.A.data ** 2,
                                   minlength=self.d))


class BlockPartition:
    """Ordered disjoint coordinate groups covering {0..d-1}, each sorted.

    order lists the coordinates block by block, and block j holds
    groups[j] = order[offsets[j]:offsets[j + 1]]. Coordinate i lies in block
    block_of[i]. classes groups the blocks by size for the group-L2 penalty's
    full-vector value and prox: one (ids, idx) pair per distinct size s, in
    increasing s, where ids holds the ranks of the k blocks of that size in
    increasing order and row i of the (k, s) array idx is groups[ids[i]].
    groups and classes are built when first read, so a layout that no caller
    asks them of costs array operations only. Group indices and sizes must
    be integers, not floats or bools.
    """

    def __init__(self, groups):
        groups = list(groups)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        if not groups or not sizes.all():
            raise ValueError("every group must be non-empty")
        order = np.concatenate(groups)
        if order.dtype.kind not in "iu":
            raise ValueError(f"group indices must be integers, got dtype {order.dtype}")
        order = order.astype(np.intp, copy=False)
        d = order.size
        rising = np.diff(order) > 0
        rising[np.cumsum(sizes)[:-1] - 1] = True  # a new block may start anywhere
        if not rising.all():
            raise ValueError("group indices must be sorted and unique")
        # d indices in [0, d - 1] partition it when each value occurs
        if order.min() != 0 or order.max() != d - 1 or not np.bincount(order).all():
            raise ValueError("groups must partition {0..d-1}")
        self._lay_out(order, sizes)

    @classmethod
    def from_sizes(cls, sizes):
        """Consecutive ranges of the given positive sizes, in order."""
        sizes = np.asarray(sizes)
        if sizes.size and sizes.dtype.kind not in "iu":
            raise ValueError(f"sizes must be integers, got dtype {sizes.dtype}")
        sizes = sizes.astype(np.intp, copy=False)
        if not sizes.size or sizes.min() < 1:
            raise ValueError("every size must be at least 1")
        part = cls.__new__(cls)
        part._lay_out(np.arange(sizes.sum()), sizes)
        return part

    def _lay_out(self, order, sizes):
        d, q = order.size, sizes.size
        self.d = d
        self.q = q
        self.sizes = sizes
        self.order = order
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.block_of = np.empty(d, dtype=np.intp)
        self.block_of[order] = np.repeat(np.arange(q), sizes)
        self.block_of.flags.writeable = False

    @functools.cached_property
    def layout_key(self):
        """The sizes' bytes and a 128-bit digest of order: equal for partitions
        of one layout, and O(q) bytes however wide the design."""
        return self.sizes.tobytes(), hashlib.blake2b(self.order, digest_size=16).digest()

    @functools.cached_property
    def groups(self):
        return np.split(self.order, self.offsets[1:-1])

    @functools.cached_property
    def classes(self):
        out = []
        for s in np.flatnonzero(np.bincount(self.sizes)).tolist():
            ids = np.flatnonzero(self.sizes == s)
            out.append((ids, self.order[self.offsets[ids, None] + np.arange(s)]))
        return out

    @classmethod
    def contiguous(cls, d, q):
        """q consecutive ranges of near-equal size, the longer ones first."""
        if not (_is_count(d) and _is_count(q)):
            raise ValueError(f"d and q must be integers, got d={d!r}, q={q!r}")
        if not 1 <= q <= d:
            raise ValueError(f"need 1 <= q <= d, got q={q}, d={d}")
        return cls.from_sizes(d // q + (np.arange(q) < d % q))

    @classmethod
    def singletons(cls, d):
        return cls.contiguous(d, d)


class SquaredLoss:
    """Per-sample 0.5 * (y_i - z)^2."""

    name = "squared"
    curvature = 1.0

    def value(self, z, y):
        return 0.5 * (y - z) ** 2

    def deriv(self, z, y):
        return z - y

    def second_deriv(self, z, y):
        return np.ones(np.shape(z))

    def conjugate(self, u, y):
        return 0.5 * u * u + u * y

    def validate_labels(self, y):
        pass


class LogisticLoss:
    """Per-sample -y_i * z + log(1 + exp(z)) with labels in {0, 1}."""

    name = "logistic"
    curvature = 0.25

    def value(self, z, y):
        return np.logaddexp(0.0, z) - y * z

    def deriv(self, z, y):
        return expit(z) - y

    def second_deriv(self, z, y):
        s = expit(z)
        return s * (1.0 - s)

    def conjugate(self, u, y):
        # finite only for u + y in [0, 1]; +inf signals an infeasible dual point
        t = np.asarray(u + y, dtype=np.float64)
        out = np.full(t.shape, np.inf)
        ok = (t >= -1e-12) & (t <= 1.0 + 1e-12)
        tc = np.clip(t[ok], 0.0, 1.0)
        out[ok] = xlogy(tc, tc) + xlogy(1.0 - tc, 1.0 - tc)
        return out

    def validate_labels(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss requires labels in {0, 1}")


class L1Penalty:
    """Sum of absolute values; blocks of any size, dual norm is the max-abs."""

    name = "l1"

    def value(self, x, partition):
        return float(np.sum(np.abs(x)))

    def block_prox(self, v, t, classes=None, out=None):
        """Soft thresholding. It is coordinate-wise, so it ignores the block layout."""
        return soft_threshold(v, t, out)


class GroupL2Penalty:
    """Euclidean norm per block; self-dual."""

    name = "group_l2"

    def value(self, x, partition):
        norms = np.empty(partition.q)
        for ids, idx in partition.classes:
            norms[ids] = np.sqrt((x[idx] ** 2).sum(axis=1))
        # summed in block order, left to right, as the per-block loop did
        return float(sum(norms.tolist()))

    def block_prox(self, v, t, classes=None, out=None):
        """Block soft thresholding: v scaled by 1 - t/||v||, or +0.0 where ||v|| <= t.

        With classes (a BlockPartition's) v is a whole vector and every block
        is shrunk at once. Each row sum of a (k, s) gather adds the same terms
        in the same order as the sum over that one block, so both paths give
        the same bits. The result goes to out when given, which may be v:
        every block is gathered before out is written.
        """
        if classes is None:
            nrm = math.sqrt(np.add.reduce(v * v))
            if nrm <= t:
                if out is None:
                    return np.zeros(v.shape)
                out.fill(0.0)
                return out
            return np.multiply(v, 1.0 - t / nrm, out=out)
        blocks = [(idx, v[idx]) for _, idx in classes]
        if out is None:
            out = np.zeros(v.shape)
        else:
            out.fill(0.0)
        for idx, blk in blocks:
            nrm = np.sqrt((blk ** 2).sum(axis=1))
            keep = ~(nrm <= t)  # a nan norm passes through, as on one block
            out[idx[keep]] = (1.0 - t / nrm[keep])[:, None] * blk[keep]
        return out


LOSSES = {"squared": SquaredLoss(), "logistic": LogisticLoss()}
REGULARIZERS = {"l1": L1Penalty(), "group_l2": GroupL2Penalty()}


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """A fully specified sparsity-regularized risk minimization instance.

    The objective is  mean_i f_i(a_i' x) + mu_p * ||x||^2 + lam * sum_j Omega_j(x_Gj).
    """

    dataset: Dataset
    partition: BlockPartition
    loss: object
    reg: object
    lam: float
    mu_p: float = 0.0

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.mu_p < math.inf:
            raise ValueError(f"mu_p must be nonnegative and finite, got {self.mu_p}")
        if self.partition.d != self.dataset.d:
            raise ValueError("partition does not cover the dataset features")
        self.loss.validate_labels(self.dataset.y)


@dataclasses.dataclass(frozen=True)
class LipschitzConstants:
    """Per-sample smoothness bounds: L is block-wise, T covers the full gradient."""

    L: float
    T: float


def _check_x(spec, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dataset.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({spec.dataset.d},)")
    return x


def smooth_value(spec, x, z):
    """mean_i f_i(z_i) + mu_p ||x||^2, where z = A x."""
    val = float(np.mean(spec.loss.value(z, spec.dataset.y)))
    if spec.mu_p > 0:
        val += spec.mu_p * float(np.sum(x ** 2))
    return val


def smooth_gradient(spec, x, g):
    """A'g / n + 2 mu_p x, where g holds the per-sample derivatives at x."""
    ds = spec.dataset
    out = ds.rmatvec(g) / ds.n
    if spec.mu_p > 0:
        out = out + 2.0 * spec.mu_p * x
    return out


def primal_objective(spec, x, z=None):
    """mean_i f_i(a_i' x) + mu_p ||x||^2 + lam * Omega(x); z = A x if known."""
    x = _check_x(spec, x)
    z = spec.dataset.A @ x if z is None else z
    return smooth_value(spec, x, z) + spec.lam * spec.reg.value(x, spec.partition)


def full_gradient(spec, x):
    """Gradient of the smooth part (loss mean plus the quadratic perturbation)."""
    x = _check_x(spec, x)
    ds = spec.dataset
    return smooth_gradient(spec, x, spec.loss.deriv(ds.A @ x, ds.y))


def _gather_rows(indptr, entries, batch):
    """The stored entries of the given rows, in batch order, copied by one
    compiled csr_row_index call.

    Row r's entries are entries[k][indptr[r]:indptr[r + 1]], and batch is one
    batch of row indices or a (c, b) array of c batches, intp and in [0, n),
    since the compiled loop checks no bounds. Returns (cols, vals, rp): the
    rows' entries, row i of the flattened batch holding [rp[i], rp[i + 1]).
    Repeated rows are kept (weighted sampling).
    """
    rows = batch.ravel()
    rp = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=rp[1:])
    cols, vals = np.empty(rp[-1], dtype=np.intp), np.empty(rp[-1])
    csr_row_index(rows.size, rows, indptr, entries[0], entries[1], cols, vals)
    return cols, vals, rp


def lipschitz_constants(spec):
    """Data-driven smoothness bounds.

    L = c * max_i max_j ||a_{i,Gj}||^2 and T = c * max_i ||a_i||^2, where c is
    the loss curvature (1 for squared error, 1/4 for logistic); the quadratic
    perturbation shifts both by 2 * mu_p. The (row, block) pieces are found
    in O(nnz) time and memory: a stable argsort of their keys lists each
    piece's entries in CSR order, so one bincount over the piece numbers adds
    the same terms in the same order as a dense n x q table would.
    """
    ds, part = spec.dataset, spec.partition
    a = ds.A
    rows = np.repeat(np.arange(ds.n), np.diff(a.indptr))
    sq = a.data ** 2
    row_sq = np.bincount(rows, weights=sq, minlength=ds.n)
    if row_sq.max() == 0.0:
        raise DegenerateProblemError("design matrix is all zeros")
    keys = rows * part.q + part.block_of[a.indices]
    order = np.argsort(keys, kind="stable")
    piece = np.cumsum(np.diff(keys[order], prepend=-1) != 0) - 1
    per_piece = np.bincount(piece, weights=sq[order])
    c = spec.loss.curvature
    shift = 2.0 * spec.mu_p
    return LipschitzConstants(
        L=float(c * per_piece.max() + shift),
        T=float(c * row_sq.max() + shift),
    )


def blockwise_dual_norms(vec, partition, reg):
    """Omega_j^D(vec_Gj) for every block, for the L1 or the group-L2 penalty."""
    vec = np.asarray(vec, dtype=np.float64)
    if isinstance(reg, GroupL2Penalty):
        return np.sqrt(np.bincount(partition.block_of, weights=vec ** 2,
                                   minlength=partition.q))
    return np.maximum.reduceat(np.abs(vec)[partition.order], partition.offsets[:-1])


def lambda_max(spec):
    """Smallest regularization weight at which the zero vector is optimal.

    Evaluated at x = 0, where the perturbation mu_p ||x||^2 is centred, so its
    gradient 2 mu_p x contributes nothing. spec.lam itself is ignored.
    """
    ds = spec.dataset
    g0 = spec.loss.deriv(np.zeros(ds.n), ds.y)
    corr = ds.rmatvec(g0) / ds.n
    return float(blockwise_dual_norms(corr, spec.partition, spec.reg).max())
