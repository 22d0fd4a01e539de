"""Problem definitions: datasets, losses, block-separable penalties, derived constants.

Everything here is immutable after construction and safe to share across
concurrent solver runs; the operations are pure functions of their inputs.
A Dataset keeps the design constants that every solve would otherwise
recompute (Dataset.memo), each a pure function of the design and its key,
so concurrent solves at worst compute one twice, to the same bits. Every
product with the whole design is Dataset.matvec's or Dataset.rmatvec's, and
every read of its columns is _cut's or _column_rows', from one column index
per dataset: no module outside this one takes a column of A.

BlockPartition is the one block layout: the problem's partition, and the
solvers' working design over the surviving blocks, are each one. The working
design numbers its columns block by block, so its layouts are consecutive
ranges, built from the block sizes with array operations alone
(BlockPartition.from_sizes). A penalty's block_prox shrinks one block, or,
given a partition's size classes, a whole vector at once, and writes into
out when given one, which may be v itself. For group-L2 the whole-vector prox
and the penalty value work per size class: they take the k blocks of size s
as a (k, s) array and all k norms with one row-wise sum. The prox reads a
class that is one run of coordinates as a view, and gathers any other.
"""

import dataclasses
import functools
import hashlib
import math
import mmap

import numpy as np
import scipy.sparse as sp
from scipy.special import expit, xlogy

# scipy's compiled CSR loops, from its private module scipy.sparse._sparsetools
# (checked against scipy 1.17), imported here alone: Dataset.matvec and
# Dataset.rmatvec, the row gather _gather_rows, the column reads _column_rows
# and _cut and the sparse step kernel solvers.step_gradient run on them. They
# check no bounds, so every index array they get comes from the dataset's
# CSR, a working design, the column index or a batch that passed
# solvers._check_batch, in one index type a call, and every vector they read
# has the length its call states. csr_matvec adds each
# row's products to its output in entry order, and csc_matvec each product
# into its output row in entry order: the sums np.bincount forms over the
# same products, to the same bits. csr_tocsc, a counting sort, lists each
# output row's entries in increasing input row, as A.tocsc() does.
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, csr_row_index, csr_tocsc


class DegenerateProblemError(ValueError):
    """Raised when the design matrix carries no information (all zeros)."""


def _is_count(v):
    """Whether v is a Python or numpy integer; a bool is neither a count nor a block."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v):
    """Whether v is a Python or numpy real number; a bool, Python's or numpy's,
    is not a step size, a tolerance or a weight."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _vector(v, size, name):
    """v as a C-contiguous float64 vector of size entries, as the compiled
    loops read it, copied only where it is not one; ValueError naming it as
    name on any other shape, since those loops check no bounds. The one
    shape check of every vector the public functions take."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (size,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({size},)")
    return np.ascontiguousarray(v)


# numpy's compiled clip ufunc (numpy >= 2.0), looked up once. One pass of it
# gives the bits of np.maximum then np.minimum: the prox takes 1.9 us on 5,000
# columns and 0.75 us on 100, against 5.5 and 1.1 us with those two. np.clip
# (1.7 us) and ndarray.clip (1.1 us) run it behind Python wrappers that eat
# the gain on 100 columns.
_clip = np._core.umath.clip


def soft_threshold(v, t, out=None):
    """Coordinate-wise shrinkage sign(v) * max(|v| - t, 0), as v - clip(v, -t, t).

    Two calls: numpy's compiled clip ufunc (_clip), then one subtract. Both
    forms round alike: away from the threshold each subtracts t from |v|
    once, and within it each gives a zero, which the clip form makes +0.0
    where the sign form may give -0.0. nan and +-inf pass through as in the
    sign form. out may be v itself.
    """
    return np.subtract(v, _clip(v, -t, t), out=out)


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
            x_true = _vector(x_true, d, "x_true")
            if not np.all(np.isfinite(x_true)):
                raise ValueError("x_true holds non-finite values")
        self.x_true = x_true
        for arr in (a.data, a.indices, a.indptr, y):
            arr.flags.writeable = False
        self._memo = {}

    def matvec(self, x):
        """A x, by one csr_matvec call on the stored CSR arrays into zeros: the
        bits of A @ x without scipy's operator dispatch. The arrays share the
        one index type scipy's CSR keeps; x must hold d real entries, and a
        wrong length raises ValueError before the compiled loop, which
        checks no bounds, reads it."""
        a = self.A
        z = np.zeros(self.n)
        csr_matvec(self.n, self.d, a.indptr, a.indices, a.data, _vector(x, self.d, "x"), z)
        return z

    def rmatvec(self, v):
        """A'v, by one csc_matvec call that reads the stored CSR arrays as the
        CSC of A' into zeros: the bits of A.T @ v, with no transposed matrix
        built and no operator dispatch. v must hold n real entries; a wrong
        length raises ValueError before the compiled loop reads it.
        """
        a = self.A
        out = np.zeros(self.d)
        csc_matvec(self.d, self.n, a.indptr, a.indices, a.data, _vector(v, self.n, "v"), out)
        return out

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
    full-vector value and prox: one (ids, idx, run) triple per distinct size
    s, in increasing s, where ids holds the ranks of the k blocks of that
    size in increasing order and row i of the (k, s) array idx is
    groups[ids[i]]. run is slice(lo, hi) where idx lists the coordinates
    lo:hi in order, so the class is one contiguous run, as every class of a
    contiguous layout is, else None. groups and classes are built when first
    read, so a layout that no caller asks them of costs array operations
    only. Group indices and sizes must be integers, not floats or bools.
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
            idx = self.order[self.offsets[ids, None] + np.arange(s)]
            lo = int(idx[0, 0])
            run = (slice(lo, lo + idx.size)
                   if np.array_equal(idx.ravel(), np.arange(lo, lo + idx.size)) else None)
            out.append((ids, idx, run))
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

    def derivs(self, z, y):
        """(f', f'') at z, from one call: deriv's bytes and ones."""
        return z - y, np.ones(np.shape(z))

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

    def derivs(self, z, y):
        """(f', f'') at z, from one expit: deriv's bytes and s (1 - s)."""
        s = expit(z)
        return s - y, s * (1.0 - s)

    def conjugate(self, u, y):
        # finite only for u + y in [0, 1]; +inf signals an infeasible dual point
        t = np.asarray(u + y, dtype=np.float64)
        ok = (t >= -1e-12) & (t <= 1.0 + 1e-12)
        tc = np.clip(t, 0.0, 1.0)
        return np.where(ok, xlogy(tc, tc) + xlogy(1.0 - tc, 1.0 - tc), np.inf)

    def validate_labels(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss requires labels in {0, 1}")


class L1Penalty:
    """Sum of absolute values; blocks of any size, dual norm is the max-abs."""

    name = "l1"

    def value(self, x, partition):
        return float(np.add.reduce(np.abs(x)))

    def block_prox(self, v, t, classes=None, out=None):
        """Soft thresholding. It is coordinate-wise, so it ignores the block layout."""
        return soft_threshold(v, t, out)


class GroupL2Penalty:
    """Euclidean norm per block; self-dual."""

    name = "group_l2"

    def value(self, x, partition):
        norms = np.empty(partition.q)
        for ids, idx, _ in partition.classes:
            norms[ids] = np.sqrt((x[idx] ** 2).sum(axis=1))
        # summed in block order, left to right, as the per-block loop did
        return float(sum(norms.tolist()))

    def block_prox(self, v, t, classes=None, out=None):
        """Block soft thresholding: v scaled by 1 - t/||v||, or +0.0 where ||v|| <= t.

        With classes (a BlockPartition's) v is a whole vector and every block
        is shrunk at once, one size class at a time, each block scaled by
        1 - t / max(||v||, t) and then set to +0.0 where ||v|| <= t. A class
        that is one run of coordinates is read as a (k, s) view of v and
        written into the same view of out; any other is gathered into a
        (k, s) array and scattered back. Each row sum of a (k, s) array adds
        the same terms in the same order as the sum over that one block, so
        both paths give the bits of the one-block prox, -0.0 in kept blocks
        included. A nan block passes through, as on one block. The result
        goes to out when given, which may be v: the classes are disjoint, and
        each is read before its own coordinates are written.
        """
        if classes is None:
            nrm = math.sqrt(np.add.reduce(v * v))
            if nrm <= t:
                if out is None:
                    return np.zeros(v.shape)
                out.fill(0.0)
                return out
            return np.multiply(v, 1.0 - t / nrm, out=out)
        if out is None:
            out = np.empty(v.shape)
        # the divisor's floor: t, or under t = 0 the least subnormal, which
        # leaves every nonzero norm as it is and keeps 0 / 0 out of a zero block
        floor = t if t > 0 else 5e-324
        for _, idx, run in classes:
            if run is None:
                blk = dst = v[idx]
            else:
                blk, dst = v[run].reshape(idx.shape), out[run].reshape(idx.shape)
            nrm = np.sqrt(np.add.reduce(blk * blk, axis=1))
            shrink = np.maximum(nrm, floor)
            np.divide(t, shrink, out=shrink)
            np.subtract(1.0, shrink, out=shrink)
            np.multiply(blk, shrink[:, None], out=dst)
            np.copyto(dst, 0.0, where=(nrm <= t)[:, None])
            if run is None:
                out[idx] = dst
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
        if not (_is_real(self.lam) and 0 < self.lam < math.inf):
            raise ValueError(f"lam must be positive and finite, got {self.lam!r}")
        if not (_is_real(self.mu_p) and 0 <= self.mu_p < math.inf):
            raise ValueError(f"mu_p must be nonnegative and finite, got {self.mu_p!r}")
        if self.partition.d != self.dataset.d:
            raise ValueError("partition does not cover the dataset features")
        self.loss.validate_labels(self.dataset.y)


@dataclasses.dataclass(frozen=True)
class LipschitzConstants:
    """Per-sample smoothness bounds: L is block-wise, T covers the full gradient."""

    L: float
    T: float


def smooth_value(spec, x, z):
    """mean_i f_i(z_i) + mu_p ||x||^2, where z = A x."""
    ds = spec.dataset
    val = float(np.add.reduce(spec.loss.value(z, ds.y))) / ds.n  # np.mean's bits
    if spec.mu_p > 0:
        val += spec.mu_p * float(np.add.reduce(x * x))
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
    x = _vector(x, spec.dataset.d, "x")
    z = spec.dataset.matvec(x) if z is None else z
    return smooth_value(spec, x, z) + spec.lam * spec.reg.value(x, spec.partition)


def full_gradient(spec, x):
    """Gradient of the smooth part (loss mean plus the quadratic perturbation)."""
    ds = spec.dataset
    x = _vector(x, ds.d, "x")
    return smooth_gradient(spec, x, spec.loss.deriv(ds.matvec(x), ds.y))


def _gather_rows(indptr, entries, batch):
    """The stored entries of the given rows, in batch order, copied by one
    compiled csr_row_index call.

    Row r's entries are entries[k][indptr[r]:indptr[r + 1]], and batch is one
    batch of row indices or a (c, b) array of c batches, intp and in [0, n),
    since the compiled loop checks no bounds. Returns (cols, vals, rp): the
    rows' entries, row i of the flattened batch holding [rp[i], rp[i + 1]),
    cols and rp in the design's index type. Repeated rows are kept (weighted
    sampling), so a batch may gather more entries than the design stores:
    where they would pass its index type's range, the gather runs in intp.
    """
    rows = batch.ravel()
    rp = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=rp[1:])
    index = indptr.dtype if rp[-1] <= np.iinfo(indptr.dtype).max else np.intp
    rows, rp, indptr, cols = (v.astype(index, copy=False) for v in (rows, rp, indptr, entries[0]))
    out, vals = np.empty(rp[-1], dtype=index), np.empty(rp[-1])
    csr_row_index(rows.size, rows, indptr, cols, entries[1], out, vals)
    return out, vals, rp


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


def _column_rows(ds, ids):
    """(rp, rows, vals): the dataset's columns ids, in that order, as the rows
    of a (k, n) CSR in the column index's index type, column ids[j] holding
    [rp[j], rp[j + 1]) with their row ids in increasing order. One
    csr_row_index call gathers them from the column index, the CSR of A',
    kept with the dataset (memo key ("columns",)) from the first read that
    needs it: the stored index type, int32 while it fits, 12 bytes per
    stored entry and 4 per column."""
    indptr, indices, data = ds.memo(("columns",), lambda: _column_index(ds.A))
    ids = ids.astype(indptr.dtype)  # the compiled loop takes one index type
    rp = np.zeros(ids.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr[ids + 1] - indptr[ids], out=rp[1:])
    rows, vals = np.empty(rp[-1], dtype=indptr.dtype), np.empty(rp[-1])
    csr_row_index(ids.size, ids, indptr, indices, data, rows, vals)
    return rp, rows, vals


def _cut(ds, ids):
    """(indptr, cols, vals): A[:, ids] as CSR in the stored index type, each
    row's entries in increasing position in ids: the columns gathered from
    the column index (_column_rows), at a cost in their entries and n, then
    transposed by csr_tocsc. The working designs' cuts and the group-L2 Gram
    slices (duality._gram_sigma) read A's columns here."""
    rp, rows, vals = _column_rows(ds, ids)
    indptr = np.empty(ds.n + 1, dtype=rp.dtype)
    cols, kept = np.empty(rows.size, dtype=rp.dtype), np.empty(rows.size)
    csr_tocsc(ids.size, ds.n, rp, rows, vals, indptr, cols, kept)
    return indptr, cols, kept


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
    if reg.name == "l1":
        return np.maximum.reduceat(np.abs(vec)[partition.order], partition.offsets[:-1])
    return np.sqrt(np.bincount(partition.block_of, weights=vec ** 2, minlength=partition.q))


def lambda_max(spec):
    """Smallest regularization weight at which the zero vector is optimal.

    Evaluated at x = 0, where the perturbation mu_p ||x||^2 is centred, so its
    gradient 2 mu_p x contributes nothing. spec.lam itself is ignored.
    """
    ds = spec.dataset
    g0 = spec.loss.deriv(np.zeros(ds.n), ds.y)
    corr = ds.rmatvec(g0) / ds.n
    return float(blockwise_dual_norms(corr, spec.partition, spec.reg).max())
