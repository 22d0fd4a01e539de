import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import gapsgd as G
from gapsgd.problem import blockwise_dual_norms, soft_threshold

from conftest import hand_lasso, make_instance


def random_spec(seed, n=20, d=15, model="lasso", q=5, mu_p=0.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d)) * (rng.random(size=(n, d)) < 0.6)
    if model == "lasso":
        y = rng.normal(size=n)
        loss = G.LOSSES["squared"]
    else:
        y = (rng.random(n) < 0.5).astype(float)
        loss = G.LOSSES["logistic"]
    ds = G.Dataset(a, y)
    return G.ProblemSpec(dataset=ds, partition=G.BlockPartition.contiguous(d, q),
                         loss=loss, reg=G.REGULARIZERS["l1"], lam=0.7, mu_p=mu_p)


def smooth_part(spec, x):
    z = spec.dataset.A @ x
    val = float(np.mean(spec.loss.value(z, spec.dataset.y)))
    if spec.mu_p > 0:
        val += spec.mu_p * float(np.sum(x ** 2))
    return val


# ---------------------------------------------------------------- objective

def test_primal_objective_zero_iterate_lasso():
    spec = make_instance(seed=1, n=40, d=30)
    expected = float(np.sum(spec.dataset.y ** 2)) / (2 * spec.dataset.n)
    assert math.isclose(G.primal_objective(spec, np.zeros(30)), expected, rel_tol=1e-12)


def test_primal_objective_hand_value():
    spec = hand_lasso()
    assert math.isclose(G.primal_objective(spec, np.zeros(2)), 0.5, rel_tol=1e-15)


def test_primal_objective_logistic_zero_labels():
    ds = G.Dataset(np.eye(3), np.zeros(3))
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(3),
                         loss=G.LOSSES["logistic"], reg=G.REGULARIZERS["l1"], lam=1.0)
    assert math.isclose(G.primal_objective(spec, np.zeros(3)), math.log(2), rel_tol=1e-12)


def test_primal_objective_dimension_mismatch():
    spec = hand_lasso()
    with pytest.raises(ValueError):
        G.primal_objective(spec, np.zeros(3))


# ----------------------------------------------------------------- gradient

def test_full_gradient_hand_value():
    spec = hand_lasso()
    np.testing.assert_allclose(G.full_gradient(spec, np.zeros(2)), [1.0, 1.0],
                               rtol=0, atol=1e-15)


def test_full_gradient_stationary_at_least_squares():
    spec = random_spec(seed=3, n=25, d=10)
    a = np.asarray(spec.dataset.A.todense())
    xstar = np.linalg.lstsq(a, spec.dataset.y, rcond=None)[0]
    g = G.full_gradient(spec, xstar)
    assert np.max(np.abs(g)) < 1e-10


@pytest.mark.parametrize("model,mu_p", [("lasso", 0.0), ("logistic", 0.0),
                                        ("lasso", 0.3), ("logistic", 0.05)])
def test_full_gradient_matches_central_differences(model, mu_p):
    spec = random_spec(seed=11, n=20, d=15, model=model, mu_p=mu_p)
    rng = np.random.default_rng(7)
    x = rng.normal(size=15)
    g = G.full_gradient(spec, x)
    fd = np.zeros(15)
    h = 1e-6
    for j in range(15):
        e = np.zeros(15)
        e[j] = h
        fd[j] = (smooth_part(spec, x + e) - smooth_part(spec, x - e)) / (2 * h)
    assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) < 1e-5


# --------------------------------------------------------- partial gradient
# partial_gradient runs the engine's step kernel on the uncompacted design

def test_partial_gradient_full_batch_single_block_is_full_gradient():
    spec = random_spec(seed=5, n=18, d=12, q=1)
    rng = np.random.default_rng(1)
    x = rng.normal(size=12)
    got = G.partial_gradient(spec, x, np.arange(18), 0)
    np.testing.assert_allclose(got, G.full_gradient(spec, x), rtol=0, atol=1e-12)


def test_partial_gradient_singleton_batch_and_block():
    spec = random_spec(seed=6, n=10, d=8, q=8)
    rng = np.random.default_rng(2)
    x = rng.normal(size=8)
    a = np.asarray(spec.dataset.A.todense())
    for i, j in [(0, 0), (3, 5), (9, 7)]:
        got = G.partial_gradient(spec, x, [i], j)
        want = a[i, j] * spec.loss.deriv(a[i] @ x, spec.dataset.y[i])
        np.testing.assert_allclose(got, [want], rtol=0, atol=1e-12)


def test_partial_gradient_singleton_average_is_full_block():
    spec = random_spec(seed=7, n=30, d=12, q=4, mu_p=0.1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=12)
    full = G.full_gradient(spec, x)
    for blk in range(4):
        acc = np.mean([G.partial_gradient(spec, x, [i], blk) for i in range(30)], axis=0)
        np.testing.assert_allclose(acc, full[spec.partition.groups[blk]],
                                   rtol=0, atol=1e-12)


def test_partial_gradient_errors():
    spec = random_spec(seed=8)
    x = np.zeros(15)
    with pytest.raises(ValueError):
        G.partial_gradient(spec, x, [], 0)
    with pytest.raises(ValueError):
        G.partial_gradient(spec, x, [0], 99)
    with pytest.raises(ValueError):
        G.partial_gradient(spec, x, [100], 0)
    # indices and blocks that are not integers are refused, not truncated; a
    # bool is not an integer here
    for batch, block in (([0.7, 1.2], 0), ([0, 1], 1.0), (np.array([2.0]), 0),
                         ([True, False], 0), ([0, 1], True), ([0, 1], False)):
        with pytest.raises(ValueError):
            G.partial_gradient(spec, x, batch, block)
        with pytest.raises(ValueError):
            G.vr_gradient(spec, x, x, x, batch, block)


# -------------------------------------------------------- Lipschitz bounds

def test_lipschitz_hand_values():
    ds = G.Dataset(np.array([[3.0, 4.0]]), np.array([0.0]))
    part = G.BlockPartition.singletons(2)
    squared = G.ProblemSpec(dataset=ds, partition=part, loss=G.LOSSES["squared"],
                            reg=G.REGULARIZERS["l1"], lam=1.0)
    c = G.lipschitz_constants(squared)
    assert (c.L, c.T) == (16.0, 25.0)
    logit = G.ProblemSpec(dataset=ds, partition=part, loss=G.LOSSES["logistic"],
                          reg=G.REGULARIZERS["l1"], lam=1.0)
    c = G.lipschitz_constants(logit)
    assert (c.L, c.T) == (4.0, 6.25)
    shifted = G.ProblemSpec(dataset=ds, partition=part, loss=G.LOSSES["squared"],
                            reg=G.REGULARIZERS["l1"], lam=1.0, mu_p=0.5)
    c = G.lipschitz_constants(shifted)
    assert (c.L, c.T) == (17.0, 26.0)


def test_lipschitz_ordering_invariant():
    for seed in range(8):
        q = 3 + seed % 4
        spec = random_spec(seed=seed, n=15, d=12, q=q)
        c = G.lipschitz_constants(spec)
        assert 0 < c.L <= c.T * (1 + 1e-12)
        assert c.T <= q * c.L * (1 + 1e-12)


def test_lipschitz_degenerate_zero_matrix():
    ds = G.Dataset(sp.csr_matrix((3, 4)), np.zeros(3))
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.contiguous(4, 2),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    with pytest.raises(G.DegenerateProblemError):
        G.lipschitz_constants(spec)


def _dense_table_lipschitz(spec):
    """L and T from the dense n x q table of squared (row, block) norms."""
    ds, part = spec.dataset, spec.partition
    rows = np.repeat(np.arange(ds.n), np.diff(ds.A.indptr))
    sq = ds.A.data ** 2
    table = np.bincount(rows * part.q + part.block_of[ds.A.indices], weights=sq,
                        minlength=ds.n * part.q)
    row_sq = np.bincount(rows, weights=sq, minlength=ds.n)
    c, shift = spec.loss.curvature, 2.0 * spec.mu_p
    return float(c * table.max() + shift), float(c * row_sq.max() + shift)


@pytest.mark.parametrize("q", [1, 5, 40, 400])
@pytest.mark.parametrize("scattered", [False, True])
def test_lipschitz_pieces_sum_as_the_dense_table_does(q, scattered):
    """Each (row, block) piece adds its terms in CSR order, as a bincount over
    the dense n x q table does, so L and T keep every bit; on a scattered
    partition a row's pieces interleave."""
    spec = make_instance(seed=q, n=50, d=400, q=q, sparsity=0.3, mu_p=0.01)
    if scattered:
        part = G.BlockPartition([np.arange(j, 400, q) for j in range(q)])
        spec = G.ProblemSpec(dataset=spec.dataset, partition=part, loss=spec.loss,
                             reg=spec.reg, lam=spec.lam, mu_p=spec.mu_p)
    c = G.lipschitz_constants(spec)
    assert (c.L, c.T) == _dense_table_lipschitz(spec)


def test_second_derivatives_match_differences_of_the_derivative():
    rng = np.random.default_rng(3)
    z, h = rng.normal(scale=3, size=50), 1e-6
    y = (rng.random(50) < 0.5).astype(float)
    for loss in G.LOSSES.values():
        fd = (loss.deriv(z + h, y) - loss.deriv(z - h, y)) / (2 * h)
        d2 = loss.derivs(z, y)[1]
        np.testing.assert_allclose(d2, fd, rtol=1e-6, atol=1e-9)
        assert np.all(d2 <= loss.curvature)


def test_one_loss_call_gives_the_bytes_of_both_derivatives():
    """derivs(z, y), the refinement's one call a Newton step, returns the bytes
    of deriv as its first derivative, for both losses, at large, signed-zero
    and infinite z; test_second_derivatives_match_differences_of_the_derivative
    checks its second."""
    rng = np.random.default_rng(5)
    z = np.concatenate([rng.normal(scale=5, size=200), [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf]])
    y = (rng.random(z.size) < 0.5).astype(float)
    for loss in G.LOSSES.values():
        got, want = loss.derivs(z, y)[0], loss.deriv(z, y)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_deriv_curvature_bound():
    rng = np.random.default_rng(0)
    z1, z2 = rng.normal(scale=3, size=200), rng.normal(scale=3, size=200)
    for loss in G.LOSSES.values():
        y = (rng.random(200) < 0.5).astype(float)
        lhs = np.abs(loss.deriv(z1, y) - loss.deriv(z2, y))
        assert np.all(lhs <= loss.curvature * np.abs(z1 - z2) + 1e-12)


# ------------------------------------------------------------- lambda_max

def test_lambda_max_hand_lasso():
    assert G.lambda_max(hand_lasso()) == pytest.approx(1.0, rel=1e-15)


def test_lambda_max_zero_response():
    ds = G.Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(2),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    assert G.lambda_max(spec) == 0.0


def test_lambda_max_hand_logistic():
    ds = G.Dataset(np.eye(2), np.array([1.0, 0.0]))
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(2),
                         loss=G.LOSSES["logistic"], reg=G.REGULARIZERS["l1"], lam=1.0)
    assert G.lambda_max(spec) == pytest.approx(0.25, rel=1e-15)


def test_reference_returns_zero_just_above_lambda_max():
    spec = make_instance(seed=9, n=50, d=60)
    import dataclasses
    above = dataclasses.replace(spec, lam=G.lambda_max(spec) * (1 + 1e-9))
    rep = G.reference_solve(above, tol=1e-10)
    assert np.all(rep.x_final == 0.0)


# --------------------------------------------------------- Fenchel duality

def test_fenchel_young_squared():
    zs = np.linspace(-5, 5, 41)
    us = np.linspace(-5, 5, 41)
    y = np.array([-1.3])
    loss = G.LOSSES["squared"]
    for z in zs:
        for u in us:
            lhs = loss.value(np.array([z]), y) + loss.conjugate(np.array([u]), y)
            assert lhs[0] >= z * u - 1e-12


def test_fenchel_young_logistic():
    loss = G.LOSSES["logistic"]
    for ylab in (0.0, 1.0):
        y = np.array([ylab])
        for z in np.linspace(-6, 6, 25):
            for u in np.linspace(-ylab, 1 - ylab, 23):
                lhs = loss.value(np.array([z]), y) + loss.conjugate(np.array([u]), y)
                assert lhs[0] >= z * u - 1e-12


def test_logistic_conjugate_domain():
    loss = G.LOSSES["logistic"]
    y = np.array([1.0, 0.0])
    # domains are u in [-1, 0] for y = 1 and u in [0, 1] for y = 0
    vals = loss.conjugate(np.array([0.5, -0.5]), y)
    assert np.all(np.isinf(vals))
    vals = loss.conjugate(np.array([-0.5, 0.5]), y)
    assert np.all(np.isfinite(vals))


# ------------------------------------------------------------ regularizers

def test_l1_dual_norm_identity_by_grid():
    reg = G.REGULARIZERS["l1"]
    rng = np.random.default_rng(4)
    grid = np.linspace(-1, 1, 21)
    for _ in range(5):
        v = rng.normal(size=2)
        best = max(u1 * v[0] + u2 * v[1] for u1 in grid for u2 in grid)
        exact = float(np.dot(np.sign(v), v))
        value = reg.value(v, G.BlockPartition.from_sizes([v.size]))
        assert best <= value + 1e-12
        assert exact == pytest.approx(value, rel=1e-12)


def test_group_l2_dual_norm_identity_by_projection():
    reg = G.REGULARIZERS["group_l2"]
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.normal(size=4)
        dirs = rng.normal(size=(300, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = float(np.max(dirs @ v))
        exact = float((v / np.linalg.norm(v)) @ v)
        value = reg.value(v, G.BlockPartition.from_sizes([v.size]))
        assert best <= value + 1e-12
        assert exact == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("reg_name", ["l1", "group_l2"])
def test_prox_satisfies_subgradient_optimality(reg_name):
    reg = G.REGULARIZERS[reg_name]
    rng = np.random.default_rng(6)
    eta, lam = 0.3, 0.8
    for _ in range(20):
        v = rng.normal(scale=2, size=5)
        p = reg.block_prox(v, eta * lam)
        g = (v - p) / eta
        if reg_name == "l1":
            on = p != 0
            assert np.allclose(g[on], lam * np.sign(p[on]), atol=1e-10)
            assert np.all(np.abs(g[~on]) <= lam + 1e-10)
        else:
            if np.any(p != 0):
                assert np.allclose(g, lam * p / np.linalg.norm(p), atol=1e-10)
            else:
                assert np.linalg.norm(g) <= lam + 1e-10


def test_soft_threshold_clip_form_equals_the_sign_form():
    """v - clip(v, -t, t) gives sign(v) * max(|v| - t, 0) value for value, in
    place too, on zeros of both signs, |v| = t, subnormals, infinities and
    nan; every zero it gives for t > 0 is +0.0."""
    tiny = 5e-324
    v = np.array([0.0, -0.0, 0.5, -0.5, 0.7, -0.7, tiny, -tiny, 3 * tiny, -3 * tiny,
                  1e-310, -1e-310, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, 1e300,
                  -1e300, 0.3, -0.3])
    for t in (0.5, tiny, 2 * tiny, 1e-310, 0.0, 1e300):
        want = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        got = soft_threshold(v, t)
        inplace = v.copy()
        assert soft_threshold(inplace, t, out=inplace) is inplace
        for out in (got, inplace):
            assert np.array_equal(out, want, equal_nan=True)
        if t > 0:
            assert not np.signbit(got[got == 0.0]).any()
    assert np.array_equal(G.REGULARIZERS["l1"].block_prox(v, 0.5), soft_threshold(v, 0.5),
                          equal_nan=True)


def _minmax_soft_threshold(v, t, out=None):
    """v - clip(v, -t, t) with the clip formed by np.maximum and np.minimum."""
    clip = np.maximum(v, -t)
    np.minimum(clip, t, out=clip)
    return np.subtract(v, clip, out=out)


@pytest.mark.parametrize("t", [0.5, 1e-310, 5e-324, 1e300])
def test_soft_threshold_gives_the_bytes_of_the_maximum_minimum_form(t):
    """The clip-kernel prox gives the maximum/minimum form's bytes, out of place
    and in place, at every length 1-33 and at 100, 5000 and 100003, so every
    SIMD tail runs; each special value (+-t, its neighbours, signed zeros,
    subnormals, +-inf, nan of both signs) reaches every lane of the short
    vectors. Every zero it gives is +0.0."""
    tiny = 5e-324
    specials = [t, -t, np.nextafter(t, 0.0), -np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                -np.nextafter(t, np.inf), 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310,
                2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, -np.nan]
    rng = np.random.default_rng(0)
    pool = np.concatenate([specials, 2.0 * t * rng.standard_normal(47)])
    for n in [*range(1, 34), 100, 5000, 100003]:
        for shift in range(pool.size if n <= 33 else 3):
            v = np.resize(np.roll(pool, -shift), n)
            want = _minmax_soft_threshold(v, t)
            got = soft_threshold(v, t)
            assert got.tobytes() == want.tobytes()
            inplace, want_inplace = v.copy(), v.copy()
            assert soft_threshold(inplace, t, out=inplace) is inplace
            _minmax_soft_threshold(want_inplace, t, out=want_inplace)
            assert inplace.tobytes() == want_inplace.tobytes() == want.tobytes()
            assert not np.signbit(got[got == 0.0]).any()


def test_group_l2_single_block_prox_in_place_keeps_the_bits():
    """The single-block prox, alone or in place, gives the bits of
    (1 - t/||v||) v with ||v|| from (v ** 2).sum(), or +0.0 where the norm is
    at most t; zero signs included, and a nan norm passes nan through."""
    reg = G.REGULARIZERS["group_l2"]
    rng = np.random.default_rng(33)
    cases = []
    for size in rng.integers(1, 5001, size=60).tolist():
        v = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3])
        v[rng.integers(0, size)] = -0.0
        nrm = math.sqrt(float((v ** 2).sum()))
        cases += [(v, t) for t in (0.5 * nrm, nrm, 2.0 * nrm)]
    nan_block = np.array([1.0, np.nan, -2.0])
    cases += [(nan_block, 0.5), (np.array([-0.0, -0.0]), 0.5), (np.array([-3.0, 4.0]), 5.0)]
    for v, t in cases:
        want = _group_prox_loop(v, t, [np.arange(v.size)])
        inplace = v.copy()
        assert reg.block_prox(inplace, t, out=inplace) is inplace
        for got in (reg.block_prox(v, t), inplace):
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(reg.block_prox(nan_block, 0.5)).all()


def test_blockwise_dual_norms_matches_loop():
    """Each block's dual norm is its largest absolute entry for L1 and its
    Euclidean norm for group-L2, both taken one block at a time."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=17)
    l1, group = G.REGULARIZERS["l1"], G.REGULARIZERS["group_l2"]
    scattered = G.BlockPartition([np.arange(j, 17, 5) for j in range(5)])
    for part in (G.BlockPartition.contiguous(17, 5), scattered):
        max_abs = [max(abs(float(t)) for t in v[g]) for g in part.groups]
        euclid = [math.sqrt(sum(float(t) ** 2 for t in v[g])) for g in part.groups]
        np.testing.assert_allclose(blockwise_dual_norms(v, part, group), euclid,
                                   rtol=0, atol=1e-14)
        # a maximum is exact, so the L1 norms agree bit for bit
        assert np.array_equal(blockwise_dual_norms(v, part, l1), max_abs)


def _group_prox_loop(v, t, groups):
    """The group-L2 prox one block at a time, written as before size classes."""
    out = np.empty_like(v)
    for g in groups:
        b = v[g]
        nrm = math.sqrt(float(np.sum(b ** 2)))
        out[g] = np.zeros_like(b) if nrm <= t else (1.0 - t / nrm) * b
    return out


def _prox_layouts():
    """Partitions whose block sizes straddle numpy's pairwise-summation steps."""
    sizes = [7, 8, 9, 128, 129, 9, 7]
    stops = np.cumsum(sizes)[:-1]
    perm = np.random.default_rng(30).permutation(sum(sizes))
    return {
        "equal-contiguous": G.BlockPartition.contiguous(5 * 129, 5),
        "uneven-contiguous": G.BlockPartition(np.split(np.arange(sum(sizes)), stops)),
        "scattered": G.BlockPartition([np.sort(g) for g in np.split(perm, stops)]),
    }


@pytest.mark.parametrize("layout", ["equal-contiguous", "uneven-contiguous", "scattered"])
def test_group_l2_size_class_prox_matches_block_loop_bit_for_bit(layout):
    reg = G.REGULARIZERS["group_l2"]
    part = _prox_layouts()[layout]
    rng = np.random.default_rng(31)
    v = np.empty(part.d)
    # block norms of 1 (block 0 sets t, so it sits exactly at it), 0.4 (below)
    # and 1.7 or 3 (above); every zeroed block holds negative entries
    for j, g in enumerate(part.groups):
        w = rng.normal(size=g.size)
        v[g] = w / np.linalg.norm(w) * [1.0, 0.4, 1.7, 3.0][min(j, 2 + j % 2)]
    v[part.groups[2][0]] = -0.0
    t = math.sqrt(float(np.sum(v[part.groups[0]] ** 2)))
    want = _group_prox_loop(v, t, part.groups)
    assert not want[part.groups[0]].any() and not want[part.groups[1]].any()
    assert np.signbit(want[part.groups[2][0]]) and want[part.groups[3]].all()
    got = reg.block_prox(v, t, part.classes)
    per_block = np.empty(part.d)
    for g in part.groups:
        per_block[g] = reg.block_prox(v[g], t)
    for out in (got, per_block):
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
    assert reg.value(v, part) == sum(math.sqrt(float(np.sum(v[g] ** 2)))
                                     for g in part.groups)


def test_group_l2_size_class_prox_passes_nan_through_like_one_block():
    reg = G.REGULARIZERS["group_l2"]
    part = _prox_layouts()["scattered"]
    v = np.random.default_rng(32).normal(size=part.d)
    v[part.groups[3][5]] = np.nan
    want = _group_prox_loop(v, 0.5, part.groups)
    assert np.isnan(want[part.groups[3]]).all()
    assert np.array_equal(reg.block_prox(v, 0.5, part.classes), want, equal_nan=True)


@pytest.mark.parametrize("layout", ["equal-contiguous", "uneven-contiguous", "scattered"])
def test_group_l2_size_class_prox_in_place_gives_the_same_bits(layout):
    """Written into v itself, the whole-vector prox gives the bits and zero
    signs of the prox into a new array, nan blocks included."""
    reg = G.REGULARIZERS["group_l2"]
    part = _prox_layouts()[layout]
    rng = np.random.default_rng(34)
    v = rng.normal(size=part.d) * rng.choice([0.01, 1.0], size=part.d)
    v[part.groups[1]] *= 0.0  # a block of zeros, some of them -0.0
    v[part.groups[-1][0]] = np.nan
    for t in (0.1, 1.0, 3.0):
        want = reg.block_prox(v, t, part.classes)
        got = v.copy()
        assert reg.block_prox(got, t, part.classes, out=got) is got
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_group_l2_prox_reads_each_contiguous_class_in_place():
    """A size class is marked a run, slice(lo, hi), exactly where its blocks
    are the coordinates lo:hi in order: every class of a contiguous layout,
    the single-block classes of the uneven one but not its interleaved sizes
    7 and 9, and none of the scattered one. The prox reads a run as a view
    of v and writes a view of out, so with nan written into out beforehand
    it still gives the loop's bits. Under t = 0 every zero block comes out
    +0.0 and every other block keeps v's bits, -0.0 included, without a
    warning (pytest raises warnings as errors)."""
    reg = G.REGULARIZERS["group_l2"]
    runs = {"equal-contiguous": [129], "uneven-contiguous": [8, 128, 129], "scattered": []}
    for name, part in _prox_layouts().items():
        for _, idx, run in part.classes:
            assert (run is not None) == (idx.shape[1] in runs[name])
            if run is not None:
                assert np.array_equal(np.arange(part.d)[run], idx.ravel())
        v = np.random.default_rng(35).normal(size=part.d)
        v[part.groups[1]] = -0.0
        v[part.groups[2][0]] = -0.0
        for t in (0.0, 0.7):
            want = _group_prox_loop(v, t, part.groups)
            out = np.full(part.d, np.nan)
            assert reg.block_prox(v, t, part.classes, out=out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(np.signbit(out), np.signbit(want))
            if t == 0.0:
                assert not np.signbit(out[part.groups[1]]).any()
                assert np.signbit(out[part.groups[2][0]])
                assert np.array_equal(np.delete(out, part.groups[1]),
                                      np.delete(v, part.groups[1]))


def test_size_classes_list_every_block_once_by_size():
    part = _prox_layouts()["scattered"]
    seen = []
    for ids, idx, _ in part.classes:
        assert idx.shape == (ids.size, part.sizes[ids[0]])
        assert np.all(part.sizes[ids] == idx.shape[1])
        for j, row in zip(ids.tolist(), idx):
            assert np.array_equal(row, part.groups[j])
        seen += ids.tolist()
    assert sorted(seen) == list(range(part.q))


# ------------------------------------------------------- dataset/partition

def test_dataset_coalesces_duplicate_entries():
    coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [1, 1])), shape=(2, 3))
    ds = G.Dataset(coo, np.zeros(2))
    rows = np.diff(ds.A.indptr)
    assert rows[0] == 1 and ds.A[0, 1] == 3.0
    assert ds.A.nnz == 1 and ds.A.has_canonical_format
    np.testing.assert_array_equal(ds.column_norms(), [0.0, 3.0, 0.0])
    unsorted = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]),
                              np.array([0, 3])), shape=(1, 3))
    ds = G.Dataset(unsorted, np.zeros(1))
    np.testing.assert_array_equal(ds.A.indices, [0, 1, 2])
    np.testing.assert_array_equal(ds.A.data, [2.0, 3.0, 1.0])


@pytest.mark.parametrize("sparsity", [1.0, 0.05])
def test_rmatvec_runs_on_one_transposed_view_of_the_stored_design(sparsity):
    """A'v has the bits of scipy's A.T @ v, and the call allocates about its
    d-length output alone: no transposed copy of the design, which would
    hold 12 bytes or more per stored entry."""
    ds = make_instance(seed=9, n=70, d=120, sparsity=sparsity).dataset
    v = np.random.default_rng(1).standard_normal(ds.n)
    assert ds.rmatvec(v).tobytes() == (ds.A.T @ v).tobytes()
    tracemalloc.start()
    try:
        ds.rmatvec(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * ds.d <= peak <= 8 * ds.d + 512 < 12 * ds.A.nnz


def _products_are_scipys(ds, x, v):
    """Dataset.matvec and rmatvec give the bytes of scipy's A @ x and A.T @ v."""
    assert ds.matvec(x).tobytes() == (ds.A @ x).tobytes()
    assert ds.rmatvec(v).tobytes() == (ds.A.T @ v).tobytes()


def test_products_keep_scipys_bits_on_64_bit_index_arrays(monkeypatch):
    """A design given as int64 index arrays, and a stored CSR that keeps 64-bit
    indices, as one past 2**31 entries does: each call passes the CSR's own
    index arrays, in their one index type."""
    rng = np.random.default_rng(3)
    a = sp.random(40, 70, density=0.1, random_state=rng, format="csr")
    a = sp.csr_matrix((a.data, a.indices.astype(np.int64), a.indptr.astype(np.int64)),
                      shape=a.shape)
    ds = G.Dataset(a, rng.standard_normal(40))
    x, v = rng.standard_normal(70), rng.standard_normal(40)
    _products_are_scipys(ds, x, v)
    wide = sp.csr_matrix(ds.A)
    wide.indices, wide.indptr = wide.indices.astype(np.int64), wide.indptr.astype(np.int64)
    monkeypatch.setattr(ds, "A", wide)
    assert ds.A.indices.dtype == ds.A.indptr.dtype == np.int64
    _products_are_scipys(ds, x, v)


def test_products_keep_scipys_bits_on_empty_rows_and_columns_and_a_stored_minus_zero():
    dense = np.random.default_rng(4).standard_normal((6, 9))
    dense[[0, 3]] = 0.0  # empty rows, the first among them
    dense[:, [2, 8]] = 0.0  # empty columns, the last among them
    dense[1, 4] = 0.0
    rows, cols = np.nonzero(dense)
    a = sp.coo_matrix((np.append(dense[rows, cols], -0.0), (np.append(rows, 1),
                                                           np.append(cols, 4))), shape=(6, 9))
    ds = G.Dataset(a, np.zeros(6))  # keeps the stored -0.0 at (1, 4)
    assert np.signbit(ds.A.data).any() and not ds.A.data.all()
    assert np.diff(ds.A.indptr)[[0, 3]].tolist() == [0, 0]
    rng = np.random.default_rng(5)
    for x, v in ((rng.standard_normal(9), rng.standard_normal(6)),
                 (np.full(9, -0.0), np.full(6, -0.0)),
                 (np.eye(9)[4], np.eye(6)[1])):
        _products_are_scipys(ds, x, v)
        assert ds.matvec(x)[[0, 3]].tolist() == [0.0, 0.0]
        assert ds.rmatvec(v)[[2, 8]].tolist() == [0.0, 0.0]


def test_products_read_strided_and_integer_vectors_as_scipy_does():
    ds = make_instance(seed=6, n=30, d=50, sparsity=0.3).dataset
    rng = np.random.default_rng(6)
    inputs = [(rng.standard_normal(2 * ds.d)[::2], rng.standard_normal(2 * ds.n)[::2]),
              (np.arange(ds.d)[::-1], np.arange(-ds.n, ds.n, 2)),
              (rng.standard_normal((ds.d, 2))[:, 1], rng.standard_normal((ds.n, 2))[:, 0]),
              (list(range(ds.d)), [True, False] * (ds.n // 2))]
    for x, v in inputs:
        assert not (isinstance(x, np.ndarray) and x.flags.c_contiguous and x.dtype == float)
        _products_are_scipys(ds, x, v)


def test_products_refuse_a_vector_of_the_wrong_shape():
    """The compiled loops check no bounds, so a wrong length never reaches them."""
    ds = make_instance(seed=6, n=30, d=50, sparsity=0.3).dataset
    for fn, size in ((ds.matvec, ds.d), (ds.rmatvec, ds.n)):
        for bad in (np.ones(size - 1), np.ones(size + 1), np.ones((size, 1)),
                    np.ones((1, size)), np.float64(1.0), np.ones(0)):
            with pytest.raises(ValueError, match="shape"):
                fn(bad)


def test_dataset_validation():
    with pytest.raises(ValueError):
        G.Dataset(np.ones((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        G.Dataset(np.ones((0, 2)), np.zeros(0))
    # x_true is checked like y: d finite entries, or None
    a, y = np.eye(10)[:4], np.ones(4)
    for bad, says in (([1.0, 2.0], "shape"), (np.ones((10, 1)), "shape"),
                      (np.ones(11), "shape"), (np.full(10, np.nan), "non-finite"),
                      (np.r_[np.zeros(9), np.inf], "non-finite")):
        with pytest.raises(ValueError, match=f"x_true .*{says}"):
            G.Dataset(a, y, x_true=bad)
    ds = G.Dataset(a, y, x_true=list(range(10)))
    assert ds.x_true.dtype == np.float64 and ds.x_true.tolist() == list(range(10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_input(bad):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([1.0, -1.0])
    a_bad = a.copy()
    a_bad[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        G.Dataset(a_bad, y)
    with pytest.raises(ValueError, match="non-finite"):
        G.Dataset(sp.csr_matrix(a_bad), y)
    with pytest.raises(ValueError, match="non-finite"):
        G.Dataset(a, np.array([bad, 1.0]))


def test_partition_validation():
    with pytest.raises(ValueError, match="must partition"):
        G.BlockPartition([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="must partition"):
        G.BlockPartition([[0, 1], [3]])
    with pytest.raises(ValueError, match="must partition"):  # 1 twice, 2 missing
        G.BlockPartition([[0, 1], [1, 3]])
    with pytest.raises(ValueError, match="sorted and unique"):
        G.BlockPartition([[1, 0], [2]])
    with pytest.raises(ValueError, match="non-empty"):
        G.BlockPartition([[0, 1], []])
    with pytest.raises(ValueError, match="non-empty"):
        G.BlockPartition([])
    with pytest.raises(ValueError, match="sorted and unique"):
        G.BlockPartition([[2, 3], [0, 1, 1]])
    # each group is sorted; the groups themselves may come in any order
    assert G.BlockPartition([[2, 3], [0, 1]]).block_of.tolist() == [1, 1, 0, 0]
    # a float or bool index would be cast to a different coordinate
    for groups in ([[0.5, 1.7], [2.2]], [[True], [False]], [[0, 1], [2.0]],
                   [np.array([0.0, 1.0]), np.array([2.0])]):
        with pytest.raises(ValueError, match="group indices must be integers"):
            G.BlockPartition(groups)
    # an empty block would shift every later block's slice, as an empty group would
    for sizes in ([0, 3], [3, 0], [2, -1, 3], []):
        with pytest.raises(ValueError, match="at least 1"):
            G.BlockPartition.from_sizes(sizes)
    # a fractional size would be truncated, and a bool is not a size
    for sizes in ([2.5, 1.9], [2.0, 1.0], [True, True], np.array([3.0])):
        with pytest.raises(ValueError, match="sizes must be integers"):
            G.BlockPartition.from_sizes(sizes)
    assert G.BlockPartition.from_sizes(np.array([2, 3], np.uint8)).offsets.tolist() == [0, 2, 5]
    # a fractional q would cover more than d coordinates, and a bool is not a count
    for d, q in ((10, 2.5), (10.0, 2), (10, True), (True, 1), (10, np.float64(2.0))):
        with pytest.raises(ValueError, match="must be integers"):
            G.BlockPartition.contiguous(d, q)
    with pytest.raises(ValueError, match="must be integers"):
        G.build_spec(G.Dataset(np.eye(10)[:4], np.ones(4)), q=2.5)
    assert G.BlockPartition.contiguous(np.int64(10), np.int32(3)).sizes.tolist() == [4, 3, 3]


def _layouts():
    sizes = [3, 1, 5, 2, 6, 1]
    perm = np.random.default_rng(5).permutation(sum(sizes))
    stops = np.cumsum(sizes)[:-1]
    return {
        "uneven": G.BlockPartition(np.split(np.arange(sum(sizes)), stops)),
        "scattered": G.BlockPartition([np.sort(g) for g in np.split(perm, stops)]),
        "singletons": G.BlockPartition.singletons(7),
        "scattered-singletons": G.BlockPartition([[i] for i in perm[:9].tolist()]
                                                 + [[i] for i in perm[9:].tolist()]),
    }


@pytest.mark.parametrize("layout", ["uneven", "scattered", "singletons",
                                    "scattered-singletons"])
def test_partition_layout_matches_a_per_group_loop(layout):
    part = _layouts()[layout]
    block_of, offsets, by_size = {}, [0], {}
    for j, g in enumerate(part.groups):
        for i in g.tolist():
            block_of[i] = j
        offsets.append(offsets[-1] + g.size)
        by_size.setdefault(g.size, []).append(j)
    assert part.block_of.tolist() == [block_of[i] for i in range(part.d)]
    assert part.offsets.tolist() == offsets
    assert part.block_of.dtype == np.intp and not part.block_of.flags.writeable
    assert [idx.shape[1] for _, idx, _ in part.classes] == sorted(by_size)
    for ids, idx, _ in part.classes:
        want = by_size[idx.shape[1]]
        assert ids.tolist() == want
        assert np.array_equal(idx, np.array([part.groups[j] for j in want]))


def test_partition_block_of_inverts_groups():
    part = G.BlockPartition.contiguous(11, 4)
    for j, g in enumerate(part.groups):
        assert np.all(part.block_of[g] == j)
    scattered = G.BlockPartition([[0, 2], [1, 3]])
    assert list(scattered.block_of) == [0, 1, 0, 1]
    for p in (part, scattered):
        assert p.offsets[0] == 0 and p.offsets[-1] == p.d
        for j, g in enumerate(p.groups):
            assert np.array_equal(p.order[p.offsets[j]:p.offsets[j + 1]], g)
    assert scattered.order.tolist() == [0, 2, 1, 3]


def test_problem_spec_validation():
    ds = G.Dataset(np.eye(2), np.array([1.0, 0.5]))
    part = G.BlockPartition.singletons(2)
    for lam, mu_p in ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1.0, -1.0),
                      (1.0, np.nan), (1.0, np.inf),
                      # a bool, Python's or numpy's, is not a weight
                      (True, 0.0), (np.True_, 0.0), (1.0, True), (1.0, np.True_)):
        with pytest.raises(ValueError):
            G.ProblemSpec(dataset=ds, partition=part, loss=G.LOSSES["squared"],
                          reg=G.REGULARIZERS["l1"], lam=lam, mu_p=mu_p)
    with pytest.raises(ValueError):
        G.ProblemSpec(dataset=ds, partition=part, loss=G.LOSSES["logistic"],
                      reg=G.REGULARIZERS["l1"], lam=1.0)


# ------------------------------------------------------------- public names

EXPORTED = [
    "ActiveSet", "BlockPartition", "ConvergenceError", "Dataset",
    "DegenerateProblemError", "DivergenceError", "DualPoint", "ExperimentPlan",
    "GroupL2Penalty", "L1Penalty", "LOSSES", "LibsvmParseError",
    "LipschitzConstants", "LogisticLoss", "ProblemSpec", "REGULARIZERS",
    "SolveReport", "SolverConfig", "SquaredLoss", "SyntheticParams", "TraceRecord",
    "adsgd_solve", "build_spec", "column_bounds", "dual_point",
    "duality_gap", "equicorrelation_set", "full_gradient", "generate_synthetic", "inner_budget",
    "lambda_max", "lipschitz_constants", "load_libsvm", "mrbcd_solve",
    "parse_plan_file", "partial_gradient", "primal_objective", "proxsvrg_solve",
    "reference_solve", "run_experiment", "safe_radius", "screen", "soft_threshold",
    "solve", "vr_gradient",
]


def test_public_names_still_import():
    namespace = {}
    exec(f"from gapsgd import {', '.join(EXPORTED)}", namespace)
    assert all(namespace[name] is getattr(G, name) for name in EXPORTED)
