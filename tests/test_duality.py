import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.sparse as sp

import gapsgd as G
import gapsgd.duality
from gapsgd.duality import ActiveSet, _dual_value, column_bounds
from gapsgd.problem import blockwise_dual_norms

from conftest import hand_lasso, make_instance, tuned_eta


def sample_grad(spec, x):
    return spec.loss.deriv(spec.dataset.A @ x, spec.dataset.y)


def feasibility_excess(spec, dp):
    corr = spec.dataset.A.T @ dp.theta
    if dp.kappa is not None:
        corr = corr + dp.kappa
    per = blockwise_dual_norms(corr, spec.partition, spec.reg) / spec.dataset.n
    return float(per.max() / spec.lam - 1.0)


# ----------------------------------------------------------------- dual point

def test_dual_point_lower_branch_keeps_gradient():
    spec = make_instance(seed=1, n=40, d=30)
    big = dataclasses.replace(spec, lam=G.lambda_max(spec) * 3)
    g = sample_grad(big, np.zeros(30))
    dp = G.dual_point(big, g, x=np.zeros(30))
    assert dp.scale_used == 1.0
    np.testing.assert_array_equal(dp.theta, -g)


def test_dual_point_scale_monotone_in_lambda():
    spec = make_instance(seed=2, n=50, d=40, ratio=0.3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=40)
        g = sample_grad(spec, x)
        s1 = G.dual_point(spec, g, x=x).scale_used
        doubled = dataclasses.replace(spec, lam=2 * spec.lam)
        s2 = G.dual_point(doubled, g, x=x).scale_used
        assert s2 <= s1 + 1e-15


def test_dual_point_feasible_on_active_set():
    for seed in range(6):
        spec = make_instance(seed=seed, n=60, d=80, ratio=0.4,
                             model="logistic" if seed % 2 else "lasso")
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x = rng.normal(size=80)
            dp = G.dual_point(spec, sample_grad(spec, x), x=x)
            assert feasibility_excess(spec, dp) <= 1e-12


def _interleaved(spec, q):
    d = spec.dataset.d
    return dataclasses.replace(
        spec, partition=G.BlockPartition([np.arange(j, d, q) for j in range(q)]))


@pytest.mark.parametrize("build", [
    lambda: make_instance(seed=3, n=40, d=60, q=12),
    lambda: make_instance(seed=4, n=40, d=60, q=10, model="logistic", reg="group_l2"),
    lambda: _interleaved(make_instance(seed=5, n=40, d=60, q=10), 10),
    lambda: make_instance(seed=6, n=40, d=60, q=12, mu_p=0.05),
], ids=["l1", "group-l2", "scattered", "mu-p"])
def test_dual_point_stores_correlations_and_gradient_of_its_one_product(build):
    spec = build()
    ds, rng = spec.dataset, np.random.default_rng(0)
    x = rng.normal(scale=0.5, size=ds.d) * (rng.random(ds.d) < 0.3)
    g = sample_grad(spec, x)
    dp = G.dual_point(spec, g, x=x)
    assert dp.scale_used > 1.0
    corr = ds.A.T @ dp.theta
    if spec.mu_p > 0:
        corr = corr + dp.kappa
    want = blockwise_dual_norms(corr, spec.partition, spec.reg) / ds.n
    # a block's correlation matters only against lam, hence the absolute floor
    np.testing.assert_allclose(dp.correlations, want, rtol=1e-14, atol=1e-14 * spec.lam)
    np.testing.assert_array_equal(dp.gradient, G.problem.smooth_gradient(spec, x, g))


def test_dual_point_shape_check():
    spec = hand_lasso()
    with pytest.raises(ValueError):
        G.dual_point(spec, np.zeros(5))


@pytest.mark.parametrize("x", [1.0, np.ones(1), np.ones((20, 1)), np.ones(19)],
                         ids=["scalar", "length-1", "column", "short"])
def test_dual_point_with_mu_p_rejects_an_x_of_the_wrong_shape(x):
    """With mu_p > 0 the iterate enters the perturbation duals, so an x that
    is not (d,) is refused, not broadcast into a wrong kappa or gradient."""
    spec = make_instance(seed=2, n=30, d=20, q=4, mu_p=0.1)
    g = sample_grad(spec, np.zeros(20))
    with pytest.raises(ValueError, match="x has shape"):
        G.dual_point(spec, g, x=x)
    dp = G.dual_point(spec, g, x=np.ones(20))
    assert dp.kappa.shape == dp.gradient.shape == (20,)


# ------------------------------------------------------------------ gap

def test_gap_zero_at_zero_iterate_above_lambda_max():
    spec = hand_lasso()  # lam = 1 = lambda_max
    x = np.zeros(2)
    dp = G.dual_point(spec, sample_grad(spec, x), x=x)
    gap = G.duality_gap(spec, x, dp)
    assert abs(gap) <= 1e-12


def test_gap_zero_at_optimum():
    spec = make_instance(seed=3, n=60, d=50)
    oracle = G.reference_solve(spec, tol=1e-12)
    gap = G.duality_gap(spec, oracle.x_final, oracle.dual)
    assert -1e-10 <= gap <= 1e-8


def test_gap_dominates_suboptimality():
    spec = make_instance(seed=4, n=60, d=50)
    oracle = G.reference_solve(spec, tol=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(scale=0.5, size=50)
        dp = G.dual_point(spec, sample_grad(spec, x), x=x)
        gap = G.duality_gap(spec, x, dp)
        assert gap + 1e-9 >= G.primal_objective(spec, x) - oracle.objective
        assert gap >= -1e-10


def test_gap_infinite_for_infeasible_logistic_dual():
    spec = make_instance(seed=5, n=30, d=20, model="logistic")
    bad = G.DualPoint(theta=np.full(30, 5.0), scale_used=1.0)
    assert G.duality_gap(spec, np.zeros(20), bad) == np.inf


# ------------------------------------------------------------- safe radius

def test_safe_radius_values():
    """sqrt(2 n gap max(c, 2 n mu_p)), c = 1 for squared and 1/4 for logistic loss."""
    spec = hand_lasso()  # n = 2, c = 1
    assert G.safe_radius(spec, 0.0) == 0.0
    assert G.safe_radius(spec, 1.0) == pytest.approx(2.0)
    assert G.safe_radius(spec, 2.25) == pytest.approx(3.0)
    assert G.safe_radius(spec, -1e-12) == 0.0
    assert G.safe_radius(spec, np.inf) == np.inf
    assert G.safe_radius(spec, np.nan) == np.inf
    # 2 n mu_p = 0.4 < c leaves the radius; 2 n mu_p = 4 > c sets it
    assert G.safe_radius(dataclasses.replace(spec, mu_p=0.1), 1.0) == pytest.approx(2.0)
    assert G.safe_radius(dataclasses.replace(spec, mu_p=1.0), 1.0) == pytest.approx(4.0)
    logistic = make_instance(seed=1, n=40, d=20, model="logistic")
    assert G.safe_radius(logistic, 5.0) == pytest.approx(10.0)  # sqrt(2 * 40 * 5 / 4)


def test_a_gap_that_rounds_to_zero_still_screens_with_a_safe_radius():
    """At a point off the optimum whose computed gap P - D is <= 0, the
    padded gap (_padded_gap) still gives a sphere that keeps the optimum's
    support block, which a radius of 0 would drop. The Lasso has a design of
    orthogonal columns, sqrt(n) Q, so its optimum is the soft threshold of
    A'y / n, and a response with a component of 1e4 orthogonal to every
    column: P and D are about 5e7, and P - D rounds by about 1e-8. A
    coordinate j of the optimum's support pushed t >= 1e-9 away from zero
    has a true gap of t (|x*_j| + t) > 0, and its correlation falls to
    lam - t, below the screen's 1e-12 lam guard."""
    n, d, q = 60, 20, 5
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(n, d + 1)))
    a, u = np.sqrt(n) * basis[:, :d], basis[:, d]
    y0 = a @ np.eye(d)[[0, 5, 10]].T @ np.array([1.5, -2.0, 1.0]) + 0.1 * rng.normal(size=n)
    y0 -= u * (u @ y0)
    lam = 0.5 * np.max(np.abs(a.T @ y0)) / n
    spec = G.ProblemSpec(dataset=G.Dataset(a, y0 + 1e4 * np.sqrt(n) * u),
                         partition=G.BlockPartition.contiguous(d, q),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=lam)
    corr = a.T @ y0 / n
    x_star = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
    j = np.flatnonzero(x_star)[0]
    for t in np.geomspace(1e-9, 1e-6, 13):
        x = x_star.copy()
        x[j] += t * np.sign(x_star[j])
        ev = G.duality.evaluate(spec, x, spec.dataset.A @ x)
        if ev[3] <= 0.0:
            break
    assert ev[3] <= 0.0 and t * (abs(x_star[j]) + t) > 0.0
    padded = G.duality._padded_gap(spec, ev)
    assert padded > 0.0 and padded - ev[3] < 1e-5
    full, bounds = ActiveSet.full(spec), column_bounds(spec)
    block = spec.partition.block_of[j]
    assert block not in G.screen(spec, ev[2], 0.0, full, bounds).blocks
    assert block in G.screen(spec, ev[2], G.safe_radius(spec, padded), full, bounds).blocks


def test_the_padded_gap_keeps_a_non_finite_gap():
    """A non-finite gap stays non-finite once padded, so it screens nothing."""
    spec = hand_lasso()
    dp = G.DualPoint(theta=np.zeros(2), scale_used=1.0, value=-np.inf)
    assert G.duality._padded_gap(spec, (1.0, None, dp, np.inf)) == np.inf
    dp.value = 0.5
    assert np.isnan(G.duality._padded_gap(spec, (1.0, None, dp, np.nan)))


def test_the_rounding_bound_grows_with_n_plus_d_and_pads_the_gap():
    """_rounding(spec, *values) is (n + d) eps (|v_1| + |v_2| + ...), which
    grows in proportion to n + d at any size, where a fixed fraction such as
    1e-9 of the values falls short past n + d of about 4.5 million.
    _padded_gap adds it of the evaluation's P and D to the gap."""
    eps = np.finfo(np.float64).eps

    def spec_of(n, d):
        return G.ProblemSpec(dataset=G.Dataset(sp.eye(n, d), np.zeros(n)),
                             partition=G.BlockPartition.contiguous(d, 1),
                             loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)

    rounding = G.duality._rounding
    for n, d in ((3, 5), (3, 13), (100, 412), (24, 4072), (1000, 2 ** 20 - 1000)):
        spec = spec_of(n, d)
        assert rounding(spec, 1.0) == (n + d) * eps
        assert rounding(spec, 2.0, -3.0, 0.5) == 5.5 * (n + d) * eps
        assert rounding(spec) == 0.0 and rounding(spec, -np.inf, 1.0) == np.inf
    # the bound reads the shape alone, so a stand-in spec shows it at a size
    # whose design this test does not build
    big = types.SimpleNamespace(dataset=types.SimpleNamespace(n=2 ** 21, d=2 ** 22))
    assert rounding(big, 1.0) == 3 * 2 ** -31 > 1e-9
    spec = make_instance(seed=2, n=30, d=20, q=4)
    x = np.full(20, 0.1)
    ev = G.duality.evaluate(spec, x, spec.dataset.A @ x)
    want = ev[3] + 50 * eps * (abs(ev[0]) + abs(ev[2].value))
    assert G.duality._padded_gap(spec, ev) == want == ev[3] + rounding(spec, ev[0], ev[2].value)


def _stacked(dp):
    return dp.theta if dp.kappa is None else np.concatenate([dp.theta, dp.kappa])


@pytest.mark.parametrize("build, old_radius_fails", [
    (lambda: make_instance(seed=31, n=80, d=300, q=10), False),
    (lambda: make_instance(seed=33, n=500, d=100, q=10, scale=0.3), True),
    (lambda: make_instance(seed=32, n=500, d=100, q=10, scale=0.3, mu_p=0.01), True),
], ids=["wide", "tall", "mu-p"])
def test_safe_sphere_holds_the_dual_optimum_along_adsgd_trajectories(build,
                                                                    old_radius_fails):
    """||u_k - u*|| <= r_k at every iterate of a real solve, u = theta, or
    (theta, kappa) with mu_p > 0, and r_k = safe_radius of the full gap. The
    oracle's dual point u_o lies within safe_radius(oracle gap) of u*, so
    ||u_k - u_o|| <= r_k + r_o. On the tall and mu_p shapes sqrt(2 T gap),
    the radius screening used before, is too small somewhere."""
    spec = build()
    oracle = G.reference_solve(spec, tol=1e-12)
    r_o = G.safe_radius(spec, oracle.gap)
    old_t = G.lipschitz_constants(spec).T
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=0, gap_tol=1e-8, max_outer=300,
                                             eta=tuned_eta(spec), keep_iterates=True))
    assert rep.converged and len(rep.iterates) > 3
    old_missed = False
    for x in rep.iterates:
        _, _, dp, gap = gapsgd.duality.evaluate(spec, x, spec.dataset.A @ x)
        dist = float(np.linalg.norm(_stacked(dp) - _stacked(oracle.dual)))
        assert dist <= G.safe_radius(spec, gap) + r_o
        old_missed |= dist > math.sqrt(2.0 * old_t * max(gap, 0.0)) + r_o
    assert old_missed == old_radius_fails


# --------------------------------------------------------------- screening

def test_screen_huge_radius_removes_nothing():
    spec = make_instance(seed=6, n=40, d=30)
    act = ActiveSet.full(spec)
    x = np.zeros(30)
    dp = G.dual_point(spec, sample_grad(spec, x), x=x)
    for r in (1e12, np.inf):
        out = G.screen(spec, dp, r, act, column_bounds(spec))
        assert out.n_blocks == act.n_blocks


def test_screen_negative_radius_rejected():
    spec = hand_lasso()
    dp = G.dual_point(spec, sample_grad(spec, np.zeros(2)))
    with pytest.raises(ValueError):
        G.screen(spec, dp, -1.0, ActiveSet.full(spec), column_bounds(spec))


def test_screen_at_optimum_leaves_equicorrelation_set():
    spec = make_instance(seed=7, n=50, d=100, q=20, support=6)
    oracle = G.reference_solve(spec, tol=1e-12)
    r = G.safe_radius(spec, oracle.gap)
    kept = G.screen(spec, oracle.dual, r, ActiveSet.full(spec), column_bounds(spec))
    eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
    assert set(kept.blocks.tolist()) == eq


def test_screen_result_is_subset_and_monotone_in_radius():
    spec = make_instance(seed=8, n=60, d=80)
    act = ActiveSet.full(spec)
    rng = np.random.default_rng(2)
    x = rng.normal(scale=0.3, size=80)
    dp, bounds = G.dual_point(spec, sample_grad(spec, x), x=x), column_bounds(spec)
    small = G.screen(spec, dp, 0.01, act, bounds)
    large = G.screen(spec, dp, 0.5, act, bounds)
    assert set(small.blocks.tolist()) <= set(act.blocks.tolist())
    assert set(small.blocks.tolist()) <= set(large.blocks.tolist())


def test_screen_drops_orthogonal_low_norm_column_early():
    rng = np.random.default_rng(3)
    n, d = 60, 8
    a = rng.normal(size=(n, d))
    x_true = np.zeros(d)
    x_true[:2] = (2.0, -1.5)
    y = a @ x_true + 0.01 * rng.normal(size=n)
    # last column: orthogonal to y and small
    v = rng.normal(size=n)
    v -= (v @ y) / (y @ y) * y
    a[:, -1] = 0.05 * v / np.linalg.norm(v)
    ds = G.Dataset(a, y)
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(d),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    spec = dataclasses.replace(spec, lam=G.lambda_max(spec) / 2)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=0, max_outer=5, eta=tuned_eta(spec)))
    assert all(d - 1 not in h for h in rep.active_history[2:])


def test_screen_safety_against_oracle_small():
    for seed in (11, 12):
        spec = make_instance(seed=seed, n=80, d=120, ratio=0.4)
        oracle = G.reference_solve(spec, tol=1e-10)
        rep = G.adsgd_solve(spec, G.SolverConfig(seed=seed, gap_tol=1e-6,
                                                 max_outer=100, eta=tuned_eta(spec)))
        removed = set(range(spec.partition.q)) - set(rep.active_history[-1].tolist())
        for j in removed:
            coords = oracle.x_final[spec.partition.groups[j]]
            assert np.max(np.abs(coords), initial=0.0) <= 1e-9


# ------------------------------------------------------ equicorrelation set

def test_equicorrelation_empty_above_lambda_max():
    spec = make_instance(seed=13, n=40, d=30)
    above = dataclasses.replace(spec, lam=G.lambda_max(spec) * 1.5)
    oracle = G.reference_solve(above, tol=1e-10)
    assert G.equicorrelation_set(above, oracle.dual).size == 0


def test_equicorrelation_contains_duplicated_support_column():
    rng = np.random.default_rng(4)
    n = 40
    base = rng.normal(size=(n, 5))
    base[:, 1] = base[:, 0]  # duplicate an informative column
    y = 2.0 * base[:, 0] + 0.01 * rng.normal(size=n)
    ds = G.Dataset(base, y)
    spec = G.ProblemSpec(dataset=ds, partition=G.BlockPartition.singletons(5),
                         loss=G.LOSSES["squared"], reg=G.REGULARIZERS["l1"], lam=1.0)
    spec = dataclasses.replace(spec, lam=G.lambda_max(spec) / 2)
    oracle = G.reference_solve(spec, tol=1e-10)
    eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
    assert {0, 1} <= eq


def test_equicorrelation_superset_of_oracle_support():
    spec = make_instance(seed=14, n=70, d=90, ratio=0.4)
    oracle = G.reference_solve(spec, tol=1e-12)
    eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
    support_blocks = {int(spec.partition.block_of[i]) for i in oracle.support}
    assert support_blocks <= eq


# ----------------------------------------------------------- active set etc.

def test_active_set_keep_restricts_features():
    spec = make_instance(seed=15, n=30, d=24, q=6)
    act = ActiveSet.full(spec)
    sub = act.keep([1, 4])
    expected = np.sort(np.concatenate([spec.partition.groups[1],
                                       spec.partition.groups[4]]))
    np.testing.assert_array_equal(sub.features, expected)
    assert sub.partition is act.partition
    # scattered partitions, block ids in any order or none: sorted intp features
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(1, 40))
        q = int(rng.integers(1, d + 1))
        labels = np.concatenate([np.arange(q), rng.integers(0, q, size=d - q)])
        part = G.BlockPartition([np.flatnonzero(labels == j) for j in rng.permutation(q)])
        full = ActiveSet(blocks=np.arange(q), features=np.arange(d), partition=part)
        ids = rng.permutation(q)[:int(rng.integers(0, q + 1))]
        sub = full.keep(ids)
        want = np.sort(np.concatenate([part.groups[j] for j in ids] + [[]]))
        assert sub.features.dtype == np.intp and np.array_equal(sub.features, want)
        assert np.array_equal(sub.blocks, np.sort(ids))


def test_column_bounds_l1_are_column_norms():
    spec = make_instance(seed=16, n=30, d=24, q=24)
    np.testing.assert_allclose(column_bounds(spec), spec.dataset.column_norms(),
                               rtol=0, atol=1e-14)


def _group_l2_spec(a, partition):
    ds = G.Dataset(a, np.random.default_rng(0).normal(size=a.shape[0]))
    return G.ProblemSpec(dataset=ds, partition=partition, loss=G.LOSSES["squared"],
                         reg=G.REGULARIZERS["group_l2"], lam=1.0)


def _scattered_partition(cols, rng):
    """Blocks of uneven sizes whose columns interleave across cols."""
    cuts = np.sort(rng.choice(np.arange(1, cols.size), size=cols.size // 4,
                              replace=False))
    return [np.sort(g) for g in np.split(rng.permutation(cols), cuts)]


def test_column_bounds_group_l2_are_tight_upper_bounds():
    """The sphere test is safe only if Omega_j^D(A_j) = sigma_max(A_j) is not
    underestimated; the rounding allowance keeps the bound within 1e-9."""
    rng = np.random.default_rng(17)
    a = make_instance(seed=17, n=30, d=34, q=4, reg="group_l2").dataset.A.toarray()
    a[:, 9:18] = 0.0  # second block all zero
    q, _ = np.linalg.qr(rng.normal(size=(30, 8)))
    a[:, 26:34] = 3.0 * q  # last block: all 8 singular values equal 3
    partitions = {
        "uneven contiguous": G.BlockPartition.contiguous(34, 4),  # 9, 9, 8, 8
        "contiguous": G.BlockPartition.contiguous(34, 17),
        "scattered": G.BlockPartition(
            [np.arange(9, 18, 2), np.arange(10, 18, 2)]
            + _scattered_partition(np.r_[0:9, 18:34], rng)),
        "singletons": G.BlockPartition.singletons(34),
    }
    assert [g.size for g in partitions["uneven contiguous"].groups] == [9, 9, 8, 8]
    assert len(partitions["scattered"].classes) > 2
    for name, part in partitions.items():
        got = column_bounds(_group_l2_spec(a, part))
        sigma = np.array([np.linalg.svd(a[:, g], compute_uv=False)[0]
                          for g in part.groups])
        assert np.all(got >= sigma), name
        assert np.all(got <= sigma * (1.0 + 1e-9)), name
        zero = np.array([not a[:, g].any() for g in part.groups])
        assert zero.any() and np.all(got[zero] == 0.0), name
    top = np.linalg.svd(a[:, 26:34], compute_uv=False)
    assert top[0] - top[-1] < 1e-12  # the repeated top singular value is in place


def _fresh(spec):
    """spec on a new Dataset of the same design, whose memo is empty."""
    ds = spec.dataset
    return dataclasses.replace(spec, dataset=G.Dataset(ds.A, ds.y))


def test_column_bounds_group_l2_split_classes_give_the_same_bits(monkeypatch):
    """Each computation runs on a fresh Dataset, so no call is answered by the
    memo of an earlier one; the rejection also holds on a filled memo."""
    spec = make_instance(seed=19, n=40, d=34, q=4, reg="group_l2")  # 9, 9, 8, 8
    whole = column_bounds(spec)
    monkeypatch.setattr(gapsgd.duality, "_GRAM_ENTRIES", 81)  # one block at a time
    gram, calls = gapsgd.duality._gram_sigma, []
    monkeypatch.setattr(gapsgd.duality, "_gram_sigma",
                        lambda a, idx: calls.append(idx.shape[0]) or gram(a, idx))
    np.testing.assert_array_equal(column_bounds(_fresh(spec)), whole)
    assert calls == [1, 1, 1, 1]
    monkeypatch.setattr(gapsgd.duality, "_GRAM_ENTRIES", 80)
    for case in (_fresh(spec), spec):
        with pytest.raises(ValueError, match="block of 9 columns"):
            column_bounds(case)


def test_column_bounds_memo_keys_on_the_penalty_and_the_layout():
    """Both penalties on a contiguous partition and on a scattered one of the
    same block sizes share one Dataset, in turn and twice over; each gets the
    bits of a computation on a copy of the design."""
    spec = make_instance(seed=21, n=40, d=32, q=4, model="logistic")
    scattered = G.BlockPartition([np.arange(j, 32, 4) for j in range(4)])
    cases = [dataclasses.replace(spec, partition=part, reg=G.REGULARIZERS[reg])
             for reg in ("l1", "group_l2")
             for part in (spec.partition, scattered)]
    want = [column_bounds(_fresh(case)) for case in cases]
    assert all(not np.array_equal(a, b) for i, a in enumerate(want) for b in want[:i])
    for _ in range(2):
        for case, bounds in zip(cases, want):
            np.testing.assert_array_equal(column_bounds(case), bounds)


@pytest.mark.parametrize("reg", ["l1", "group_l2"])
def test_column_bounds_are_read_only(reg):
    spec = make_instance(seed=22, n=30, d=20, q=4, reg=reg)
    for bounds in (column_bounds(spec), column_bounds(spec)):
        with pytest.raises(ValueError, match="read-only"):
            bounds[0] = 0.0


def test_a_lambda_path_on_one_dataset_forms_the_group_l2_bounds_once(monkeypatch):
    """Two build_spec ratios on one Dataset make two partitions of one layout,
    so the second adsgd solve reuses the first one's bounds."""
    data = G.generate_synthetic(G.SyntheticParams(n=60, d=40, sparsity=0.3, seed=23,
                                                  model="logistic"))
    gram, calls = gapsgd.duality._gram_sigma, []
    monkeypatch.setattr(gapsgd.duality, "_gram_sigma",
                        lambda a, idx: calls.append(idx.shape[0]) or gram(a, idx))
    for ratio in (0.5, 0.25):
        spec = G.build_spec(data, model="logistic", lambda_ratio=ratio, q=4,
                            reg="group_l2")
        G.adsgd_solve(spec, G.SolverConfig(seed=0, max_outer=3, eta=tuned_eta(spec)))
    assert calls == [4]


def test_column_bounds_group_l2_reject_wide_default_blocks():
    """The default q = 10 on a design 25,000 columns wide gives blocks of
    2,500 columns, past the 2,048 whose dense Gram column_bounds will form."""
    rng = np.random.default_rng(20)
    n, d = 50, 25_000
    a = sp.random(n, d, density=1e-3, format="csr", random_state=rng)
    spec = G.build_spec(G.Dataset(a, rng.normal(size=n)), reg="group_l2")
    assert spec.partition.q == 10
    with pytest.raises(ValueError, match="block of 2500 columns exceeds the limit of 2048"):
        column_bounds(spec)
    with pytest.raises(ValueError, match="block of 2500 columns"):
        G.adsgd_solve(spec, G.SolverConfig(seed=0, max_outer=1))
    G.mrbcd_solve(spec, G.SolverConfig(seed=0, max_outer=1))  # never screens


def test_active_history_is_monotone_under_screening():
    spec = make_instance(seed=18, n=60, d=80)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=1, gap_tol=1e-6, max_outer=80,
                                             eta=tuned_eta(spec)))
    sets = [set(h.tolist()) for h in rep.active_history]
    assert all(b <= a for a, b in zip(sets, sets[1:]))


def test_dual_value_matches_closed_form_squared():
    spec = hand_lasso()
    theta = np.array([0.3, -0.4])
    dp = G.DualPoint(theta=theta, scale_used=1.0)
    y = spec.dataset.y
    want = -float(np.sum(0.5 * theta ** 2 - y * theta)) / 2
    assert _dual_value(spec, dp) == pytest.approx(want, rel=1e-14)
