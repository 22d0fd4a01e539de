import dataclasses
import math

import numpy as np
import pytest

import gapsgd as G
from gapsgd.problem import _gather_rows, _split_rows, soft_threshold
from gapsgd.solvers import _compact, _resolve, _spectral_bound, inner_budget

from conftest import hand_lasso, make_instance, tuned_eta


# -------------------------------------------------------------- inner budget

def test_inner_budget_matches_scaled_formula():
    assert inner_budget(100, 3, 10) == 30
    assert inner_budget(100, 10, 10) == 100
    assert inner_budget(7, 3, 10) == 3      # ceil(2.1)
    assert inner_budget(10, 0, 10) == 1     # floored at one


# -------------------------------------------------------------- determinism

def test_same_seed_gives_bitwise_identical_runs(lasso_spec):
    cfg = G.SolverConfig(seed=42, gap_tol=1e-6, max_outer=15,
                         eta=tuned_eta(lasso_spec), keep_iterates=True)
    a = G.adsgd_solve(lasso_spec, cfg)
    b = G.adsgd_solve(lasso_spec, cfg)
    assert np.array_equal(a.x_final, b.x_final)
    assert [r.gap for r in a.trace] == [r.gap for r in b.trace]
    assert [r.objective for r in a.trace] == [r.objective for r in b.trace]
    assert all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))


def test_different_seeds_differ(lasso_spec):
    cfg = G.SolverConfig(seed=1, max_outer=5, eta=tuned_eta(lasso_spec))
    a = G.adsgd_solve(lasso_spec, cfg)
    b = G.adsgd_solve(lasso_spec, dataclasses.replace(cfg, seed=2))
    assert not np.array_equal(a.x_final, b.x_final)


# ------------------------------------------------------ variance reduction

def test_vr_gradient_equals_snapshot_gradient_at_snapshot():
    spec = make_instance(seed=3, n=40, d=30, q=6)
    rng = np.random.default_rng(0)
    xt = rng.normal(size=30)
    mu = G.full_gradient(spec, xt)
    for batch in ([0], [5, 7], list(range(40))):
        out = G.vr_gradient(spec, xt, xt, mu, batch, 2)
        np.testing.assert_allclose(out, mu[spec.partition.groups[2]],
                                   rtol=0, atol=1e-15)


def test_vr_gradient_exhaustive_average_is_unbiased():
    spec = make_instance(seed=4, n=45, d=24, q=4, mu_p=0.05)
    rng = np.random.default_rng(1)
    x, xt = rng.normal(size=24), rng.normal(size=24)
    mu = G.full_gradient(spec, xt)
    full = G.full_gradient(spec, x)
    for blk in range(4):
        avg = np.mean([G.vr_gradient(spec, x, xt, mu, [i], blk)
                       for i in range(45)], axis=0)
        np.testing.assert_allclose(avg, full[spec.partition.groups[blk]],
                                   rtol=0, atol=1e-12)


def test_vr_gradient_shape_check():
    spec = make_instance(seed=5, n=20, d=10, q=2)
    with pytest.raises(ValueError):
        G.vr_gradient(spec, np.zeros(10), np.zeros(10), np.zeros(3), [0], 0)


# ---------------------------------------------------- compacted design

def test_gather_rows_on_compacted_design_matches_full_gather():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(12, 15)) * (rng.random(size=(12, 15)) < 0.5)
    a[[2, 7]] = 0.0                   # empty rows
    a[5] = 0.0
    a[5, [4, 10]] = [1.5, -2.0]       # only in blocks 1 and 3, which get dropped
    ds = G.Dataset(a, np.zeros(12))
    part = G.BlockPartition.contiguous(15, 5)
    full = G.ActiveSet(blocks=np.arange(5), features=np.arange(15),
                       column_bounds=np.ones(5), partition=part)
    # compacted twice, each time from the previous working design
    work = _compact(part, full, ds.A, full.features)
    for kept in ([0, 1, 2, 4], [0, 2, 4]):
        active = full.keep(kept)
        work = _compact(part, active, work.matrix, work.active.features)
    assert np.array_equal(work.matrix.toarray(), a[:, active.features])
    assert work.spans == [slice(0, 3), slice(3, 6), slice(6, 9)]

    batch = np.array([5, 2, 0, 5, 11, 7, 0])  # repeated, empty and emptied rows
    want_cols, want_vals, want_rows = [], [], []
    for pos, i in enumerate(batch):
        nz = np.flatnonzero(a[i])
        want_cols += nz.tolist()
        want_vals += a[i, nz].tolist()
        want_rows += [pos] * nz.size
    cols, vals, row_id = _gather_rows(_split_rows(ds.A), batch)
    assert np.array_equal(cols, want_cols) and np.array_equal(vals, want_vals)
    assert np.array_equal(row_id, want_rows)

    in_active = np.isin(cols, active.features)
    ccols, cvals, crow_id = _gather_rows(work.rows, batch)
    assert np.array_equal(ccols, np.searchsorted(active.features, cols[in_active]))
    assert np.array_equal(cvals, vals[in_active])
    assert np.array_equal(crow_id, row_id[in_active])


# ------------------------------------------------------------------- adsgd

def test_adsgd_converges_to_oracle_equicorrelation_set():
    spec = make_instance(seed=5, n=100, d=200)
    oracle = G.reference_solve(spec, tol=1e-12)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=5, gap_tol=1e-6, max_outer=200,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
    assert set(rep.active_history[-1].tolist()) == eq
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4


def test_adsgd_screened_coordinates_are_exact_zeros():
    spec = make_instance(seed=6, n=80, d=120)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=6, gap_tol=1e-6, max_outer=120,
                                             eta=tuned_eta(spec)))
    removed = sorted(set(range(spec.partition.q)) - set(rep.active_history[-1].tolist()))
    assert removed, "expected screening activity on this instance"
    for j in removed:
        assert np.all(rep.x_final[spec.partition.groups[j]] == 0.0)


def test_trace_counts_monotone_and_final_row_contract():
    spec = make_instance(seed=7, n=60, d=90)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=7, gap_tol=1e-6, max_outer=100,
                                             eta=tuned_eta(spec)))
    blocks = [r.active_blocks for r in rep.trace]
    feats = [r.active_features for r in rep.trace]
    assert blocks == sorted(blocks, reverse=True)
    assert feats == sorted(feats, reverse=True)
    assert rep.converged and rep.trace[-1].gap <= 1e-6
    times = [r.elapsed_s for r in rep.trace]
    assert times == sorted(times)


def test_not_converged_run_is_flagged():
    spec = make_instance(seed=8, n=60, d=90)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=8, gap_tol=1e-12, max_outer=3))
    assert not rep.converged and rep.trace[-1].gap > 1e-12
    assert rep.outer_iters == 3


# -------------------------------------------------------------------- asgd

def test_asgd_returns_zero_above_lambda_max():
    spec = hand_lasso()  # lam = lambda_max = 1
    spec = dataclasses.replace(spec, lam=1.0 + 1e-12)
    rep = G.asgd_solve(spec, G.SolverConfig(solver="asgd", seed=0, batch_size=2))
    assert np.all(rep.x_final == 0.0)
    assert rep.converged and rep.outer_iters <= 1


def test_asgd_full_batch_single_block_is_deterministic_prox_gradient():
    spec = make_instance(seed=9, n=30, d=20, q=1)
    n = spec.dataset.n
    eta = tuned_eta(spec)
    m = 7
    cfg = G.SolverConfig(solver="asgd", seed=0, eta=eta, m=m, batch_size=n,
                         max_outer=1, gap_tol=1e-14)
    rep = G.asgd_solve(spec, cfg)
    # replay: one outer iteration of averaged proximal gradient steps (the
    # engine folds 1/n into the sample weights, hence the one-ulp tolerance)
    x = np.zeros(20)
    acc = np.zeros(20)
    for _ in range(m):
        x = soft_threshold(x - eta * G.full_gradient(spec, x), eta * spec.lam)
        acc += x
    np.testing.assert_allclose(rep.x_final, acc / m, rtol=0, atol=1e-12)


def test_asgd_screening_is_safe():
    spec = make_instance(seed=10, n=70, d=100, ratio=0.4)
    oracle = G.reference_solve(spec, tol=1e-10)
    rep = G.asgd_solve(spec, G.SolverConfig(solver="asgd", seed=10, gap_tol=1e-6,
                                            max_outer=60, eta=tuned_eta(spec),
                                            batch_size=spec.dataset.n, m=80))
    removed = set(range(spec.partition.q)) - set(rep.active_history[-1].tolist())
    for j in removed:
        assert np.max(np.abs(oracle.x_final[spec.partition.groups[j]]),
                      initial=0.0) <= 1e-9


# ------------------------------------------------------------------- mrbcd

def test_mrbcd_is_adsgd_without_screening_bit_for_bit():
    spec = make_instance(seed=11, n=60, d=90)
    cfg = G.SolverConfig(seed=3, gap_tol=1e-6, max_outer=10, m=80,
                         eta=tuned_eta(spec), keep_iterates=True)
    a = G.adsgd_solve(spec, dataclasses.replace(cfg, screen_every=0))
    b = G.mrbcd_solve(spec, cfg)
    assert all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))
    assert np.array_equal(a.x_final, b.x_final)
    assert [r.gap for r in a.trace] == [r.gap for r in b.trace]


def test_mrbcd_active_blocks_stay_at_q():
    spec = make_instance(seed=12, n=50, d=60, q=6)
    rep = G.mrbcd_solve(spec, G.SolverConfig(seed=1, max_outer=8, eta=tuned_eta(spec)))
    assert all(r.active_blocks == 6 for r in rep.trace)


# ---------------------------------------------------------------- proxsvrg

def test_proxsvrg_full_batch_is_deterministic_prox_gradient():
    spec = make_instance(seed=13, n=25, d=16, q=4)
    n = spec.dataset.n
    eta = tuned_eta(spec)
    cfg = G.SolverConfig(solver="proxsvrg", seed=0, eta=eta, m=5, batch_size=n,
                         max_outer=1, gap_tol=1e-14)
    rep = G.proxsvrg_solve(spec, cfg)
    x = np.zeros(16)
    acc = np.zeros(16)
    for _ in range(5):
        x = soft_threshold(x - eta * G.full_gradient(spec, x), eta * spec.lam)
        acc += x
    np.testing.assert_allclose(rep.x_final, acc / 5, rtol=0, atol=1e-12)


def test_all_solvers_match_oracle_on_one_instance():
    spec = make_instance(seed=14, n=90, d=140)
    oracle = G.reference_solve(spec, tol=1e-12)
    eta = tuned_eta(spec)
    n = spec.dataset.n
    configs = {
        "adsgd": G.SolverConfig(solver="adsgd", seed=2, eta=eta, gap_tol=1e-6,
                                max_outer=200),
        "asgd": G.SolverConfig(solver="asgd", seed=2, eta=eta, gap_tol=1e-6,
                               max_outer=200, batch_size=n),
        "mrbcd": G.SolverConfig(solver="mrbcd", seed=2, eta=eta, gap_tol=1e-6,
                                max_outer=200),
        "proxsvrg": G.SolverConfig(solver="proxsvrg", seed=2, eta=eta,
                                   gap_tol=1e-6, max_outer=200),
    }
    for name, cfg in configs.items():
        rep = G.solve(spec, cfg)
        assert rep.converged, name
        err = np.max(np.abs(rep.x_final - oracle.x_final))
        assert err < 1e-4, f"{name}: {err}"


# --------------------------------------------------------------- reference

def test_reference_orthonormal_design_matches_soft_threshold():
    from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic

    data = generate_synthetic(SyntheticParams(n=80, d=40, noise=0.0, seed=21,
                                              support_size=6, orthonormal=True))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=10)
    rep = G.reference_solve(spec, tol=1e-10)
    a = np.asarray(spec.dataset.A.todense())
    closed = soft_threshold(a.T @ spec.dataset.y / spec.dataset.n, spec.lam)
    np.testing.assert_allclose(rep.x_final, closed, rtol=0, atol=1e-8)


def test_reference_support_stable_across_tolerances():
    spec = make_instance(seed=15, n=70, d=100)
    s8 = G.reference_solve(spec, tol=1e-8).support
    s10 = G.reference_solve(spec, tol=1e-10).support
    np.testing.assert_array_equal(s8, s10)


def test_reference_iteration_cap_raises_with_best_gap():
    spec = make_instance(seed=16, n=60, d=90)
    with pytest.raises(G.ConvergenceError) as exc:
        G.reference_solve(spec, tol=1e-12, max_iter=2)
    assert exc.value.best_gap is not None and exc.value.best_gap > 0


def test_reference_rejects_bad_tol():
    with pytest.raises(ValueError):
        G.reference_solve(hand_lasso(), tol=0.0)


# ------------------------------------------------------------ error paths

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_error_names_iteration():
    spec = make_instance(seed=17, n=40, d=30)
    with pytest.raises(G.DivergenceError) as exc:
        G.adsgd_solve(spec, G.SolverConfig(seed=0, eta=1e9, max_outer=50))
    assert exc.value.iteration is not None
    assert "iteration" in str(exc.value)


def test_invalid_configs_rejected(lasso_spec):
    bad = [
        G.SolverConfig(eta=0.0),
        G.SolverConfig(eta=-1.0),
        G.SolverConfig(eta=0.1, theory_mode=True),
        G.SolverConfig(batch_size=0),
        G.SolverConfig(batch_size=10 ** 6),
        G.SolverConfig(gap_tol=0.0),
        G.SolverConfig(max_outer=0),
        G.SolverConfig(m=0),
        G.SolverConfig(screen_every=-1),
        G.SolverConfig(theory_mode=True, mu_strong=-1.0),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            G.adsgd_solve(lasso_spec, cfg)
    with pytest.raises(ValueError):
        G.solve(lasso_spec, G.SolverConfig(solver="nope"))


# ------------------------------------------------------------- resolution

def test_resolve_defaults_and_theory_mode(lasso_spec):
    consts = G.lipschitz_constants(lasso_spec)
    eta, m, batch = _resolve(lasso_spec, G.SolverConfig(), consts)
    assert eta == pytest.approx(1.0 / (16 * consts.L))
    assert m == 2 * lasso_spec.dataset.n
    assert batch == 10
    eta_t, m_t, batch_t = _resolve(lasso_spec, G.SolverConfig(theory_mode=True),
                                   consts)
    assert batch_t == min(lasso_spec.dataset.n,
                          max(1, math.ceil(consts.T / consts.L)))
    assert eta_t == pytest.approx(1.0 / (16 * consts.L))
    _, m_mu, _ = _resolve(lasso_spec,
                          G.SolverConfig(theory_mode=True, mu_strong=0.5), consts)
    assert m_mu == math.ceil(65 * lasso_spec.partition.q * consts.L / 0.5)


# ---------------------------------------------------- group and perturbed

def test_group_penalty_end_to_end():
    spec = make_instance(seed=19, n=80, d=60, q=12, ratio=0.4, reg="group_l2",
                         support=6, placement="prefix")
    oracle = G.reference_solve(spec, tol=1e-11)
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=3, gap_tol=1e-8, max_outer=400,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4
    removed = set(range(12)) - set(rep.active_history[-1].tolist())
    for j in removed:
        assert np.max(np.abs(oracle.x_final[spec.partition.groups[j]]),
                      initial=0.0) <= 1e-9


def test_only_screening_solves_compute_column_bounds(monkeypatch):
    import gapsgd.duality

    spec = make_instance(seed=6, n=40, d=20, q=5, support=3, ratio=0.6,
                         model="logistic", reg="group_l2")
    real = gapsgd.duality.column_bounds

    def refuse(_spec):
        raise AssertionError("column_bounds called by a solve that never screens")

    monkeypatch.setattr(gapsgd.duality, "column_bounds", refuse)
    for solver, fields in (("reference", {}), ("mrbcd", {}), ("proxsvrg", {}),
                           ("adsgd", dict(screen_every=0)),
                           ("asgd", dict(screen_every=0))):
        cfg = G.SolverConfig(solver=solver, seed=1, m=40, max_outer=5,
                             eta=tuned_eta(spec), **fields)
        assert np.isfinite(G.solve(spec, cfg).gap)
    calls = []
    monkeypatch.setattr(gapsgd.duality, "column_bounds",
                        lambda s: calls.append(s) or real(s))
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=1, m=40, max_outer=10,
                                             eta=tuned_eta(spec)))
    assert len(rep.active_history[-1]) < spec.partition.q  # it did screen
    assert len(calls) == 1


def test_perturbed_problem_end_to_end():
    spec = make_instance(seed=20, n=60, d=90, model="logistic", ratio=0.3,
                         mu_p=1e-3)
    oracle = G.reference_solve(spec, tol=1e-11)
    assert oracle.gap <= 1e-11
    rep = G.adsgd_solve(spec, G.SolverConfig(seed=1, gap_tol=1e-8, max_outer=300,
                                             eta=tuned_eta(spec)))
    assert rep.converged
    assert np.max(np.abs(rep.x_final - oracle.x_final)) < 1e-4


def test_all_solvers_converge_with_conservative_step():
    # default eta = 1/(16L) < 1/(4L); a generous inner budget keeps the outer
    # count under the 200-iteration cap at this step size
    spec = make_instance(seed=30, n=60, d=40, q=10, support=4, sparsity=0.6)
    n = spec.dataset.n
    for name, kw in [("adsgd", {}), ("mrbcd", {}), ("asgd", dict(batch_size=n)),
                     ("proxsvrg", {})]:
        rep = G.solve(spec, G.SolverConfig(solver=name, seed=1, gap_tol=1e-6,
                                           max_outer=200, m=12 * n, **kw))
        assert rep.converged and rep.outer_iters <= 200, name


def test_spectral_bound_dominates_average_hessian():
    spec = make_instance(seed=21, n=40, d=30)
    a = np.asarray(spec.dataset.A.todense())
    lf = np.linalg.norm(a, 2) ** 2 / spec.dataset.n
    assert _spectral_bound(spec) >= 0.99 * lf
    assert _spectral_bound(spec) <= G.lipschitz_constants(spec).T * 1.01
