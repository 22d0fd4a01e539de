"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
with the measured numbers, visible in the live test output.
"""

import dataclasses
import time

import numpy as np
import pytest

import gapsgd as G
from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
from gapsgd.problem import soft_threshold

from conftest import inert_screening, make_instance, tuned_eta


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# 30 shared benchmark instances at lambda_max / 2, both models; the logistic
# shapes carry larger sample counts so their noise-block margins do not sit
# systematically at the elimination threshold implied by the 1e-6 stopping gap
CORE_SHAPES = [
    dict(seed=200 + i, n=n, d=d, sparsity=dens, support=k, model=model)
    for i, (n, d, dens, k, model) in enumerate([
        (80, 120, 0.5, 5, "lasso"),
        (100, 200, 0.3, 8, "lasso"),
        (120, 160, 0.7, 6, "lasso"),
        (150, 300, 0.4, 10, "lasso"),
        (200, 400, 0.3, 12, "lasso"),
        (100, 150, 0.6, 7, "lasso"),
        (150, 250, 0.5, 9, "lasso"),
        (90, 140, 0.4, 5, "lasso"),
        (180, 350, 0.35, 11, "lasso"),
        (130, 220, 0.5, 8, "lasso"),
        (180, 120, 0.5, 5, "logistic"),
        (200, 200, 0.3, 8, "logistic"),
        (220, 160, 0.7, 6, "logistic"),
        (250, 300, 0.4, 10, "logistic"),
        (300, 400, 0.3, 12, "logistic"),
        (200, 150, 0.6, 7, "logistic"),
        (250, 250, 0.5, 9, "logistic"),
        (190, 140, 0.4, 5, "logistic"),
        (280, 350, 0.35, 11, "logistic"),
        (230, 220, 0.5, 8, "logistic"),
        (150, 200, 0.45, 7, "lasso"),
        (110, 180, 0.55, 6, "lasso"),
        (170, 320, 0.3, 9, "lasso"),
        (140, 260, 0.5, 8, "lasso"),
        (95, 130, 0.6, 5, "lasso"),
        (250, 200, 0.45, 7, "logistic"),
        (210, 180, 0.55, 6, "logistic"),
        (270, 320, 0.3, 9, "logistic"),
        (240, 260, 0.5, 8, "logistic"),
        (195, 130, 0.6, 5, "logistic"),
    ])
]


@pytest.fixture(scope="session")
def core_runs():
    """Oracle plus all three stochastic solvers at gap_tol 1e-6 on the shared instances."""
    out = []
    for shape in CORE_SHAPES:
        spec = make_instance(ratio=0.5, **shape)
        eta = tuned_eta(spec)
        oracle = G.reference_solve(spec, tol=1e-12)
        runs = {}
        for name in ("adsgd", "mrbcd", "proxsvrg"):
            cfg = G.SolverConfig(solver=name, seed=shape["seed"], eta=eta,
                                 gap_tol=1e-6, max_outer=400, batch_size=10)
            runs[name] = G.solve(spec, cfg)
        out.append((spec, oracle, runs))
    return out


def test_criterion_01_screening_safety(capsys):
    """No screened block may carry oracle weight above 1e-9; zero violations.

    The detail also counts the runs that certified: the check holds for a
    run that stops at max_outer too, which screens with the wider sphere of
    its larger gap."""
    rng = np.random.default_rng(20240811)
    t_start = time.perf_counter()
    violations = []
    runs = certified = 0
    instances = 0
    base_id = 0
    shapes = [dict(n=int(rng.integers(50, 201)), d=int(rng.integers(100, 401)),
                   sparsity=float(rng.uniform(0.2, 0.8)),
                   support_size=int(rng.integers(3, 16))) for _ in range(17)]
    # tall shapes, where sqrt(2 T gap) fell short of the dual optimum's distance
    shapes += [dict(n=2000, d=40, sparsity=1.0, support_size=4),
               dict(n=500, d=100, sparsity=0.5, support_size=8, feature_scale=0.3)]
    for shape in shapes:
        n, d = shape["n"], shape["d"]
        for model in ("lasso", "logistic"):
            data = generate_synthetic(SyntheticParams(
                noise=0.05, seed=1000 + base_id, model=model, **shape))
            base_id += 1
            for ratio in (0.5, 0.25, 0.1):
                spec = build_spec(data, model=model, lambda_ratio=ratio, q=10)
                eta = tuned_eta(spec)
                oracle = G.reference_solve(spec, tol=1e-8, max_iter=100000)
                instances += 1
                for cfg in (
                    G.SolverConfig(solver="adsgd", seed=base_id, gap_tol=1e-6,
                                   max_outer=60, eta=eta),
                    G.SolverConfig(solver="adsgd", seed=base_id, gap_tol=1e-6,
                                   max_outer=40, eta=eta, batch_size=n, m=60),
                ):
                    rep = G.solve(spec, cfg)
                    runs += 1
                    certified += rep.converged
                    removed = set(range(10)) - set(rep.active_history[-1].tolist())
                    for j in removed:
                        peak = np.max(np.abs(oracle.x_final[spec.partition.groups[j]]),
                                      initial=0.0)
                        if peak > 1e-9:
                            violations.append((cfg.solver, cfg.batch_size, n, d, model,
                                               ratio, j, peak))
                    sets = [set(h.tolist()) for h in rep.active_history]
                    assert all(b <= a for a, b in zip(sets, sets[1:])), \
                        "active set grew during a run"
    elapsed = time.perf_counter() - t_start
    ok = not violations and instances >= 100 and elapsed < 300
    announce(capsys, 1, "screening safety", ok,
             f"{instances} instances, {runs} runs ({certified} certified), "
             f"{len(violations)} violations, {elapsed:.0f}s")


def test_criterion_02_optimality_agreement(capsys, core_runs):
    """Every solver's final iterate within 1e-4 of the oracle in the max norm."""
    worst = {}
    for spec, oracle, runs in core_runs:
        for name, rep in runs.items():
            assert rep.converged, f"{name} did not reach gap 1e-6"
            err = float(np.max(np.abs(rep.x_final - oracle.x_final)))
            worst[name] = max(worst.get(name, 0.0), err)
    ok = all(v <= 1e-4 for v in worst.values())
    detail = ", ".join(f"{k} max err {v:.1e}" for k, v in sorted(worst.items()))
    announce(capsys, 2, "optimality agreement", ok, detail)


def test_criterion_03_linear_convergence(capsys, monkeypatch):
    """log suboptimality versus outer iteration: slope < -0.05 with R^2 > 0.9.

    The rate is that of the stochastic steps, so the refinement gate is shut
    (_REFINE_COST = 0): no row's point is a refined one, and the solves run
    on until the epochs' own iterate certifies itself.
    """
    monkeypatch.setattr(G.solvers, "_REFINE_COST", 0.0)
    shapes = ([dict(seed=300 + i, model="lasso", mu_p=0.0) for i in range(12)]
              + [dict(seed=330 + i, model="logistic", mu_p=1e-3) for i in range(8)])
    results = []
    for shape in shapes:
        spec = make_instance(n=300, d=100, sparsity=1.0, support=10,
                             ratio=0.5, **shape)
        oracle = G.reference_solve(spec, tol=1e-12)
        rep = G.adsgd_solve(spec, G.SolverConfig(
            seed=shape["seed"], gap_tol=1e-9, max_outer=600,
            eta=tuned_eta(spec), m=spec.dataset.n // 2))
        ks, ys = [], []
        for t in rep.trace:
            sub = t.objective - oracle.objective
            if 1e-8 <= sub <= 1e-1:
                ks.append(float(t.outer_iter))
                ys.append(np.log(sub))
        assert len(ks) >= 3, "too few points inside the fitting window"
        ks, ys = np.array(ks), np.array(ys)
        design = np.vstack([ks, np.ones_like(ks)]).T
        coef = np.linalg.lstsq(design, ys, rcond=None)[0]
        pred = design @ coef
        ss_res = float(np.sum((ys - pred) ** 2))
        ss_tot = float(np.sum((ys - ys.mean()) ** 2))
        r2 = 1.0 - ss_res / max(ss_tot, 1e-300)
        results.append((coef[0], r2))
    worst_slope = max(s for s, _ in results)
    worst_r2 = min(r for _, r in results)
    ok = worst_slope < -0.05 and worst_r2 > 0.9
    announce(capsys, 3, "linear convergence", ok,
             f"{len(results)} instances, worst slope {worst_slope:.3f}, "
             f"worst R^2 {worst_r2:.3f}")


def test_criterion_04_identification_before_convergence(capsys, core_runs):
    """Active set equals the oracle equicorrelation set strictly before gap <= 1e-6.

    Trace row i records the active set produced by iteration i's screening
    step, which runs before that iteration's inner loop; the row's gap is
    measured after it. Identification at row index <= the stopping row index
    therefore means the screening event strictly preceded the convergence
    measurement.
    """
    hits = 0
    total = 0
    for spec, oracle, runs in core_runs:
        rep = runs["adsgd"]
        total += 1
        eq = set(G.equicorrelation_set(spec, oracle.dual).tolist())
        hist = [set(h.tolist()) for h in rep.active_history]
        conv_idx = len(rep.trace) - 1  # the first row whose gap <= 1e-6 may stop
        ident_idx = None
        for i in range(len(hist)):
            if all(h == eq for h in hist[i:]):
                ident_idx = i
                break
        if ident_idx is not None and ident_idx <= conv_idx:
            hits += 1
    frac = hits / total
    ok = frac >= 0.9
    announce(capsys, 4, "identification before convergence", ok,
             f"{hits}/{total} runs identified before the gap crossed ({frac:.0%})")


def test_criterion_05_speedup_over_mrbcd(capsys):
    """ADSGD needs at most 0.7x MRBCD's coordinate updates to reach gap 1e-6."""
    means = []
    for inst_seed, (n, d, k) in enumerate([(100, 200, 10), (150, 300, 12)]):
        data = generate_synthetic(SyntheticParams(
            n=n, d=d, sparsity=0.5, noise=0.05, seed=500 + inst_seed,
            support_size=k, support_placement="prefix"))
        spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
        oracle = G.reference_solve(spec, tol=1e-10)
        assert d >= 4 * oracle.support.size
        eta = tuned_eta(spec)
        ratios = []
        for rep_seed in range(10):
            cfg = G.SolverConfig(seed=rep_seed, gap_tol=1e-6, max_outer=400,
                                 eta=eta)
            a = G.adsgd_solve(spec, cfg)
            b = G.mrbcd_solve(spec, cfg)
            assert a.converged and b.converged
            ratios.append(a.coord_updates / b.coord_updates)
        means.append(float(np.mean(ratios)))
    ok = all(m <= 0.7 for m in means)
    announce(capsys, 5, "speedup over MRBCD", ok,
             "mean update ratios " + ", ".join(f"{m:.2f}" for m in means))


def test_criterion_06_mrbcd_equivalence(capsys, monkeypatch):
    """ADSGD with its screening made inert reproduces MRBCD bit for bit under
    shared seeds: every screen keeps every block, every working set is the
    safe set and no model is refined, while the screening path still runs."""
    inert_screening(monkeypatch)
    identical = 0
    for i in range(10):
        spec = make_instance(seed=600 + i, n=60 + 10 * i, d=80 + 12 * i,
                             model="lasso" if i % 2 else "logistic")
        cfg = G.SolverConfig(seed=i, gap_tol=1e-12, max_outer=6, m=100,
                             eta=tuned_eta(spec), keep_iterates=True)
        a = G.adsgd_solve(spec, cfg)
        b = G.mrbcd_solve(spec, cfg)
        same = (len(a.iterates) == len(b.iterates)
                and all(np.array_equal(u, v) for u, v in zip(a.iterates, b.iterates))
                and np.array_equal(a.x_final, b.x_final)
                and [r.gap for r in a.trace] == [r.gap for r in b.trace]
                and [r.objective for r in a.trace] == [r.objective for r in b.trace])
        identical += bool(same)
    ok = identical == 10
    announce(capsys, 6, "MRBCD equivalence", ok, f"{identical}/10 bit-identical")


def test_criterion_07_vr_unbiasedness(capsys, monkeypatch):
    """Exhaustive singleton-batch average equals the exact block gradient.

    vr_gradient runs the engine's step kernel on the uncompacted design, on
    the storage the engine would pick for it. Both storages are checked:
    _RHO = inf keeps the design sparse, _RHO = 0 makes it dense.
    """
    worst = {}
    for storage, rho in (("sparse", np.inf), ("dense", 0.0)):
        monkeypatch.setattr(G.solvers, "_RHO", rho)
        worst[storage] = 0.0
        for seed, model in ((700, "lasso"), (701, "logistic")):
            spec = make_instance(seed=seed, n=45, d=30, q=6, model=model)
            rng = np.random.default_rng(seed)
            x, xt = rng.normal(size=30), rng.normal(size=30)
            mu = G.full_gradient(spec, xt)
            full = G.full_gradient(spec, x)
            for blk in range(6):
                avg = np.mean([G.vr_gradient(spec, x, xt, mu, [i], blk)
                               for i in range(45)], axis=0)
                dev = float(np.max(np.abs(avg - full[spec.partition.groups[blk]])))
                worst[storage] = max(worst[storage], dev)
    ok = max(worst.values()) <= 1e-12
    announce(capsys, 7, "variance-reduction unbiasedness", ok,
             ", ".join(f"worst deviation {v:.1e} ({k})" for k, v in worst.items()))


def test_criterion_08_lambda_max_correctness(capsys):
    """Zero vector exactly at lam_max*(1+1e-9); nonzero at 0.99*lam_max."""
    checked = 0
    for i in range(10):
        for model in ("lasso", "logistic"):
            spec = make_instance(seed=800 + i, n=60 + 8 * i, d=90 + 10 * i,
                                 model=model)
            lmax = G.lambda_max(spec)
            above = dataclasses.replace(spec, lam=lmax * (1 + 1e-9))
            rep_above = G.reference_solve(above, tol=1e-10)
            below = dataclasses.replace(spec, lam=lmax * 0.99)
            rep_below = G.reference_solve(below, tol=1e-8)
            assert np.all(rep_above.x_final == 0.0), (model, i)
            assert np.max(np.abs(rep_below.x_final)) > 1e-10, (model, i)
            checked += 1
    announce(capsys, 8, "lambda_max correctness", checked == 20,
             f"{checked} instances, zero above and nonzero below the threshold")


def test_criterion_09_orthonormal_closed_form(capsys):
    """Orthonormal-design instances match coordinate-wise soft thresholding."""
    worst = 0.0
    for i in range(5):
        data = generate_synthetic(SyntheticParams(
            n=60 + 10 * i, d=30 + 5 * i, noise=0.02 * i, seed=900 + i,
            support_size=4 + i, orthonormal=True))
        spec = build_spec(data, model="lasso", lambda_ratio=0.3, q=10)
        rep = G.reference_solve(spec, tol=1e-10)
        a = np.asarray(spec.dataset.A.todense())
        closed = soft_threshold(a.T @ spec.dataset.y / spec.dataset.n, spec.lam)
        worst = max(worst, float(np.max(np.abs(rep.x_final - closed))))
    ok = worst <= 1e-8
    announce(capsys, 9, "orthonormal closed form", ok, f"worst coord error {worst:.1e}")


def test_criterion_10_numerical_gradients(capsys):
    """full_gradient, and the step kernel's full-batch block gradients
    (partial_gradient over every row), match central finite differences to
    relative 1e-5."""
    rng = np.random.default_rng(1000)
    worst = 0.0
    for trial in range(50):
        model = "lasso" if trial % 2 else "logistic"
        n = int(rng.integers(10, 51))
        d = int(rng.integers(5, 31))
        mu_p = float(rng.choice([0.0, 0.1]))
        data = generate_synthetic(SyntheticParams(
            n=n, d=d, sparsity=float(rng.uniform(0.3, 1.0)), noise=0.1,
            seed=int(rng.integers(1 << 30)), support_size=max(1, d // 5),
            model=model))
        spec = build_spec(data, model=model, lambda_ratio=0.5, q=min(5, d),
                          mu_p=mu_p)
        x = rng.normal(size=d)
        g = G.full_gradient(spec, x)
        g_step = np.zeros(d)
        for j, group in enumerate(spec.partition.groups):
            g_step[group] = G.partial_gradient(spec, x, np.arange(n), j)

        def smooth(v):
            z = spec.dataset.A @ v
            out = float(np.mean(spec.loss.value(z, spec.dataset.y)))
            if spec.mu_p > 0:
                out += spec.mu_p * float(np.sum(v ** 2))
            return out

        h = 1e-6
        fd = np.zeros(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (smooth(x + e) - smooth(x - e)) / (2 * h)
        for grad in (g, g_step):
            rel = float(np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))))
            worst = max(worst, rel)
    ok = worst < 1e-5
    announce(capsys, 10, "numerical gradients", ok,
             f"50 triples, two gradients each, worst relative error {worst:.1e}")
