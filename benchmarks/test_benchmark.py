"""Self-test of the benchmark at tiny sizes: python3 -m pytest benchmarks -q"""

import dataclasses
import json
import math
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402

G = run.import_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The named workload shrunk so that one round takes well under a second."""
    wl = run.WORKLOADS[name]
    shape = {"lasso-sparse": dict(n=60, d=150, sparsity=0.2),
             "lasso-tall": dict(n=200, d=12),
             "logistic-group": dict(n=60, d=80, sparsity=0.3, support_size=8)}[name]
    q = {"lasso-sparse": 10, "lasso-tall": 4, "logistic-group": 8}[name]
    return dataclasses.replace(wl, data={**wl.data, **shape}, q=q)


def metric_names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def snapshot():
    """Identity of every attribute the tracer may touch."""
    objs = [sys.modules[m] for m in ("gapsgd", "gapsgd.problem", "gapsgd.duality",
                                     "gapsgd.solvers", "gapsgd.harness")]
    objs += list(G.LOSSES.values()) + list(G.REGULARIZERS.values())
    return [(obj, dict(vars(obj))) for obj in objs]


def assert_unchanged(before):
    for obj, attrs in before:
        now = dict(vars(obj))
        assert now.keys() == attrs.keys(), obj
        assert all(now[k] is v for k, v in attrs.items()), obj


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_and_units_match_benchmark_json(name, trace):
    _, result = run.run_workload(G, tiny(name), seed=1, seconds=0.01, trace=trace)
    expected = metric_names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert result["attempted"] >= len(run.SOLVERS)


def test_tracer_restores_modules_and_singletons():
    before = snapshot()
    original = G.solvers.inner_budget
    spec = run.Instance(G, tiny("logistic-group"), run.ROOT).spec
    with tr.Tracer().trace() as rec:
        assert G.solvers.inner_budget is not original
        G.solve(spec, G.SolverConfig(solver="proxsvrg", seed=0, max_outer=2))
    assert rec.stats["problem.block_prox"].calls > 0
    assert rec.stats["solvers.inner_budget"].units > 0
    assert_unchanged(before)


def test_tracer_restores_after_a_raising_solve():
    before = snapshot()
    spec = run.Instance(G, tiny("lasso-tall"), run.ROOT).spec
    with pytest.raises(ValueError):
        with tr.Tracer().trace():
            G.solve(spec, G.SolverConfig(solver="adsgd", eta=-1.0))
    assert_unchanged(before)


def test_wrong_x_counts_as_failed(monkeypatch):
    real_solve = G.solve

    def corrupt(spec, cfg):
        report = real_solve(spec, cfg)
        if cfg.solver == "mrbcd":
            report.x_final = report.x_final + 1.0
        return report

    monkeypatch.setattr(G, "solve", corrupt)
    lines, result = run.run_workload(G, tiny("lasso-tall"), seed=0, seconds=0.01, trace=0)
    assert result["failed"] >= 1
    assert result["metrics"]["mrbcd_time_to_gap_s"]["value"] == float("inf")
    assert result["metrics"]["certified_share"]["value"] < 1.0
    assert any(line.startswith("failed: mrbcd") for line in lines)


def test_a_seed_always_runs_the_same_solves():
    seconds = 2 * tiny("lasso-tall").round_s
    (lines_a, a), (lines_b, b) = [
        run.run_workload(G, tiny("lasso-tall"), seed=3, seconds=seconds, trace=0)
        for _ in range(2)]
    assert run.rounds_for(tiny("lasso-tall"), seconds, 0) == 2
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert a["attempted"] == 2 * sum(v for k, v in tiny("lasso-tall").plan.items()
                                     if k != "setup")
    assert ([line for line in lines_a if line.startswith("failed:")]
            == [line for line in lines_b if line.startswith("failed:")])


def test_speed_probe_samples_inside_calls_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert sum(t0 < a < t1 for a, _ in probe.probes) >= 5
    assert 0.0 < probe.nominal_s(t0, t1) < math.inf


def test_speed_probe_scales_each_stretch_and_leaves_out_probes():
    probe = run.SpeedProbe()
    nominal = run.PROBE_NOMINAL_S
    probe.probes = [(0.0, nominal), (1.0, 1.0 + 2 * nominal), (2.0, 2.0 + nominal)]
    probe._pace = [nominal, 2 * nominal, nominal]
    # both stretches lie between a probe at nominal pace and one at half speed
    expected = (0.5 + (1.5 - (1.0 + 2 * nominal))) / 1.5
    assert probe.nominal_s(0.5, 1.5) == pytest.approx(expected)
    assert probe.nominal_s(0.1, 0.2) == pytest.approx(0.1 / 1.5)


def test_loaded_libsvm_matches_generated(tmp_path):
    data = G.harness.generate_synthetic(G.harness.SyntheticParams(
        **tiny("lasso-sparse").data))
    path = tmp_path / "tiny.libsvm"
    run.write_libsvm(data, path)
    assert run.same_dataset(G.harness.load_libsvm(path), data)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench_dir = pathlib.Path(run.__file__).parent
    shutil.copytree(bench_dir, tmp_path / bench_dir.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "lasso-tall",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
