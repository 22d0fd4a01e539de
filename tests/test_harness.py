import csv
import math
import os
import pathlib

import numpy as np
import pytest

import gapsgd as G
from gapsgd.cli import main
from gapsgd.harness import (SyntheticParams, build_spec, generate_synthetic,
                            load_libsvm, mean_time_to_tol, parse_plan_file,
                            read_trace_csv, run_experiment, summary_table,
                            write_trace_csv)
from gapsgd.solvers import TraceRecord

from conftest import tuned_eta


# ------------------------------------------------------------- libsvm input

def test_load_libsvm_basic_rows(tmp_path):
    p = tmp_path / "toy.txt"
    p.write_text("1 1:0.5 3:-2\n0\n")
    ds = load_libsvm(p)
    assert (ds.n, ds.d) == (2, 3)
    a = np.asarray(ds.A.todense())
    np.testing.assert_array_equal(a[0], [0.5, 0.0, -2.0])
    np.testing.assert_array_equal(a[1], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(ds.y, [1.0, 0.0])


def test_load_libsvm_feature_count_from_max_index(tmp_path):
    p = tmp_path / "wide.txt"
    p.write_text("1 2:1.5\n-1 357:2.0\n")
    assert load_libsvm(p).d == 357


def test_load_libsvm_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.txt"
    p.write_text("1 1:1\n\n0 2:1\n\n")
    assert load_libsvm(p).n == 2


@pytest.mark.parametrize("content,fragment", [
    ("x 1:1\n", "line 1"),
    ("1 foo\n", "line 1"),
    ("1 1:a\n", "line 1"),
    ("1 0:2\n", "line 1"),
    ("1 1:1\n0 3:1 2:1\n", "line 2"),
])
def test_load_libsvm_errors_with_line_numbers(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(G.LibsvmParseError) as exc:
        load_libsvm(p)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("line,says", [
    ("1 1:0.5 2:nan", "non-finite feature value '2:nan'"),
    ("1 1:-inf", "non-finite feature value '1:-inf'"),
    ("1 1:1e400", "non-finite feature value '1:1e400'"),
    ("inf 1:0.5", "non-finite label 'inf'"),
    ("NaN 1:0.5", "non-finite label 'NaN'"),
])
def test_load_libsvm_names_the_line_of_a_non_finite_entry(tmp_path, line, says):
    p = tmp_path / "bad.txt"
    p.write_text(f"1 1:1\n\n{line}\n0 2:1\n")
    with pytest.raises(G.LibsvmParseError, match=rf"^line 3: {says}$"):
        load_libsvm(p)


def test_load_libsvm_binary_label_maps(tmp_path):
    p = tmp_path / "pm.txt"
    p.write_text("-1 1:1\n+1 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p, binarize_labels=True).y, [0.0, 1.0])
    p.write_text("0 1:1\n1 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p, binarize_labels=True).y, [0.0, 1.0])


def test_load_libsvm_multiclass_first_half_versus_rest(tmp_path):
    p = tmp_path / "multi.txt"
    p.write_text("0 1:1\n1 1:1\n2 1:1\n3 1:1\n2 2:1\n")
    y = load_libsvm(p, binarize_labels=True).y
    np.testing.assert_array_equal(y, [0.0, 0.0, 1.0, 1.0, 1.0])


def test_load_libsvm_keeps_raw_labels_for_regression(tmp_path):
    p = tmp_path / "reg.txt"
    p.write_text("2.5 1:1\n-0.5 2:1\n")
    np.testing.assert_array_equal(load_libsvm(p).y, [2.5, -0.5])


# --------------------------------------------------------- synthetic data

def test_generate_synthetic_is_seed_deterministic():
    params = SyntheticParams(n=40, d=60, sparsity=0.4, noise=0.1, seed=7,
                             support_size=5)
    a, b = generate_synthetic(params), generate_synthetic(params)
    assert np.array_equal(a.A.indptr, b.A.indptr)
    assert np.array_equal(a.A.indices, b.A.indices)
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x_true, b.x_true)


def test_generate_synthetic_oracle_support_envelope():
    data = generate_synthetic(SyntheticParams(n=120, d=500, sparsity=0.3,
                                              noise=0.05, seed=3, support_size=10))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=10)
    rep = G.reference_solve(spec, tol=1e-9)
    assert 5 <= rep.support.size <= 30


def test_generate_synthetic_orthonormal_recovers_planted_support():
    data = generate_synthetic(SyntheticParams(n=60, d=30, noise=0.0, seed=5,
                                              support_size=4, orthonormal=True))
    spec = build_spec(data, model="lasso", lambda_ratio=0.25, q=6)
    rep = G.reference_solve(spec, tol=1e-10)
    np.testing.assert_array_equal(rep.support, np.flatnonzero(data.x_true))


def test_generate_synthetic_logistic_labels_binary():
    data = generate_synthetic(SyntheticParams(n=50, d=20, seed=1, noise=0.05,
                                              model="logistic"))
    assert set(np.unique(data.y)) <= {0.0, 1.0}


def test_generate_synthetic_invalid_params():
    for kw in (dict(n=0, d=5), dict(n=5, d=5, sparsity=0.0),
               dict(n=5, d=5, noise=-1.0), dict(n=5, d=5, model="svm"),
               dict(n=5, d=5, support_size=9), dict(n=3, d=5, orthonormal=True),
               dict(n=5, d=5, support_placement="middle"),
               dict(n=5, d=5, noise=math.nan), dict(n=5, d=5, noise=math.inf),
               dict(n=5, d=5, noise=math.nan, model="logistic"),
               dict(n=5, d=5, noise=math.inf, model="logistic"),
               dict(n=5, d=5, noise=1.5, model="logistic"),
               dict(n=5, d=5, feature_scale=0.0), dict(n=5, d=5, feature_scale=-1.0),
               dict(n=5, d=5, feature_scale=math.inf), dict(n=5, d=5, amplitude=0.0),
               dict(n=5, d=5, amplitude=-2.0), dict(n=5, d=5, amplitude=math.inf)):
        with pytest.raises(ValueError):
            generate_synthetic(SyntheticParams(**kw))


# ------------------------------------------------------------- CSV traces

def test_trace_csv_round_trip(tmp_path):
    rows = [TraceRecord(0, 0.0, 1.23456789012345678, 0.5, 10, 200),
            TraceRecord(1, 0.0123, 0.3333333333333333, 1e-17, 9, 180,
                        restart="average"),
            TraceRecord(2, 0.0251, 0.30000000000000004, 2e-9, 9, 180,
                        radius=0.1 + 0.2, working_blocks=4, restart="last",
                        refined_dual=True),
            TraceRecord(3, 0.0302, 0.29999999999999993, 3e-17, 3, 60,
                        radius=0.01, working_blocks=3, restart="refined",
                        refined_dual=True, identified=True)]
    path = tmp_path / "t.csv"
    write_trace_csv(path, rows)
    back = read_trace_csv(path)
    assert back == rows


@pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 1)[0]],
                         ids=["extra-cell", "short-row"])
def test_trace_csv_rejects_a_row_of_the_wrong_length(tmp_path, edit):
    """A row with a cell too many or too few raises ValueError naming its line."""
    path = tmp_path / "t.csv"
    write_trace_csv(path, [TraceRecord(0, 0.0, 1.5, 0.5, 10, 200),
                           TraceRecord(1, 0.01, 1.25, 0.25, 9, 180, restart="last")])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3 "):
        read_trace_csv(path)


# ------------------------------------------------------------ experiments

def small_plan(tmp_path, reps=2, ratios=(0.5, 0.25), plot=False, solvers=None):
    synth = SyntheticParams(n=50, d=60, sparsity=0.5, noise=0.05, seed=11,
                            support_size=5)
    data = generate_synthetic(synth)
    spec = build_spec(data, model="lasso", lambda_ratio=0.5, q=10)
    eta = tuned_eta(spec)
    if solvers is None:
        solvers = (G.SolverConfig(solver="adsgd", eta=eta, gap_tol=1e-5,
                                  max_outer=120, seed=100),
                   G.SolverConfig(solver="mrbcd", eta=eta, gap_tol=1e-5,
                                  max_outer=120, seed=100))
    return G.ExperimentPlan(synthetic=synth, model="lasso", lambda_ratios=ratios,
                            solvers=solvers, repetitions=reps,
                            out_dir=str(tmp_path / "runs"), plot=plot)


def test_run_experiment_writes_round_trippable_traces(tmp_path):
    plan = small_plan(tmp_path)
    summaries = run_experiment(plan)
    assert len(summaries) == 2 * 2 * 2
    for s in summaries:
        assert not s.error
        assert os.path.exists(s.trace_path)
        trace = read_trace_csv(s.trace_path)
        assert s.converged == (trace[-1].gap <= 1e-5)
        assert trace[-1].gap <= 1e-5 or not s.converged
    assert os.path.exists(os.path.join(plan.out_dir, "summary.csv"))


def test_summary_csv_holds_each_run_as_written(tmp_path):
    """summary.csv has one column per RunSummary field, floats written by
    repr, converged as 0/1 and an empty error on a run that did not raise;
    a run that raised has NaN times and its message, and no identified
    row: an empty identified_at and a NaN identified_s."""
    eta = small_plan(tmp_path).solvers[0].eta
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), solvers=(
        G.SolverConfig(solver="adsgd", eta=eta, gap_tol=1e-5, max_outer=120, seed=100),
        G.SolverConfig(solver="adsgd", eta=1000.0, max_outer=20, seed=100)))
    ok, failed = run_experiment(plan)
    with open(os.path.join(plan.out_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["solver", "lambda_ratio", "repetition", "seed", "converged",
                      "outer_iters", "wall_time", "time_to_tol", "final_gap",
                      "final_objective", "coord_updates", "trace_path", "error",
                      "identified_at", "identified_s"]
    assert ok.converged and ok.error == ""
    assert rows[0] == ["adsgd", "0.5", "0", "100", "1", str(ok.outer_iters),
                       repr(ok.wall_time), repr(ok.wall_time), repr(ok.final_gap),
                       repr(ok.final_objective), str(ok.coord_updates), ok.trace_path, "",
                       str(ok.identified_at), repr(ok.identified_s)]
    assert rows[1] == ["adsgd", "0.5", "0", "100", "0", "0", "nan", "nan", "nan", "nan",
                       "0", "", failed.error, "", "nan"]
    assert "non-finite" in failed.error


def test_summary_csv_reads_back_when_each_run_identified_its_model(tmp_path):
    """identified_at and identified_s of a run_experiment grid read back from
    summary.csv as each report gave them: the outer_iter and elapsed_s of
    its trace's first identified row, read back from the run's trace CSV.
    mrbcd never screens, so its cells are empty and NaN."""
    plan = small_plan(tmp_path, reps=2, ratios=(0.5, 0.25))
    summaries = run_experiment(plan)
    with open(os.path.join(plan.out_dir, "summary.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(summaries) == 8
    for s, row in zip(summaries, rows):
        first = next((r for r in read_trace_csv(s.trace_path) if r.identified), None)
        if s.solver == "mrbcd":
            assert first is None and s.identified_at is None
            assert row["identified_at"] == "" and row["identified_s"] == "nan"
            continue
        assert s.converged and first is not None
        assert (s.identified_at, s.identified_s) == (first.outer_iter, first.elapsed_s)
        assert int(row["identified_at"]) == s.identified_at <= s.outer_iters
        assert float(row["identified_s"]) == s.identified_s <= s.wall_time


def test_run_experiment_rerun_identical_up_to_timing(tmp_path):
    plan_a = small_plan(tmp_path / "a", reps=2, ratios=(0.5,))
    plan_b = small_plan(tmp_path / "b", reps=2, ratios=(0.5,))
    sa, sb = run_experiment(plan_a), run_experiment(plan_b)
    assert len(sa) == len(sb)
    for ra, rb in zip(sa, sb):
        ta, tb = read_trace_csv(ra.trace_path), read_trace_csv(rb.trace_path)
        assert [(r.outer_iter, r.objective, r.gap, r.active_blocks,
                 r.active_features) for r in ta] == \
               [(r.outer_iter, r.objective, r.gap, r.active_blocks,
                 r.active_features) for r in tb]


def test_run_experiment_mean_times_are_arithmetic_means(tmp_path):
    plan = small_plan(tmp_path, reps=3, ratios=(0.5,))
    summaries = run_experiment(plan)
    means = mean_time_to_tol(summaries)
    for (solver, ratio), val in means.items():
        manual = np.mean([s.time_to_tol for s in summaries
                          if s.solver == solver and s.lambda_ratio == ratio])
        assert abs(val - manual) <= 1e-9
    table = summary_table(summaries)
    assert "adsgd" in table and "mrbcd" in table


def test_run_experiment_lambda_ratio_one_returns_zero(tmp_path):
    plan = small_plan(tmp_path, reps=1, ratios=(1.0,))
    summaries = run_experiment(plan)
    for s in summaries:
        assert s.converged and s.outer_iters == 0


def test_run_experiment_records_failures_and_continues(tmp_path):
    good = G.SolverConfig(solver="adsgd", gap_tol=1e-4, max_outer=100, seed=1)
    bad = G.SolverConfig(solver="mrbcd", eta=1e9, gap_tol=1e-4, max_outer=50,
                         seed=1)
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), solvers=(bad, good))
    summaries = run_experiment(plan)
    assert len(summaries) == 2
    assert summaries[0].error and not summaries[1].error


def test_run_experiment_plot_emits_svg(tmp_path):
    plan = small_plan(tmp_path, reps=1, ratios=(0.5,), plot=True)
    run_experiment(plan)
    svg = os.path.join(plan.out_dir, "suboptimality_r0.5.svg")
    assert os.path.exists(svg)
    with open(svg, encoding="utf-8") as fh:
        body = fh.read()
    assert "<polyline" in body and "<svg" in body


def test_experiment_plan_validation():
    synth = SyntheticParams(n=10, d=10)
    cfg = (G.SolverConfig(),)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, dataset_path="x", solvers=cfg)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=cfg, lambda_ratios=(1.5,))
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=cfg, repetitions=0)
    with pytest.raises(ValueError):
        G.ExperimentPlan(synthetic=synth, solvers=())


# --------------------------------------------------------------- plan files

def test_parse_plan_file(tmp_path):
    p = tmp_path / "bench.plan"
    p.write_text(
        "# demo plan\n"
        "n = 50\n"
        "d = 60\n"
        "sparsity = 0.4\n"
        "noise = 0.05\n"
        "seed = 3\n"
        "model = lasso\n"
        "lambda_ratios = 0.5,0.25\n"
        "solvers = adsgd, mrbcd\n"
        "repetitions = 2\n"
        "gap_tol = 1e-5\n"
        "max_outer = 80\n"
        "blocks = 6\n"
        "mu_p = 0.01\n"
        "out = bench_out\n"
    )
    plan = parse_plan_file(p)
    assert plan.q == 6 and plan.mu_p == 0.01
    assert plan.synthetic.n == 50 and plan.synthetic.d == 60
    assert plan.lambda_ratios == (0.5, 0.25)
    assert tuple(c.solver for c in plan.solvers) == ("adsgd", "mrbcd")
    assert plan.repetitions == 2
    assert plan.solvers[0].gap_tol == 1e-5
    assert plan.out_dir == "bench_out"


def test_run_experiment_builds_the_plans_problem(tmp_path):
    plan = G.ExperimentPlan(
        synthetic=G.SyntheticParams(n=30, d=24, noise=0.05, seed=4), q=6, mu_p=0.01,
        lambda_ratios=(0.5,), solvers=(G.SolverConfig(solver="adsgd", max_outer=2),
                                       G.SolverConfig(solver="proxsvrg", max_outer=2)),
        out_dir=str(tmp_path))
    rows = G.run_experiment(plan)
    assert [r.error for r in rows] == ["", ""]
    spec = build_spec(generate_synthetic(plan.synthetic), lambda_ratio=0.5, q=6,
                      mu_p=0.01)
    for r, cfg in zip(rows, plan.solvers):
        got = read_trace_csv(r.trace_path)
        want = G.solve(spec, cfg).trace
        assert got[0].active_blocks == 6
        assert [t.objective for t in got] == [t.objective for t in want]
        assert [t.gap for t in got] == [t.gap for t in want]


def test_parse_plan_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.plan"
    p.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_plan_file(p)


def test_parse_plan_file_rejects_unknown_key_with_its_line(tmp_path):
    p = tmp_path / "typo.plan"
    p.write_text("n = 50\nd = 60\ngap_tl = 1e-9\n")
    with pytest.raises(ValueError, match=r"line 3: unknown key 'gap_tl'"):
        parse_plan_file(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-6", "fast"])
@pytest.mark.parametrize("key", ["gap_tol", "eta"])
def test_parse_plan_file_rejects_a_bad_eta_or_gap_tol_with_its_line(tmp_path, key, value):
    p = tmp_path / "bad.plan"
    p.write_text(f"n = 50\nd = 60\n# tolerances\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"line 4: {key} must be positive and finite"):
        parse_plan_file(p)


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
@pytest.mark.parametrize("key", ["batch_size", "inner_m", "max_outer"])
def test_parse_plan_file_rejects_a_count_below_one_with_its_line(tmp_path, key, value):
    """A batch size, epoch length or outer budget below one is refused while
    the file is parsed, not by every solve the plan would run."""
    p = tmp_path / "bad.plan"
    p.write_text(f"n = 50\nd = 60\n# budgets\n{key} = {value}\n")
    with pytest.raises(ValueError, match=rf"^plan line 4: {key} must be a positive "
                                         rf"integer, got '{value}'"):
        parse_plan_file(p)
    p.write_text(f"n = 50\nd = 60\n{key} = 1\n")
    cfg = parse_plan_file(p).solvers[0]
    assert {"batch_size": cfg.batch_size, "inner_m": cfg.m,
            "max_outer": cfg.max_outer}[key] == 1


@pytest.mark.parametrize("text,want", [("True", True), ("YES", True), ("1", True),
                                       ("False", False), ("no", False), ("0", False)])
def test_parse_plan_file_reads_flags_in_any_case(tmp_path, text, want):
    p = tmp_path / "flags.plan"
    p.write_text(f"n = 50\nd = 60\ntheory_mode = {text}\nplot = {text}\n")
    plan = parse_plan_file(p)
    assert plan.solvers[0].theory_mode is want and plan.plot is want


def test_parse_plan_file_rejects_bad_flag_with_its_line(tmp_path):
    p = tmp_path / "flag.plan"
    p.write_text("n = 50\nd = 60\n\nplot = on\n")
    with pytest.raises(ValueError, match=r"line 4: plot must be"):
        parse_plan_file(p)


@pytest.mark.parametrize("line,says", [
    ("n = 5x", "n must be a positive integer, got '5x'"),
    ("repetitions = 2.5", "repetitions must be a positive integer, got '2.5'"),
    ("sparsity = dense", "sparsity must be a number, got 'dense'"),
    ("lambda_ratios = 0.5,,0.25", "lambda_ratios must be comma-separated numbers"),
    ("solvers = adsgd, mrbdc", "solvers must be comma-separated names among adsgd, "
                               "mrbcd, proxsvrg, reference, got 'adsgd, mrbdc'"),
])
def test_parse_plan_file_rejects_a_value_of_the_wrong_type_with_its_line(tmp_path,
                                                                         line, says):
    p = tmp_path / "bad.plan"
    p.write_text(f"# sizes\n{line}\nn = 50\nd = 60\n")
    with pytest.raises(ValueError, match=rf"^plan line 2: {says}"):
        parse_plan_file(p)


@pytest.mark.parametrize("given,missing", [("n = 50", "d"), ("d = 60", "n"), ("", "n")])
def test_parse_plan_file_names_a_missing_synthetic_size(tmp_path, capsys, given, missing):
    p = tmp_path / "sizeless.plan"
    p.write_text(f"{given}\nsolvers = adsgd\nout = {tmp_path / 'runs'}\n")
    with pytest.raises(ValueError, match=f"synthetic data needs key '{missing}'"):
        parse_plan_file(p)
    assert main(["bench", str(p)]) == 3
    assert f"needs key '{missing}'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")
    p.write_text("data = some.libsvm\n")  # a data file needs no sizes
    assert parse_plan_file(p).dataset_path == "some.libsvm"


def test_parse_plan_file_rejects_eta_with_theory_mode_on(tmp_path):
    p = tmp_path / "both.plan"
    p.write_text("n = 50\nd = 60\neta = 0.1\ntheory_mode = yes\n")
    with pytest.raises(ValueError, match=r"line 4: theory_mode and eta \(line 3\) "
                                         r"are mutually exclusive"):
        parse_plan_file(p)
    p.write_text("n = 50\nd = 60\neta = 0.1\ntheory_mode = no\n")
    cfg = parse_plan_file(p).solvers[0]
    assert cfg.eta == 0.1 and cfg.theory_mode is False


def test_parse_plan_file_reads_the_example_plan():
    plan = parse_plan_file(pathlib.Path(__file__).resolve().parents[1]
                           / "demos" / "example_plan.txt")
    assert plan.synthetic.support_size == 10 and plan.synthetic.support_placement == "prefix"
    assert plan.plot is True and plan.repetitions == 3


def test_parse_plan_file_leaves_every_omitted_key_at_its_dataclass_default(tmp_path):
    """A plan of n and d alone parses to the defaults of SolverConfig,
    SyntheticParams and ExperimentPlan, with adsgd as its one solver."""
    p = tmp_path / "bench.plan"
    p.write_text("n = 50\nd = 60\n")
    assert parse_plan_file(p) == G.ExperimentPlan(
        synthetic=G.SyntheticParams(n=50, d=60), solvers=(G.SolverConfig(solver="adsgd"),))


def test_build_spec_rejects_an_unknown_model_or_penalty_by_its_choices():
    """A misspelled model is refused, not fitted as logistic regression, and
    an unknown penalty raises ValueError, not a bare KeyError."""
    ds = generate_synthetic(SyntheticParams(n=20, d=12, seed=1))
    with pytest.raises(ValueError, match=r"^model must be one of lasso, logistic, "
                                         r"got 'Lasso'$"):
        build_spec(ds, model="Lasso")
    with pytest.raises(ValueError, match=r"^reg must be one of l1, group_l2, got 'l2'$"):
        build_spec(ds, reg="l2")
    assert build_spec(ds, model="lasso").loss.name == "squared"


def test_generate_synthetic_names_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer, got -1$"):
        generate_synthetic(SyntheticParams(n=5, d=5, seed=-1))


def test_build_spec_rejects_zero_lambda_max():
    ds = G.Dataset(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        build_spec(ds, model="lasso", lambda_ratio=0.5, q=3)
