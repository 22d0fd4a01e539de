import csv
import os
import pathlib
import subprocess
import sys

import pytest

from gapsgd.cli import main


def write_hand_file(tmp_path):
    p = tmp_path / "hand.txt"
    p.write_text("1 1:1 2:2\n-1 1:3 2:4\n")
    return str(p)


def test_lambda_max_command_prints_hand_value(tmp_path, capsys):
    path = write_hand_file(tmp_path)
    assert main(["lambda-max", "--data", path, "--model", "lasso",
                 "--blocks", "2"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_solve_command_writes_trace(tmp_path, capsys):
    from gapsgd.harness import SyntheticParams, build_spec, generate_synthetic
    from conftest import tuned_eta

    data = generate_synthetic(SyntheticParams(n=60, d=50, sparsity=0.5,
                                              noise=0.05, seed=3))
    eta = tuned_eta(build_spec(data, model="lasso", lambda_ratio=0.5, q=10))
    out = str(tmp_path / "trace.csv")
    code = main(["solve", "--synthetic", "60,50,0.5,0.05", "--model", "lasso",
                 "--solver", "adsgd", "--lambda-ratio", "0.5", "--seed", "3",
                 "--eta", repr(eta), "--gap-tol", "1e-4", "--max-outer", "150",
                 "--out", out])
    assert code == 0
    text = capsys.readouterr().out
    assert "converged=True" in text
    assert os.path.exists(out)
    with open(out, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == ("outer_iter,elapsed_s,objective,gap,active_blocks,active_features,"
                      "radius,working_blocks,restart,refined_dual,identified")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_command_on_a_sparse_design_certifies_with_the_defaults(seed, capsys):
    """Sampled blocks that hold no entry of the batch once crashed the step.
    With the default step, x_hat stays far from gap_tol, but its model is
    refined on the row that first holds it, and the screen sized by the
    refined point's objective brings the safe set down to it, so the refined
    point certifies itself at outer iteration 3, 3 or 2 and the solve exits
    0."""
    iters = {0: 3, 1: 3, 2: 2}[seed]
    assert main(["solve", "--synthetic", "200,300,0.02,0.01", "--seed", str(seed)]) == 0
    assert f"converged=True outer_iters={iters} " in capsys.readouterr().out


def test_solve_command_prints_when_the_model_was_identified(capsys):
    """The result line gives the outer iteration of the first identified trace
    row and its elapsed seconds, or None for both where no row is: a solve
    cut off before identification, or a solver that never screens. Its last
    field, setup_s, is the seconds spent making the data and the spec."""
    args = ["solve", "--synthetic", "40,30,0.5,0.05", "--gap-tol", "1e-3", "--seed", "4"]
    assert main(args) == 0
    result = capsys.readouterr().out.splitlines()[1].split()
    fields = dict(f.split("=") for f in result)
    assert fields["outer_iters"] == fields["identified_at"] == "2"
    assert 0.0 <= float(fields["identified_s"]) <= float(fields["wall_time"].rstrip("s"))
    assert result[-1].startswith("setup_s=") and float(fields["setup_s"]) >= 0.0
    for more in (["--max-outer", "1"], ["--solver", "mrbcd", "--max-outer", "2"]):
        assert main(args + more) == 4
        out = capsys.readouterr().out
        assert "identified_at=None " in out and "identified_s=None " in out


@pytest.mark.parametrize("model,noise", [("logistic", "nan"), ("logistic", "inf"),
                                         ("logistic", "1.5"), ("lasso", "nan"),
                                         ("lasso", "inf")])
def test_bad_synthetic_noise_exits_3(model, noise, capsys):
    """noise is a flip probability for logistic data and a standard deviation
    for regression: a value outside [0, 1] or [0, inf) is rejected before any
    solve, and the message names it."""
    assert main(["solve", "--model", model, "--synthetic", f"40,30,0.5,{noise}",
                 "--max-outer", "5"]) == 3
    assert "noise" in capsys.readouterr().err


def test_bench_plan_with_a_bad_noise_exits_3(tmp_path, capsys):
    """A plan's noise reaches the same check, before any cell runs."""
    plan = tmp_path / "p.plan"
    plan.write_text(f"n = 40\nd = 30\nmodel = logistic\nnoise = 1.5\n"
                    f"out = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 3
    assert "noise" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_solve_command_reference_solver(capsys):
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--solver",
                 "reference", "--gap-tol", "1e-8", "--seed", "1"])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out


def test_solve_command_refuses_a_removed_solver(capsys):
    """asgd, the screening solver without variance reduction, is gone: argparse
    refuses the name with its usage code, before any solve."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--synthetic", "40,30,0.5,0.05", "--solver", "asgd"])
    assert exc.value.code == 2
    assert "argument --solver: invalid choice: 'asgd'" in capsys.readouterr().err


def test_oracle_command_prints_support(capsys):
    code = main(["oracle", "--synthetic", "50,40,0.5,0.05", "--seed", "2",
                 "--lambda-ratio", "0.4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "support_size=" in out and "support=" in out


def test_bench_command_runs_plan(tmp_path, capsys):
    plan = tmp_path / "p.plan"
    plan.write_text(
        "n = 40\nd = 30\nnoise = 0.05\nseed = 5\n"
        "solvers = adsgd\nlambda_ratios = 0.5\nrepetitions = 1\n"
        "gap_tol = 1e-4\nmax_outer = 120\n"
        f"out = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "adsgd" in out
    assert os.path.exists(tmp_path / "runs" / "summary.csv")


def test_bench_and_oracle_write_their_outputs_for_a_data_file(tmp_path, capsys):
    """A plan that names a LIBSVM file loads it, and bench --out puts one
    trace CSV per cell, summary.csv and the chart in the given directory;
    oracle --out writes a trace that read_trace_csv reads back, ending on the
    printed objective."""
    from gapsgd.harness import SyntheticParams, generate_synthetic, read_trace_csv

    data = generate_synthetic(SyntheticParams(n=60, d=20, sparsity=0.5, seed=4,
                                              model="logistic"))
    svm = tmp_path / "small.svm"
    rows = [data.A[i] for i in range(data.n)]
    svm.write_text("".join(
        f"{label:g} " + " ".join(f"{j + 1}:{v!r}" for j, v in
                                 zip(r.indices.tolist(), r.data.tolist())) + "\n"
        for r, label in zip(rows, data.y.tolist())))
    plan = tmp_path / "p.plan"
    plan.write_text(f"data = {svm}\nmodel = logistic\nblocks = 5\n"
                    "solvers = adsgd, reference\nlambda_ratios = 0.5\nplot = 1\n"
                    f"out = {tmp_path / 'unused'}\n")
    out = tmp_path / "runs"
    assert main(["bench", str(plan), "--out", str(out)]) == 0
    assert f"outputs in {out}" in capsys.readouterr().out
    assert sorted(os.listdir(out)) == ["adsgd_r0.5_rep0.csv", "reference_r0.5_rep0.csv",
                                       "suboptimality_r0.5.svg", "summary.csv"]
    assert not os.path.exists(tmp_path / "unused")
    with open(out / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["solver"], r["converged"]) for r in rows] == [("adsgd", "1"),
                                                             ("reference", "1")]
    trace_path = tmp_path / "oracle.csv"
    assert main(["oracle", "--data", str(svm), "--model", "logistic", "--blocks", "5",
                 "--out", str(trace_path)]) == 0
    printed = capsys.readouterr().out
    trace = read_trace_csv(trace_path)
    assert trace and trace[-1].gap <= 1e-10
    assert f"objective={trace[-1].objective:.12g} " in printed


def test_bench_command_exits_4_when_a_cell_raises(tmp_path, capsys):
    """Every cell of a plan whose step size diverges still runs, prints its
    failure and enters summary.csv; then the command exits with the
    solve-failure code."""
    plan = tmp_path / "p.plan"
    plan.write_text(
        "n = 40\nd = 30\nnoise = 0.05\nseed = 5\n"
        "solvers = adsgd\nlambda_ratios = 0.5\nrepetitions = 2\n"
        "eta = 1000\nmax_outer = 20\n"
        f"out = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 4
    out = capsys.readouterr().out
    for rep in (0, 1):
        assert f"FAILED adsgd ratio=0.5 rep={rep}: objective ran away to " in out
    with open(tmp_path / "runs" / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all("times P(0), at outer iteration 1" in r["error"]
                                  for r in rows)


@pytest.mark.parametrize("line,says", [("gap_tl = 1e-9", "unknown key 'gap_tl'"),
                                       ("plot = maybe", "plot must be"),
                                       ("gap_tol = nan", "gap_tol must be positive"),
                                       ("eta = inf", "eta must be positive"),
                                       ("mu_p = -1", "mu_p must be nonnegative"),
                                       ("mu_p = nan", "mu_p must be nonnegative"),
                                       ("n = 5x", "n must be a positive integer"),
                                       ("d = 0", "d must be a positive integer"),
                                       ("repetitions = 0",
                                        "repetitions must be a positive integer"),
                                       ("support_size = -2",
                                        "support_size must be a positive integer"),
                                       ("blocks = 2.5", "blocks must be a positive integer"),
                                       ("seed = -1", "seed must be a nonnegative integer"),
                                       ("model = Lasso",
                                        "model must be lasso or logistic, got 'Lasso'"),
                                       ("batch_size = 0",
                                        "batch_size must be a positive integer"),
                                       ("sparsity = 5x", "sparsity must be a number"),
                                       ("sparsity = 2",
                                        "sparsity must lie in (0, 1], got 2.0"),
                                       ("sparsity = nan", "sparsity must lie in (0, 1]"),
                                       ("noise = -0.1",
                                        "noise must be nonnegative and finite"),
                                       ("noise = inf", "noise must be nonnegative"),
                                       pytest.param("noise = 1.5\nmodel = logistic",
                                                    "noise is a label flip probability "
                                                    "for a logistic model, at most 1, "
                                                    "got 1.5", id="logistic-noise"),
                                       ("feature_scale = inf",
                                        "feature_scale must be positive and finite, "
                                        "got 'inf'"),
                                       ("feature_scale = 0",
                                        "feature_scale must be positive and finite"),
                                       ("support_placement = middle",
                                        "support_placement must be prefix or random, "
                                        "got 'middle'"),
                                       ("lambda_ratios = 0.5, 2",
                                        "lambda_ratios must be comma-separated numbers "
                                        "in (0, 1], got '0.5, 2'"),
                                       ("lambda_ratios = 0.5, nan",
                                        "lambda_ratios must be comma-separated numbers "
                                        "in (0, 1], got '0.5, nan'"),
                                       ("solvers = adsgd, mrbdc", "solvers must be"),
                                       ("solvers = adsgd, asgd",
                                        "solvers must be comma-separated names among "
                                        "adsgd, mrbcd, proxsvrg, reference, "
                                        "got 'adsgd, asgd'"),
                                       pytest.param("theory_mode = 1\neta = 0.01",
                                                    "unknown key 'theory_mode'",
                                                    id="theory_mode-with-eta")])
def test_bench_command_exits_3_on_a_bad_plan_line(tmp_path, capsys, line, says):
    plan = tmp_path / "p.plan"
    plan.write_text(f"n = 40\nd = 30\n{line}\nout = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 3
    assert f"plan line 3: {says}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_bench_plan_with_a_misspelled_model_exits_3(tmp_path, capsys):
    """A data file's plan with model = Lasso is refused with its line, where it
    used to fit logistic regression and exit 0."""
    data = tmp_path / "file.svm"
    data.write_text("1 1:1 2:0.5\n0 1:0.2 2:1\n1 1:1\n")
    plan = tmp_path / "p.plan"
    plan.write_text(f"data = {data}\nmodel = Lasso\nout = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 3
    assert ("plan line 2: model must be lasso or logistic, got 'Lasso'"
            in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "runs")


@pytest.mark.parametrize("source", ["synthetic", "data"])
def test_a_negative_seed_exits_3_naming_it(tmp_path, capsys, source):
    """The synthetic generator and the solver each refuse a negative seed by
    name, before numpy's Philox does with no name."""
    data = tmp_path / "file.svm"
    data.write_text("1 1:1 2:0.5\n-1 1:0.2 2:1\n0.5 1:1\n")
    args = (["--synthetic", "40,30,0.5,0.05"] if source == "synthetic"
            else ["--data", str(data)])
    assert main(["solve", *args, "--seed", "-1"]) == 3
    assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err


def test_missing_data_file_exits_3(capsys):
    assert main(["lambda-max", "--data", "/nonexistent/file.txt"]) == 3


def test_malformed_data_file_exits_3(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 3:1 2:1\n")
    assert main(["solve", "--data", str(p)]) == 3


@pytest.mark.parametrize("line", ["1 1:nan 2:1\n", "1 1:1 2:inf\n", "nan 1:1 2:1\n",
                                  "-inf 1:1 2:1\n"])
def test_non_finite_data_file_exits_3(tmp_path, capsys, line):
    p = tmp_path / "bad.txt"
    p.write_text("1 1:1 2:2\n" + line + "-1 1:3 2:4\n")
    assert main(["solve", "--data", str(p)]) == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "line 2:" in err


@pytest.mark.parametrize("content,says", [
    (b"1 1:1\n1 99999999999999999999:1\n",
     "line 2: index 99999999999999999999 exceeds 2**63 - 1"),
    (b"1 1:1\n-1 2:1 9223372036854775808:1\n",
     "line 2: index 9223372036854775808 exceeds 2**63 - 1"),
    (b"1 1:1\n0 2:\xff1\n", "line 2: byte 0xff is not UTF-8"),
    (b"1 1:1\n\n\xe9t\xe9 1:1\n", "line 3: byte 0xe9 is not UTF-8"),
], ids=["index-1e20", "index-2**63", "byte-0xff", "byte-0xe9"])
def test_an_index_past_int64_or_bytes_not_utf8_exit_3_naming_the_line(tmp_path, capsys,
                                                                      content, says):
    """An index of 2**63 or more used to escape as OverflowError with a
    traceback (exit 1), and a byte that is not UTF-8 gave only the codec's
    byte offset; both now name the line."""
    p = tmp_path / "bad.txt"
    p.write_bytes(content)
    assert main(["lambda-max", "--data", str(p)]) == 3
    assert capsys.readouterr().err == f"error: {says}\n"


def test_bad_synthetic_argument_exits_3(capsys):
    assert main(["lambda-max", "--synthetic", "10,20"]) == 3


@pytest.mark.parametrize("args", [["solve", "--eta", "nan"], ["solve", "--eta", "inf"],
                                  ["solve", "--lambda-ratio", "nan"],
                                  ["solve", "--mu-p", "nan"],
                                  ["solve", "--gap-tol", "nan"],
                                  ["solve", "--gap-tol", "inf"],
                                  ["oracle", "--gap-tol", "nan"]])
def test_non_finite_option_exits_3(args, capsys):
    assert main(args + ["--synthetic", "40,60,0.3,0.01"]) == 3
    assert "finite" in capsys.readouterr().err


def test_diverging_solve_exits_4(capsys):
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--eta", "1e9",
                 "--max-outer", "30", "--seed", "0"])
    assert code == 4


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "ridge"])
    assert exc.value.code == 2


def test_solve_command_refuses_the_removed_theory_mode_flag(capsys):
    """The theory preset is gone: argparse refuses its flag with its usage
    code, before any solve."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--synthetic", "40,30,0.5,0.05", "--theory-mode"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --theory-mode" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    """Both a certified solve and one that stops at max_outer without a
    certificate (exit 4) write their trace into the redirected directory. The
    adsgd solve ends at its cap of 1 outer iteration, short of the 2 after
    which the refined point of its identified model certifies itself."""
    monkeypatch.setenv("GAPSGD_OUT_DIR", str(tmp_path / "redirected"))
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--gap-tol", "1e-3",
                 "--max-outer", "1", "--seed", "4", "--out", "t.csv"])
    assert code == 4
    assert os.path.exists(tmp_path / "redirected" / "t.csv")
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--solver", "reference",
                 "--gap-tol", "1e-3", "--seed", "4", "--out", "r.csv"])
    assert code == 0
    assert os.path.exists(tmp_path / "redirected" / "r.csv")


def test_python_dash_m_runs_the_command_line():
    """python -m gapsgd runs the same front end as the console script."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run([sys.executable, "-m", "gapsgd", "lambda-max", "--synthetic",
                           "50,40,0.5,0.05"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0
