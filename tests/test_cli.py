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
                      "radius,working_blocks,restart,refined_dual")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_command_on_a_sparse_design_runs_to_its_cap(seed, capsys):
    """Sampled blocks that hold no entry of the batch once crashed the step.
    The defaults stop at max_outer without a certificate here, so the solve
    prints its result and exits with the solve-failure code."""
    assert main(["solve", "--synthetic", "200,300,0.02,0.01", "--seed", str(seed)]) == 4
    out = capsys.readouterr().out
    assert "converged=False" in out and "outer_iters=200" in out


def test_solve_command_reference_solver(capsys):
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--solver",
                 "reference", "--gap-tol", "1e-8", "--seed", "1"])
    assert code == 0
    assert "converged=True" in capsys.readouterr().out


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        assert f"FAILED adsgd ratio=0.5 rep={rep}: objective became non-finite" in out
    with open(tmp_path / "runs" / "summary.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all("non-finite" in r["error"] for r in rows)


@pytest.mark.parametrize("line,says", [("gap_tl = 1e-9", "unknown key 'gap_tl'"),
                                       ("theory_mode = maybe", "theory_mode must be"),
                                       ("gap_tol = nan", "gap_tol must be positive"),
                                       ("eta = inf", "eta must be positive"),
                                       ("mu_p = -1", "mu_p must be nonnegative"),
                                       ("mu_p = nan", "mu_p must be nonnegative"),
                                       ("n = 5x", "n must be an integer"),
                                       ("sparsity = 5x", "sparsity must be a number"),
                                       ("solvers = adsgd, mrbdc", "solvers must be"),
                                       pytest.param("theory_mode = 1\neta = 0.01",
                                                    "theory_mode and eta (line 4) are",
                                                    id="theory_mode-with-eta")])
def test_bench_command_exits_3_on_a_bad_plan_line(tmp_path, capsys, line, says):
    plan = tmp_path / "p.plan"
    plan.write_text(f"n = 40\nd = 30\n{line}\nout = {tmp_path / 'runs'}\n")
    assert main(["bench", str(plan)]) == 3
    assert f"plan line 3: {says}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


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
    assert "non-finite" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_solve_exits_4(capsys):
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--eta", "1e9",
                 "--max-outer", "30", "--seed", "0"])
    assert code == 4


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--model", "ridge"])
    assert exc.value.code == 2


def test_out_dir_env_override(tmp_path, capsys, monkeypatch):
    """Both a certified solve and one that stops at max_outer without a
    certificate (exit 4) write their trace into the redirected directory."""
    monkeypatch.setenv("GAPSGD_OUT_DIR", str(tmp_path / "redirected"))
    code = main(["solve", "--synthetic", "40,30,0.5,0.05", "--gap-tol", "1e-3",
                 "--max-outer", "80", "--seed", "4", "--out", "t.csv"])
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
