"""tests/paired_timing.py runs whole, in a subprocess, as it runs from the
command line: this checkout against itself, an A/A run, on one small row."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_an_aa_run_of_one_row_certifies_every_solve_and_prints_its_ratios():
    # at the benchmark's own lam, so each side runs one reference solve
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "paired_timing.py"), str(ROOT),
                          str(ROOT), "--workload", "lasso-tall", "--solver", "adsgd",
                          "--pairs", "3"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 4, out
    assert lines[0] == "workload=lasso-tall solver=adsgd lambda_ratio=0.5 pairs=3"
    for side, line in zip("AB", lines[1:3]):
        fields = dict(field.split("=", 1) for field in line.split())
        assert fields["side"] == side and fields["path"] == str(ROOT)
        assert float(fields["median_s"]) > 0 and int(fields["outer_total"]) >= 3
        assert fields["certified"] == "3/3"
    assert re.fullmatch(r"ratio_b_over_a=\d+\.\d{4} q1=\d+\.\d{4} q3=\d+\.\d{4} b_lower=[0-3]/3",
                        lines[3]), lines[3]
