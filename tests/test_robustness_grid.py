"""The floor of tests/robustness_grid.py: no (loss, penalty, step) cell of its
576 adsgd solves certifies fewer of them than FLOOR records, and every solve
that certifies ends at a gap of at most the grid's gap_tol, 1e-6.

The script runs whole, in a subprocess, as it runs from the command line;
it takes about 16 s on one core of a 2-core x86-64 host, most of it in the
solves. A change that certifies more solves may raise a cell's floor; one
that certifies fewer fails here, naming the cells.
"""

import collections
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# certified solves of each cell's 72 (12 data seeds, 3 lams, 2 batches):
# 415 of 576 in all, 30 diverged, all at a step of 1/L_spec
FLOOR = {
    ("lasso", "l1", "1/4L"): 72, ("lasso", "l1", "1/1L"): 70,
    ("lasso", "group_l2", "1/4L"): 64, ("lasso", "group_l2", "1/1L"): 41,
    ("logistic", "l1", "1/4L"): 70, ("logistic", "l1", "1/1L"): 52,
    ("logistic", "group_l2", "1/4L"): 22, ("logistic", "group_l2", "1/1L"): 24,
}


def test_no_cell_of_the_robustness_grid_certifies_fewer_solves_than_its_floor():
    """Only certified=1 is held to the gap: a solve stopped at max_outer may
    also end at or below 1e-6, where its last row was not identified."""
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "robustness_grid.py")],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(lines) == 576
    certified = collections.Counter()
    for line in lines:
        loss, reg, *rest = line.split()
        fields = dict(field.split("=", 1) for field in rest)
        assert fields["stop"] in ("converged", "max_outer", "diverged"), line
        certified[loss, reg, fields["eta"]] += int(fields["certified"])
        if fields["certified"] == "1":
            assert float(fields["gap"]) <= 1e-6, line
    assert set(certified) == set(FLOOR)
    short = {cell: (certified[cell], floor) for cell, floor in FLOOR.items()
             if certified[cell] < floor}
    assert not short, f"(certified, floor) of each cell below its floor: {short}"
