"""Every benchmark solve of tests/solve_hashes.py, pinned bit for bit.

tests/solve_hashes.txt holds the script's output. A change that keeps every
iterate of every solver prints the same 166 lines; one that moves a bit
anywhere in a solve moves its x or gaps hash. After a change that moves bits
on purpose, name the moved lines in CHANGES.md and regenerate the file from
the root of the checkout:

    python tests/solve_hashes.py > tests/solve_hashes.txt

The bytes depend on the CPU and the BLAS build, as the goldens' do, so a
machine with another summation order may need its own file.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_benchmark_solve_keeps_its_bits():
    # a subprocess, since benchmarks/run.py sets the BLAS thread variables
    # before numpy loads
    out = subprocess.run([sys.executable, str(ROOT / "tests" / "solve_hashes.py")],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    want = (ROOT / "tests" / "solve_hashes.txt").read_text().splitlines()
    got = out.splitlines()
    moved = [f"- {w}\n+ {g}" for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not moved, (
        f"{len(want)} lines pinned, {len(got)} printed; moved:\n" + "\n".join(moved))
