import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    """Each demo runs to exit 0 from a copy, since it writes next to itself."""
    for f in (ROOT / "demos").iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(tmp_path / demo.name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
