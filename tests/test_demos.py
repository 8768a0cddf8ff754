"""Every demo runs to the end on numpy alone: each script in a fresh
interpreter under -W error, with SciPy blocked as in test_cli.TestColdStart."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# any import of scipy now raises ImportError; then the demo runs as a script
RUN = """
import runpy, sys
sys.modules["scipy"] = None
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", RUN, str(demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
