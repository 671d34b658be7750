"""Each demo's stdout against its golden file in tests/golden/.

The demos are deterministic (fixed seeds, exact arithmetic), so any change
in a number they print fails here.  After an intended change of output,
regenerate a golden file with

    PYTHONPATH=src python3 demos/<name>.py > tests/golden/<name>.stdout
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.stdout").read_text()
