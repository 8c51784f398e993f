"""The fast demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import noisysearch

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    ["bayes_update_walkthrough.py", "strategy_geometry.py", "rate_reliability_frontier.py"],
)
def test_demo_runs(script):
    # the demo imports the same package the tests do
    src = str(Path(noisysearch.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
