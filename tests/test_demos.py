"""Every demo script runs to completion without writing to stderr."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(n for n in os.listdir(os.path.join(ROOT, "demos")) if n.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout
