"""The benchmark's self-test, run against this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    """The bench wraps census stages and counts residual calls through
    names in ccfour; its self-test fails when one of them goes missing."""
    selftest = ROOT / "bench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
