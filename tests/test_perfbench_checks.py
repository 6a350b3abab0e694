"""The benchmark's checker self-tests, run as part of the test suite."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_checker_self_tests():
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "test_checks.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
