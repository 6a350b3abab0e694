import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_extensions_runs_and_agrees_with_oracle():
    # tiny sizes: two ladder rows under ORACLE_CAP, one row over DEFAULT_CAP,
    # the two pieces rows and a small large-document row
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_extensions.py"),
         "--sizes", "6,8,66", "--frameworks", "2", "--repeats", "1", "--density", "0.05",
         "--pieces", "3", "--large", "300"],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    assert [(r[0], int(r[1])) for r in rows[:3]] == [
        ("connected", 6), ("connected", 8), ("connected", 66)]
    assert [r[0] for r in rows[3:]] == ["pieces", "interleaved", "large"]
    assert rows[3][1] == rows[4][1] and 9 <= int(rows[3][1]) <= 12
    assert rows[3][5:7] == rows[4][5:7]     # the same families, laid out twice
    assert int(rows[5][1]) == 300
    for r in rows:
        assert r[-1] == ("yes" if int(r[1]) <= 20 else "-"), r
