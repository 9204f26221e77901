"""The benchmark's smoke run: every workload at a tiny size, traced and
untraced, with all of its output checks. It fails when a name the benchmark
wraps in faultloom is renamed or removed. No timing is asserted."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr[-2000:]
    for workload in ("cold-record", "fresh-replay", "slow-provider"):
        assert f"{workload}: ok," in result.stdout, result.stdout
