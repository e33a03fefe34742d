import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """The benchmark's own checks run against this checkout, so an API change it reads fails here."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _bench_pass(workload: str) -> dict:
    """One pass of a benchmark workload, which checks its own outputs; no trace file is written."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "bench" / "work.py"), workload,
         "--seed", "1", "--t0", str(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["attempted"] > 0 and record["failed"] == 0, record["reasons"]
    return record


@pytest.mark.parametrize("workload", ["census", "reproduce", "sites"])
def test_benchmark_pass_checks_out(workload):
    _bench_pass(workload)


@pytest.mark.slow
def test_traced_benchmark_pass_checks_out():
    # every workload and every probe, with the per-layer figures
    assert _bench_pass("traced")["metrics"]
