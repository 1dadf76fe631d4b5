"""The benchmark's own checks as tests: its self-test, and one traced seed-0
pass of the verify workload, whose `orbit`, `verify` and exact `hooks`
stdout must match the digests recorded in bench/digests.json."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
pytestmark = pytest.mark.skipif(not (ROOT / "bench").is_dir(), reason="no bench/")


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_bench_selftest_passes():
    proc = _run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_verify_workload_matches_recorded_digests():
    proc = _run("bench/run.py", "--workload", "verify", "--seed", "0",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
