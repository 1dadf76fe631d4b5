"""The benchmark's own checks as tests: its self-test, one traced seed-0
pass of the verify workload, whose `orbit`, `verify` and exact `hooks`
stdout must match the digests recorded in bench/digests.json, and an
in-process seed-0 replay of the other workloads against their digests."""
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tcores import cli

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


def _workloads() -> types.ModuleType:
    # executed from its source, so that nothing is written under bench/
    path = ROOT / "bench" / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["tables", "sweep", "sampler"])
def test_seed0_stdout_matches_recorded_digests(workload):
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())[workload]
    digests = []
    for argv in _workloads().generate(workload, 0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0, argv
        digests.append(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
    assert digests == recorded
