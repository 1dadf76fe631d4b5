"""One pass of a workload in a fresh process: generate the request stream,
run it through ``tcores.cli.run`` with stdout captured, and print one JSON
object describing the pass.

    python3 bench/worker.py --workload tables --seed 0 [--check] [--trace PATH]
    python3 bench/worker.py --workload tables --seed 0 --setup-only

The library's caches persist from request to request, as in one notebook
session, and start cold because the process is new.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SETUP_SPEED_PROBES = 5


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current
    speed for interpreter-bound work, read between requests."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return time.perf_counter() - t0


def execute(cli, requests: list[list[str]], tracer=None):
    """Run every request; returns (wall seconds, per-request latencies,
    speed probes, exit codes, stdout texts).  Probe i is read just before
    request i and the last one after the last request; probes are not part
    of any latency.  An exception counts as exit code None."""
    latencies, probes, codes, outputs = [], [], [], []
    start = time.perf_counter()
    for i, argv in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        probes.append(probe())
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = cli.run(argv)
        except Exception:  # a crash is a failed request, not a crashed run
            print(f"request {i} {argv} raised:", file=sys.stderr)
            traceback.print_exc()
            rc = None
        latencies.append(time.perf_counter() - t0)
        codes.append(rc)
        outputs.append(buf.getvalue())
    probes.append(probe())
    return time.perf_counter() - start, latencies, probes, codes, outputs


def assess(requests, codes, outputs) -> list[str | None]:
    """For each request, None if it succeeded with correct stdout, else why
    it failed."""
    import checks

    reasons = []
    for argv, rc, text in zip(requests, codes, outputs):
        if rc != 0:
            reasons.append(f"exit code {rc}")
        else:
            reasons.append(checks.check(argv, text))
    return reasons


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true",
                        help="check every output, not only its digest")
    parser.add_argument("--trace", default=None,
                        help="trace the pass and write its spans to this path")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from tcores import cli
    import workloads

    requests = workloads.generate(args.workload, args.seed)
    ready = time.monotonic()
    setup_probe = median(probe() for _ in range(SETUP_SPEED_PROBES))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wall, latencies, probes, codes, outputs = execute(cli, requests, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "ready": ready,
        "wall_s": wall,
        "latencies": latencies,
        "probes": probes,
        "setup_probe_s": setup_probe,
        "peak_rss_mb": peak_rss_mb,
        "digests": [digest(text) for text in outputs],
        "codes": codes,
        "reasons": assess(requests, codes, outputs) if args.check else None,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(sum(len(t.encode("utf-8")) for t in outputs))
        tracer.write(args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
