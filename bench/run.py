"""The tcores benchmark: seeded streams of CLI requests, closed loop, one
client, every pass in a fresh Python process.

    python3 bench/run.py --workload tables --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run measures set-up, wall time, latency and peak RSS
with no tracing.  Times are scaled to a reference machine speed, read
between requests by ``worker.probe``, so that drift in the machine's speed
cancels out.  With ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9
PASS_TIMEOUT_S = 120
# worker.probe's time on the reference machine (2-core shared VM, Python
# 3.11, in its usual state); times are reported at that speed
REF_PROBE_S = 0.0005

sys.path.insert(0, str(HERE))
from tracer import METRICS, best_metrics  # noqa: E402
from workloads import GENERATORS  # noqa: E402

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def _git_sha() -> str:
    # read .git directly: a checkout without it reports "unknown"
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run the worker once; its JSON result plus its set-up time."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed), *flags]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"worker timed out: {argv}")
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}: {argv}")
    result = json.loads(out.splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - spawned
    result["setup_s"] = result["setup_raw_s"] * REF_PROBE_S / result["setup_probe_s"]
    return result


def _failures(passes: list[dict], recorded: list[str] | None) -> int:
    """Failed requests summed over passes.  A request fails on a non-zero
    exit code or exception, a failed output check (made on the first pass),
    stdout differing from the first pass, or stdout differing from the
    digest recorded for the default seed."""
    first = passes[0]
    failed = 0
    for p in passes:
        for i, (rc, dig) in enumerate(zip(p["codes"], p["digests"])):
            bad = (rc != 0 or first["reasons"][i] is not None
                   or dig != first["digests"][i]
                   or (recorded is not None and dig != recorded[i]))
            failed += bad
    for i, reason in enumerate(first["reasons"]):
        if reason is not None:
            print(f"# request {i} failed: {reason}")
    return failed


def _scaled(p: dict) -> list[float]:
    """A pass's latencies at the reference speed.  Request i sits between
    probes i and i + 1; the median of the four probes around it gives the
    machine's speed at that moment."""
    probes = p["probes"]
    return [lat * REF_PROBE_S / median(probes[max(0, i - 1):i + 3])
            for i, lat in enumerate(p["latencies"])]


def _median_latencies(passes: list[dict]) -> list[float]:
    """Each request's median latency over the passes, at the reference
    speed.  Every pass runs the same stream from a cold start, so request i
    does the same work in each."""
    return [median(column) for column in zip(*(_scaled(p) for p in passes))]


def _percentile_ms(latencies: list[float], q: int) -> float:
    return quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000


def run(args) -> dict:
    if not (ROOT / "src" / "tcores" / "cli.py").is_file():
        raise RunFailed(f"no tcores sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    setups = [_spawn(args.workload, args.seed, "--setup-only")
              for _ in range(SETUP_PROBES)]

    def time_left(done: list[dict]) -> bool:
        spent = time.monotonic() - started
        return spent + median(p["wall_s"] for p in done) < args.seconds

    # the first pass checks every output; later passes must match its digests
    passes = [_spawn(args.workload, args.seed, "--check")]
    traced = []
    if args.trace:
        # alternate traced and untraced passes so that drift in machine speed
        # falls on both sides of the overhead ratio
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        while not traced or time_left(passes + traced):
            traced.append(_spawn(args.workload, args.seed, "--trace", str(spans)))
            if time_left(passes + traced):
                passes.append(_spawn(args.workload, args.seed))
    else:
        while len(passes) < 2 or time_left(passes):
            passes.append(_spawn(args.workload, args.seed))

    every = passes + traced
    setups += every
    recorded = None
    if args.seed == DEFAULT_SEED and DIGESTS.is_file() and not args.record_digests:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
        if recorded is not None and len(recorded) != len(passes[0]["digests"]):
            raise RunFailed(f"{DIGESTS.name} does not match the {args.workload} stream")
    attempted = sum(len(p["codes"]) for p in every)
    failed = _failures(every, recorded)
    latencies = _median_latencies(passes)
    end_to_end = {
        "setup_s": median(p["setup_s"] for p in setups),
        "wall_s": sum(latencies),
        "latency_p50_ms": _percentile_ms(latencies, 50),
        "latency_p90_ms": _percentile_ms(latencies, 90),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }
    if args.trace:
        layers = best_metrics([p["layers"] for p in traced])
        layers["trace.overhead_ratio"] = sum(_median_latencies(traced)) / sum(latencies)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    if args.record_digests:
        if args.seed != DEFAULT_SEED or failed:
            raise RunFailed("digests are recorded only from a clean default-seed run")
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = passes[0]["digests"]
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    summary = {
        "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced),
        "requests_per_pass": len(passes[0]["codes"]),
        "pass_walls_s": [round(p["wall_s"], 4) for p in every],
        "pass_probes_s": [round(median(p["probes"]), 6) for p in every],
        "unscaled_setup_s": median(p["setup_raw_s"] for p in setups),
        "unscaled_wall_s": median(p["wall_s"] for p in passes),
        "latency_samples": sum(len(p["latencies"]) for p in passes),
        "setup_samples": len(setups),
        "failed_ratio": failed / attempted,
    }
    for name, value in summary.items():
        print(f"# {name}: {value}")
    for name, value in end_to_end.items():
        print(f"# {name}: {value:.6g} {END_TO_END[name]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"summary": summary, "end_to_end": end_to_end, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=GENERATORS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's stdout digests (seed {DEFAULT_SEED} only)")
    args = parser.parse_args()
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
