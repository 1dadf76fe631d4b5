"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The independent references agree with the library where both apply.
2. Every workload, at a tiny size, runs with failed_ratio 0.
3. One changed character in one output of every command is caught by the
   output checks, and so raises failed_ratio above 0.

Exits 1 if any of these does not hold.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tcores import cli, counting, hookstats  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def tamper(text: str) -> str:
    """Change one character in column 1 of the first data row: its first
    digit goes up by one, or a passed flag turns false."""
    lines = text.splitlines(keepends=True)
    fields = lines[1].split(",")
    if fields[1] == "true":
        fields[1] = "false"
    else:
        i = next(i for i, ch in enumerate(fields[1]) if ch.isdigit())
        fields[1] = fields[1][:i] + str((int(fields[1][i]) + 1) % 10) + fields[1][i + 1:]
    lines[1] = ",".join(fields)
    return "".join(lines)


def failed_ratio(requests, codes, outputs) -> float:
    one_pass = {"codes": codes, "digests": [worker.digest(t) for t in outputs],
                "reasons": worker.assess(requests, codes, outputs)}
    return run._failures([one_pass], None) / len(requests)


def main() -> int:
    problems = []
    pent = checks.partition_counts(400)
    if tuple(pent[:401]) != counting.partition_count_table(400).values:
        problems.append("pentagonal p(n) differs from the library table")
    for t, n in ((3, 20), (5, 30), (4, 25)):
        if tuple(checks.hook_residue_law(t, n)) != hookstats.exact_residue_distribution(t, n):
            problems.append(f"closed-form hook law differs from enumeration at {(t, n)}")

    for workload in workloads.GENERATORS:
        requests = workloads.generate(workload, run.DEFAULT_SEED, tiny=True)
        _, _, _, codes, outputs = worker.execute(cli, requests)
        ratio = failed_ratio(requests, codes, outputs)
        print(f"{workload}: {len(requests)} tiny requests, failed_ratio {ratio}")
        if ratio != 0:
            problems.append(f"{workload} fails at tiny size")
        seen = set()
        for i, argv in enumerate(requests):
            kind = (argv[0], "--view" in argv, "--mode" in argv and "sample" in argv)
            if kind in seen:
                continue
            seen.add(kind)
            bad = outputs[:i] + [tamper(outputs[i])] + outputs[i + 1:]
            ratio = failed_ratio(requests, codes, bad)
            print(f"  tampered `{' '.join(argv)}`: failed_ratio {ratio:.3f}, "
                  f"check says: {checks.check(argv, bad[i])}")
            if ratio == 0:
                problems.append(f"a tampered {argv} output passed its check")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
