"""Seeded request streams for the tcores benchmark.

Each workload turns (seed, tiny) into a list of argv lists for
``tcores.cli.run``.  The seed only jitters sizes inside fixed strata and
reorders requests, so the cost of a stream barely depends on the seed while
its exact inputs do.  ``tiny`` gives a few small requests of every kind for
the self-test.

The library is not imported here: requests are built from the seed alone.
"""
from __future__ import annotations

import random

SUITES = ("partitions", "abacus", "corequotient", "counting", "distribution",
          "hookstats", "sampling")

# n of the verify workload's exact hook laws.  For t from 3 to 7 their cost
# depends on n alone (about 3.5, 4.3 and 17.5 ms at 12, 14 and 22), so with
# the orbit and suite requests the stream's cost order is fixed: of its 140
# requests, the 53 near 4.4 ms (n = 14, orbit t = 3) hold p50 and the 8 at
# n = 22 hold p90, away from the steps between cost levels.
HOOK_SIZES = (12,) * 44 + (14,) * 29 + (22,) * 8


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding is stable across processes and PYTHONHASHSEED values
    return random.Random(f"tcores-bench:{workload}:{seed}")


def tables(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Large-n table requests; no n repeats, so every table build misses."""
    count, lo, step = (6, 20, 5) if tiny else (105, 200, 4)
    kinds = ("counts", "pmf", "moments")
    ts = (2, 3, 5, 7, 11)
    requests = []
    for i in range(count):
        kind, t = kinds[i % 3], ts[(i // 3) % 5]
        n = lo + i * step + rng.randrange(step)
        if kind == "counts":
            argv = ["counts", "--t", t, "--max-n", n]
        elif kind == "pmf":
            argv = ["pmf", "--t", t, "--n", n]
        else:
            argv = ["moments", "--t", t, "--n", n, "--max-k", 4]
        requests.append([str(a) for a in argv])
    rng.shuffle(requests)
    return requests


def sweep(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Ascending sweeps over moderate n for two values of t, so consecutive
    requests need prefixes of the same tables."""
    steps, lo, step = (2, 30, 12) if tiny else (13, 100, 12)
    # one shift for the whole sweep keeps the gaps between steps, and so the
    # tables each figure2 request adds, the same for every seed
    lo += rng.randrange(4)
    requests = []
    for i in range(steps):
        for t in (3, 5):
            top = lo + i * step
            # a jitter of 0-3 keeps each request's cost, and so p50, nearly
            # the same for every seed; a never meets an earlier step's b
            a = top - 2 * step + 1 + rng.randrange(4)
            b = top - step + 5 + rng.randrange(4)
            spread = f"{a},{b},{top}"
            requests += [
                ["figure2", "--t", str(t), "--max-n", str(top)],
                ["figure1", "--t", str(t), "--n", spread],
                ["figure1", "--t", str(t), "--n", str(top), "--view", "density"],
                ["moments", "--t", str(t), "--n", spread, "--max-k", "3"],
            ]
    return requests


def sampler(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Sampler requests grouped by n: the first request for each n builds the
    table, the rest only draw from it."""
    sizes, lo, step = (2, 20, 10) if tiny else (15, 300, 20)
    ns = [lo + j * step + rng.randrange(4) for j in range(sizes)]
    rng.shuffle(ns)
    requests = []
    for n in ns:
        seeds = rng.sample(range(1, 1 << 30), 7)
        group = [["sample", "--n", n, "--count", 5, "--seed", seeds[0]]]
        if not tiny:
            group += [["sample", "--n", n, "--count", 10, "--seed", s]
                      for s in seeds[1:4]]
        group += [["hooks", "--t", t, "--n", n, "--mode", "sample",
                   "--samples", 150, "--seed", s]
                  for t, s in zip((3, 5, 7), seeds[4:] if not tiny else seeds[1:2])]
        requests += [[str(a) for a in argv] for argv in group]
    return requests


def _divisible_partition(rng: random.Random, t: int, moves: int) -> list[int]:
    # slide beads t places up on an abacus that starts justified: every
    # runner keeps its bead count, so the t-core stays empty
    beads = set(range(2 * t))
    for _ in range(moves):
        movable = sorted(b for b in beads if b + t not in beads)
        b = rng.choice(movable)
        beads.remove(b)
        beads.add(b + t)
    ordered = sorted(beads, reverse=True)
    parts = [b - (len(ordered) - 1 - i) for i, b in enumerate(ordered)]
    return [p for p in parts if p > 0]


def verify(rng: random.Random, tiny: bool) -> list[list[str]]:
    """Every verification suite at a few small sizes, plus orbit tables and
    exact hook laws: the only user-facing paths into partitions, abacus and
    corequotient."""
    requests = []
    for suite in SUITES:
        # fixed sizes: enumerating suites cost ~1.3x more per unit of max-n
        for max_n in ((3,) if tiny else (5, 8)):
            requests.append([
                "verify", "--suite", suite, "--max-n", str(max_n),
                "--seed", str(rng.randrange(1 << 30)), "--format", "csv",
            ])
    for i in range(2 if tiny else 45):
        t = 3 + i % 2
        nu = _divisible_partition(rng, t, 2 + (i // 3) % 3)
        requests.append(["orbit", "--t", str(t), "--nu", ",".join(map(str, nu))])
    for n in ((8, 8) if tiny else HOOK_SIZES):
        # t = 2 costs about 10 % more at n = 22 than t = 3..7
        t = rng.randrange(3, 8)
        requests.append(["hooks", "--t", str(t), "--n", str(n), "--mode", "exact"])
    rng.shuffle(requests)
    return requests


GENERATORS = {"tables": tables, "sweep": sweep, "sampler": sampler, "verify": verify}


def generate(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The request stream of one workload for one seed."""
    return GENERATORS[workload](_rng(workload, seed), tiny)
