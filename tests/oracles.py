"""Independent reference implementations used only by the tests.

These deliberately avoid the abacus machinery and the sparse series engine so
that each production code path is checked against a second route: quotients
from cell contents, cores from exhaustive rim-hook stripping, core membership
from raw hook scans, counting series from dense products of Euler factors,
sampler rows from the cell-by-cell recurrence with one bisection per part,
the exact hook-residue law from a census of every partition of n, and the
sampled hook-residue law from one fresh generator per draw.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Sequence

from tcores.partitions import (
    Cell,
    PartitionShape,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    make_partition,
    remove_rim_hook,
)
from tcores.sampling import _mix64, build_sampler, unrank_partition


def is_core_by_hooks(shape: PartitionShape, t: int) -> bool:
    return not any(h % t == 0 for h in hook_lengths(shape))


def quotient_by_contents(shape: PartitionShape, t: int) -> tuple[PartitionShape, ...]:
    """Quotient component k collects the cells with t-divisible hooks whose
    arm node has content congruent to k mod t, row by row."""
    rows_per_class: list[list[int]] = [[] for _ in range(t)]
    for r, width in enumerate(shape.parts, start=1):
        klass = (width - r) % t
        count = sum(
            1 for c in range(1, width + 1)
            if hook_length(shape, Cell(r, c)) % t == 0
        )
        rows_per_class[klass].append(count)
    out = []
    for rows in rows_per_class:
        parts = [x for x in rows if x]
        assert parts == sorted(parts, reverse=True), "component is not a diagram"
        out.append(make_partition(parts))
    return tuple(out)


def all_stripping_results(shape: PartitionShape, t: int) -> set[PartitionShape]:
    """Terminal partitions over every order of removals of size-t rim hooks."""

    @lru_cache(maxsize=None)
    def explore(parts: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        current = PartitionShape(parts)
        hooks = hook_lengths(current)
        targets = []
        idx = 0
        for r, width in enumerate(parts, start=1):
            for c in range(1, width + 1):
                if hooks[idx] == t:
                    targets.append(Cell(r, c))
                idx += 1
        if not targets:
            return frozenset({parts})
        results: set[tuple[int, ...]] = set()
        for cell in targets:
            results |= explore(remove_rim_hook(current, cell).parts)
        return frozenset(results)

    return {PartitionShape(p) for p in explore(shape.parts)}


def partition_counts_by_products(max_n: int) -> tuple[int, ...]:
    """p(0..max_n) from the product of the factors 1/(1 - x^k)."""
    a = [0] * (max_n + 1)
    a[0] = 1
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):
            a[n] += a[n - k]
    return tuple(a)


def core_counts_by_products(t: int, max_n: int) -> tuple[int, ...]:
    """c_t(0..max_n) from the product of (1-x^{tk})^t / (1-x^k), factor by
    factor, interleaved per k to keep the intermediate coefficients small."""
    a = [0] * (max_n + 1)
    a[0] = 1
    for k in range(1, max_n + 1):
        for n in range(k, max_n + 1):          # divide by (1 - x^k)
            a[n] += a[n - k]
        m = t * k
        if m <= max_n:
            for _ in range(t):                 # multiply by (1 - x^{tk})^t
                for n in range(max_n, m - 1, -1):
                    a[n] -= a[n - m]
    return tuple(a)


def divisible_counts_by_products(t: int, max_n: int) -> tuple[int, ...]:
    """d_t(0..max_n) from the product of 1/(1-x^{tk})^t, factor by factor."""
    a = [0] * (max_n + 1)
    a[0] = 1
    k = 1
    while t * k <= max_n:
        m = t * k
        for _ in range(t):
            for n in range(m, max_n + 1):
                a[n] += a[n - m]
        k += 1
    return tuple(a)


def core_sums_by_products(t: int, max_n: int) -> tuple[int, ...]:
    """C_t(0..max_n) as sum_i c_t(n - i t) over the dense c_t oracle."""
    c = core_counts_by_products(t, max_n)
    return tuple(sum(c[n - i * t] for i in range(n // t + 1)) for n in range(max_n + 1))


def sampler_rows_dense(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of count(m, k), partitions of m with parts <= k, k <= m,
    filled cell by cell from count(m, k) = count(m, k-1) + count(m-k, k)."""
    rows: list[tuple[int, ...]] = [(1,)]
    for m in range(1, n + 1):
        row = [0]
        for k in range(1, m + 1):
            below = rows[m - k]
            smaller = below[k] if k < len(below) else below[-1]
            row.append(row[k - 1] + smaller)
        rows.append(tuple(row))
    return tuple(rows)


def unrank_by_bisection(rows: Sequence[Sequence[int]], n: int, rank: int) -> tuple[int, ...]:
    """Parts of the partition of n at a rank: each next part j is the least
    value whose count of partitions with parts <= j exceeds the rank."""
    m = cap = n
    parts = []
    while m > 0:
        row = rows[m]
        j = bisect_right(row, rank, 0, min(cap, m) + 1)
        parts.append(j)
        rank -= row[j - 1]
        m -= j
        cap = j
    return tuple(parts)


def sampled_residues_per_index(
    t: int, n: int, samples: int, seed: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The Monte Carlo hook-residue law with a fresh Random(_mix64(seed, i))
    for draw i, and the drawn cell's hook length from a raw scan."""
    table = build_sampler(n)
    counts = [0] * t
    for index in range(samples):
        rng = random.Random(_mix64(seed, index))
        shape = unrank_partition(table, rng.randrange(table.total))
        cell = next(islice(shape.cells(), rng.randrange(n), None))
        counts[hook_length(shape, cell) % t] += 1
    estimates = tuple(c / samples for c in counts)
    errors = tuple(math.sqrt(p * (1.0 - p) / samples) for p in estimates)
    return estimates, errors


def residue_law_by_enumeration(t: int, n: int) -> tuple[Fraction, ...]:
    """P(hook length = i mod t) for a uniform cell of a uniform partition of
    n, from the hook lengths of every partition of n."""
    totals = [0] * t
    count = 0
    for shape in enumerate_partitions(n):
        count += 1
        for h in hook_lengths(shape):
            totals[h % t] += 1
    return tuple(Fraction(c, n * count) for c in totals)
