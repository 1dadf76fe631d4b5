"""Independent reference routes, one home for all of them.

Production modules keep one algorithm per quantity; the verification suite
and the tests check each of them against a second route kept here.  These
routes deliberately avoid the machinery they check: core counts from lattice
points of the quadratic form f_t and from a divisor sum, cores from rim-hook
stripping, quotients from cell contents, the quotient action from runner
shifts, counting series from dense products of Euler factors and divisor
sums, sampler rows from the cell-by-cell recurrence with one bisection per
part, the exact hook-residue law from a census of every partition of n, and
the sampled hook-residue law from one fresh generator per draw.  Lattice
volumes sit here too: they only cross-check leading terms.
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

from . import abacus
from .counting import f_t
from .hookstats import _require_permutation
from .partitions import (
    Cell,
    PartitionShape,
    _require_int,
    _require_t,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    make_partition,
    remove_rim_hook,
)
from .sampling import _mix64, build_sampler, unrank_partition

# ---------------------------------------------------------------------------
# the lattice form and the divisor sum


def _coordinate_ranges(t: int, max_n: int) -> list[range]:
    # every solution of f_t = n <= max_n lies in the ball
    #   sum (p_i - (t-1-2i)/(2t))^2 = (2/t)(n + (t^2-1)/24)
    radius = math.sqrt(2.0 * (max_n + (t * t - 1) / 24.0) / t) + 1e-9
    ranges = []
    for i in range(t):
        center = (t - 1 - 2 * i) / (2 * t)
        ranges.append(range(math.ceil(center - radius), math.floor(center + radius) + 1))
    return ranges


def lattice_core_histogram(t: int, max_n: int) -> tuple[int, ...]:
    """Count zero-sum integer vectors with f_t = n for every n <= max_n."""
    t = _require_t(t)
    max_n = _require_int(max_n, "max_n", 0)
    ranges = _coordinate_ranges(t, max_n)
    last = ranges[-1]
    counts = [0] * (max_n + 1)
    weights = tuple(range(t))
    for head in itertools.product(*ranges[:-1]):
        tail = -sum(head)
        if tail not in last:
            continue
        p = head + (tail,)
        # doubled form stays in integers; the true value is always integral
        twice = t * sum(x * x for x in p) + 2 * sum(i * x for i, x in zip(weights, p))
        value, rem = divmod(twice, 2)
        assert rem == 0
        if 0 <= value <= max_n:
            counts[value] += 1
    return tuple(counts)


def lattice_core_count(t: int, n: int) -> int:
    """Number of zero-sum integer solutions of f_t(p) = n."""
    n = _require_int(n, "n", 0)
    return lattice_core_histogram(t, n)[n]


def mod_solution_count(t: int, n_mod: int) -> int:
    """Solutions of f_t = n mod t on the zero-sum hyperplane of (Z/tZ)^t.

    Each residue tuple with coordinate sum divisible by t is lifted to an
    honest zero-sum integer vector before evaluating f_t, so the residue of
    the value is well defined.  The count is t**(t-2) for every residue.
    """
    t = _require_t(t)
    target = n_mod % t
    count = 0
    for q in itertools.product(range(t), repeat=t):
        s = sum(q)
        if s % t:
            continue
        lifted = q[:-1] + (q[-1] - s,)
        if f_t(lifted, t) % t == target:
            count += 1
    return count


def ball_volume(t: int, n: int) -> float:
    """Volume of the (t-1)-ball cut out by f_t = n inside the hyperplane."""
    t = _require_t(t)
    n = _require_int(n, "n", 0)
    r2 = (2.0 * math.pi / t) * (n + (t * t - 1) / 24.0)
    return r2 ** ((t - 1) / 2.0) / math.gamma((t + 1) / 2.0)


def _det_fractions(matrix: list[list[Fraction]]) -> Fraction:
    # plain Gaussian elimination over exact rationals; matrices here are tiny
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def lattice_covolume(t: int) -> float:
    """Covolume of the zero-sum integer lattice inside its hyperplane.

    Built from the Gram determinant of the basis e_0 - e_i, not hard-coded;
    the determinant evaluates to t, so the result is sqrt(t).
    """
    t = _require_t(t)
    basis = []
    for i in range(1, t):
        v = [0] * t
        v[0] = 1
        v[i] = -1
        basis.append(v)
    gram = [
        [Fraction(sum(a * b for a, b in zip(u, w))) for w in basis] for u in basis
    ]
    det = _det_fractions(gram)
    return math.sqrt(float(det))


def c3_divisor_counts(max_n: int) -> tuple[int, ...]:
    """Numbers of 3-cores of 0..max_n via the divisor sums over 3n + 1.

    One sieve over m <= 3 max_n + 1: each divisor d of m contributes +1 when
    d = 1 mod 3 and -1 when d = 2 mod 3.  As d^2 = 1 mod 3, the multiples of
    d that are 1 mod 3 start at d * (d mod 3) and step by 3d, so their n step
    by d.
    """
    max_n = _require_int(max_n, "max_n", 0)
    counts = [0] * (max_n + 1)
    for d in range(1, 3 * max_n + 2):
        r = d % 3
        if r:
            sign = 1 if r == 1 else -1
            for n in range((d * r - 1) // 3, max_n + 1, d):
                counts[n] += sign
    return tuple(counts)


# ---------------------------------------------------------------------------
# cores, quotients and the action without the core/quotient division


def _hook_cells(shape: PartitionShape, t: int) -> Iterator[Cell]:
    # the cells of hook length t, row by row, read off the diagram alone;
    # hooks is row-major too, so each cell takes the next hook length
    hooks = iter(hook_lengths(shape))
    return (Cell(r, c) for r, width in enumerate(shape.parts, start=1)
            for c in range(1, width + 1) if next(hooks) == t)


def core_by_rim_stripping(shape: PartitionShape, t: int) -> PartitionShape:
    """Greedily remove t-rim-hooks until none remain; stripping order does
    not matter, so this is the t-core."""
    t = _require_t(t)
    current = shape
    while (target := next(_hook_cells(current, t), None)) is not None:
        current = remove_rim_hook(current, target)
    return current


def all_stripping_results(shape: PartitionShape, t: int) -> set[PartitionShape]:
    """Terminal partitions over every order of removals of size-t rim hooks."""

    @lru_cache(maxsize=None)
    def explore(parts: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        current = PartitionShape(parts)
        results: set[tuple[int, ...]] = set()
        for cell in _hook_cells(current, t):
            results |= explore(remove_rim_hook(current, cell).parts)
        return frozenset(results or {parts})

    return {PartitionShape(p) for p in explore(shape.parts)}


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


def act_on_partition_via_shifts(
    sigma: Sequence[int], shape: PartitionShape, t: int
) -> PartitionShape:
    """The quotient action computed directly on the runners.

    Runner i of the image is runner sigma[i] of the input shifted by the
    difference of the core justification positions; must agree with
    hookstats.act_on_partition everywhere.
    """
    t = _require_t(t)
    sigma = _require_permutation(sigma, t)
    tr = abacus.split_runners(abacus.abacus_from_partition(shape), t)
    positions = [abacus.justify(r)[1] for r in tr.runners]
    moved = tuple(
        abacus.shift(tr.runners[sigma[i]], positions[sigma[i]] - positions[i])
        for i in range(t)
    )
    return abacus.partition_from_abacus(
        abacus.merge_runners(abacus.TRunner(t, moved))
    )


# ---------------------------------------------------------------------------
# counting series from dense products of Euler factors


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


def sigma_sums_by_divisors(t: int, max_n: int) -> tuple[int, ...]:
    """S_t(0..max_n) = sum_{j>=1} sigma(j) p(n - tj), with sigma(j) from a
    divisor sieve and p from the dense product."""
    p = partition_counts_by_products(max_n)
    sigma = [0] * (max_n // t + 1)
    for d in range(1, len(sigma)):
        for j in range(d, len(sigma), d):
            sigma[j] += d
    return tuple(sum(sigma[j] * p[n - t * j] for j in range(1, n // t + 1))
                 for n in range(max_n + 1))


# ---------------------------------------------------------------------------
# the sampler and the hook-residue laws


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
