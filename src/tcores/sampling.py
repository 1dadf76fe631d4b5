"""Exactly uniform random partitions of n.

A classic dynamic-programming table counts partitions of m with largest part
at most k.  Because the row entry at k is precisely the number of partitions
whose largest part is at most k, each row is its own cumulative distribution,
and a single uniform integer rank in [0, p(n)) unranks to a partition by
exact big-integer comparisons.  No floating point and no rejection loop touch
the draw, so the distribution over partitions is exactly uniform and every
sample is a pure function of (seed, index).

Row m of the table does not depend on n, so one list of rows, grown on demand,
serves every n as a prefix.
"""
from __future__ import annotations

import random
import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .partitions import EMPTY, PartitionShape

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class SamplerTable:
    """counts[m][k] = number of partitions of m with every part <= k.

    Rows are stored triangularly (k <= m) since the count is constant for
    k >= m; count() clamps.  counts[n][n] equals p(n).
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def count(self, m: int, k: int) -> int:
        row = self.rows[m]
        return row[k] if k < len(row) else row[-1]

    @property
    def total(self) -> int:
        return self.rows[self.n][-1]


# The largest n build_sampler serves.  The rows hold about n^2/2 integers of
# up to log2 p(n) bits; one process running `sample --n N --count 10` peaks at
# about 300 MB of RSS for N = 3000 and 550 MB for N = 4000.
SAMPLER_MAX_N = 4000

# the rows 0..len-1, shared by every table and extended in place under the lock
_LOCK = threading.Lock()
_ROWS: list[tuple[int, ...]] = [(1,)]


def clear_tables() -> None:
    """Drop the grown rows; the next request rebuilds from scratch."""
    with _LOCK:
        del _ROWS[1:]


def _grow(n: int) -> None:
    """Extend the rows through m = n.  Row m accumulates count(m - k, k) over
    k = 1..m; that is row m - k at k while k <= m/2, and p(m - k) beyond."""
    rows = _ROWS
    for m in range(len(rows), n + 1):
        half = m // 2
        smaller = [rows[m - k][k] for k in range(1, half + 1)]
        smaller += [rows[j][-1] for j in range(m - half - 1, -1, -1)]
        rows.append(tuple(accumulate(smaller, initial=0)))


def build_sampler(n: int) -> SamplerTable:
    """The table for partitions of n, a prefix of the shared grown rows.

    n above SAMPLER_MAX_N is refused before anything is allocated: the table
    at the cap alone takes about 550 MB.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > SAMPLER_MAX_N:
        raise ValueError(f"the sampler takes n at most {SAMPLER_MAX_N}, got {n}")
    with _LOCK:
        _grow(n)
        return SamplerTable(n, tuple(_ROWS[:n + 1]))


def unrank_partition(table: SamplerTable, rank: int) -> PartitionShape:
    """The partition at a given rank of the table's bijective ordering.

    Ranks 0 .. p(n)-1 enumerate every partition of n exactly once: at each
    step the next (largest remaining) part j is the least value whose
    cumulative count exceeds the rank.  Once parts are capped at 2 the rest
    is closed form: count(m, 1) = 1, so rank r takes r twos, then ones.
    """
    if not 0 <= rank < table.total:
        raise ValueError(f"rank must lie in [0, {table.total}), got {rank}")
    rows = table.rows
    m = cap = table.n
    parts = []
    while cap > 2 and m > 0:
        row = rows[m]
        j = bisect_right(row, rank, 0, (cap if cap < m else m) + 1)
        parts.append(j)
        rank -= row[j - 1]
        m -= j
        cap = j
    parts += [2] * rank + [1] * (m - 2 * rank)
    return PartitionShape(tuple(parts)) if parts else EMPTY


def _mix64(seed: int, index: int) -> int:
    """SplitMix64 finalizer applied to seed advanced by index steps of the
    golden-ratio increment; collision-free over indices for a fixed seed."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_rng(seed: int, index: int) -> random.Random:
    """Per-sample generator; state depends only on (seed, index)."""
    return random.Random(_mix64(seed, index))


def sample_partition(table: SamplerTable, seed: int, index: int) -> PartitionShape:
    """Exactly uniform partition of n, a pure function of (seed, index)."""
    rng = stream_rng(seed, index)
    return unrank_partition(table, rng.randrange(table.total))
