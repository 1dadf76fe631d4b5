"""Exactly uniform random partitions of n.

A classic dynamic-programming table counts partitions of m with largest part
at most k.  Because the row entry at k is precisely the number of partitions
whose largest part is at most k, each row is its own cumulative distribution,
and a single uniform integer rank in [0, p(n)) unranks to a partition by
exact big-integer comparisons.  No floating point touches the draw and the
rank comes from randrange's rejection loop, so the distribution over
partitions is exactly uniform and every sample is a pure function of
(seed, index).

Row m of the table does not depend on n, so one list of rows, grown on demand,
serves every n as a prefix.  Rows below m = 16 are stored whole; of every
other row only the first quarter is stored, and the rest follows from Euler's
identity and three running sums of p.
"""
from __future__ import annotations

import threading
from _random import Random as _MersenneTwister
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

from .counting import partition_count_table
from .partitions import EMPTY, PartitionShape, _require_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class SamplerTable:
    """The counts count(m, k) of partitions of m with every part <= k, m <= n.

    rows[m] holds row m whole, k = 0..m, for m < 16 (_WHOLE_ROWS), where a
    quarter holds at most 4 entries and a descent leaves it most often, and
    the first quarter of row m, k = 0..m//4, above.  Every larger k
    follows from Euler's identity prod_{j>k} (1 - q^j) = sum_i (-1)^i
    q^{ik + i(i+1)/2} / (q;q)_i (Andrews, The Theory of Partitions, ch. 2):
    count(m, k) = sum_i (-1)^i S_i[m - ik], where S_i[x] is the coefficient
    of q^x in q^{i(i+1)/2} / ((q;q)_i (q;q)_inf), so S_0 = p, S_i[x] = 0 for
    x < i(i+1)/2 and S_i[x] = S_i[x - i] + S_{i-1}[x - i].  The term i is
    zero unless m >= ik + i(i+1)/2, so for 4k > m - 10 only i <= 3 remain:
    sums = S_1, that is sums[x] = p(0) + ... + p(x - 1), sums2 = S_2 and
    sums3 = S_3, each held for x <= n + 1.  count() is the accessor for
    every k >= 0 and clamps k >= m to p(m); total is p(n).  It takes integers
    only and refuses m outside 0..n and k < 0, which would read rows and
    sums from their ends.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]
    sums: tuple[int, ...]
    sums2: tuple[int, ...]
    sums3: tuple[int, ...]
    total: int

    def count(self, m: int, k: int) -> int:
        m = _require_int(m, "m", 0, self.n)
        k = _require_int(k, "k", 0)
        row = self.rows[m]
        if k < len(row):
            return row[k]
        return _euler(self.sums, self.sums2, self.sums3, m, min(k, m))


def _euler(sums, sums2, sums3, m: int, k: int) -> int:
    """count(m, k) for (m - 10)/4 < k <= m by Euler's identity (see
    SamplerTable), skipping the S_2 and S_3 terms where they are zero."""
    count = sums[m + 1] - sums[m] - sums[m - k]
    rest = m - 2 * k
    if rest >= 3:
        count += sums2[rest]
        if rest - k >= 6:
            count -= sums3[rest - k]
    return count


# The largest n build_sampler serves.  The quarter rows hold about n^2/8
# integers of up to log2 p(n) bits; the cost at the cap is in README's caps
# table.
SAMPLER_MAX_N = 4000

# rows below this m are stored whole, the rest as their first quarter
_WHOLE_ROWS = 16

# the rows 0..len-1 and S_1, S_2, S_3 through index len, shared by every
# table and extended in place under the lock
_LOCK = threading.Lock()
_ROWS: list[tuple[int, ...]] = [(1,)]
_SUMS: list[int] = [0, 1]
_SUMS2: list[int] = [0, 0]
_SUMS3: list[int] = [0, 0]


def clear_tables() -> None:
    """Drop the grown rows; the next request rebuilds from scratch."""
    with _LOCK:
        del _ROWS[1:]
        for sums in (_SUMS, _SUMS2, _SUMS3):
            del sums[2:]


def _grow(n: int) -> None:
    """Extend the rows and sums through m = n.  Row m accumulates
    count(m - k, k) over its stored k.  A whole row (m < 16) reads the
    whole row m - k, clamped at k = m - k; a quarter row reads a stored
    entry of row m - k while k <= m/5, and Euler's identity beyond, where
    4k > m - k.  p comes from the counting series."""
    rows, sums, sums2, sums3 = _ROWS, _SUMS, _SUMS2, _SUMS3
    if len(rows) > n:
        return
    p = partition_count_table(n).values
    for m in range(len(rows), n + 1):
        if m < _WHOLE_ROWS:
            smaller = [rows[m - k][min(k, m - k)] for k in range(1, m + 1)]
        else:
            fifth, quarter = m // 5, m // 4
            smaller = [rows[m - k][k] for k in range(1, fifth + 1)]
            smaller += [_euler(sums, sums2, sums3, m - k, k)
                        for k in range(fifth + 1, quarter + 1)]
        rows.append(tuple(accumulate(smaller, initial=0)))
        sums.append(sums[m] + p[m])
        sums2.append(sums2[m - 1] + sums[m - 1])
        sums3.append(sums3[m - 2] + sums2[m - 2] if m >= 2 else 0)


def build_sampler(n: int) -> SamplerTable:
    """The table for partitions of n, a prefix of the shared grown rows.

    n above SAMPLER_MAX_N is refused before anything is allocated: the table
    at the cap alone adds about 130 MB of RSS.
    """
    n = _require_int(n, "n", 0)
    if n > SAMPLER_MAX_N:
        raise ValueError(f"the sampler takes n at most {SAMPLER_MAX_N}, got {n}")
    with _LOCK:
        _grow(n)
        total = _SUMS[n + 1] - _SUMS[n]
        return SamplerTable(n, tuple(_ROWS[:n + 1]), tuple(_SUMS[:n + 2]),
                            tuple(_SUMS2[:n + 2]), tuple(_SUMS3[:n + 2]), total)


def _descend(
    table: SamplerTable, rank: int, cell: int
) -> tuple[list[int], int, int, int, int]:
    """The unranking descent of the partition at rank, stopped once the hook
    of flat cell `cell` (row-major, from 0) is known.

    Ranks 0 .. p(n)-1 enumerate every partition of n exactly once: at each
    step the next (largest remaining) part j is the least value whose
    cumulative count exceeds the rank.  A part above m/4, for m >= 16, lies
    past the stored quarter row; it is found by bisecting Euler's identity
    instead.
    Once parts are capped at 2 the rest is closed form: count(m, 1) = 1, so
    rank r takes r twos, then ones.

    Returns (parts, m, twos, row, column): the parts drawn, largest first;
    the closed-form tail that follows them, `twos` twos and then m - 2*twos
    ones; and the cell's row and column, from 1, once the parts drawn pass
    the cell, else 0 (the cell lies in the tail).  From the cell's row on,
    the descent goes on only while the last part drawn exceeds
    max(2, column - 1).  So it ends at the first part below the column,
    which is then the last part drawn, and (m, twos) is a tail only for a
    column of at most 2.  A cell at n or beyond is never passed, and the
    parts and tail are the whole partition.
    """
    rank = _require_int(rank, "rank", 0, table.total - 1)
    rows = table.rows
    m = cap = table.n
    parts = []
    row = column = 0
    # the parts drawn pass the cell once m, the size left, falls below stop;
    # the inner loop's bounds change once, there, so a step tests nothing else
    stop = m - cell
    floor = 2
    bottom = stop - 1 if stop > 0 else 0
    while True:
        while cap > floor and m > bottom:
            counts = rows[m]
            if cap < len(counts):
                j = bisect_right(counts, rank, 0, cap + 1)
                rank -= counts[j - 1]
            elif rank < counts[-1]:
                j = bisect_right(counts, rank)
                rank -= counts[j - 1]
            else:
                # the identity holds from k = m//4 on, the last stored entry
                count = partial(_euler, table.sums, table.sums2, table.sums3, m)
                j = bisect_right(range(min(cap, m) + 1), rank, len(counts), key=count)
                rank -= count(j - 1)
            parts.append(j)
            m -= j
            cap = j
        if row or m >= stop:
            return parts, m, rank, row, column
        row, column = len(parts), cap + m - stop + 1
        floor, bottom = max(2, column - 1), 0


def unrank_partition(table: SamplerTable, rank: int) -> PartitionShape:
    """The partition at a given rank of the table's bijective ordering, in
    which ranks 0 .. p(n)-1 give every partition of n exactly once: the
    descent of _descend, run to the end."""
    parts, m, twos, _, _ = _descend(table, rank, table.n)
    shape = (*parts, *(2,) * twos, *(1,) * (m - 2 * twos))
    return PartitionShape(shape) if shape else EMPTY


def hook_at(table: SamplerTable, rank: int, cell: int) -> int:
    """The hook length of flat cell `cell` (row-major, from 0) of the
    partition at rank, without unranking the whole partition; cell takes the
    integers 0..n-1 and rank the integers 0..p(n)-1.

    The cell (r, c) of a partition lambda has hook lambda_r - c + lambda'_c -
    r + 1, where lambda'_c counts the parts >= c.  Parts come largest first,
    so r, c and lambda_r are known once the parts drawn pass the cell, and
    lambda'_c at the first part below c, where the descent stops.  A cell or
    column that reaches the closed-form tail of twos and ones is read off
    the tail's counts without building it.
    """
    n = table.n
    cell = _require_int(cell, "cell", 0, n - 1)
    parts, m, twos, row, column = _descend(table, rank, cell)
    if row:
        width = parts[row - 1]
        height = len(parts) - (parts[-1] < column)
    else:
        # the tail holds the cell: twos rows of two cells, then rows of one
        offset = cell - n + m
        if offset < 2 * twos:
            row, column, width = len(parts) + offset // 2 + 1, offset % 2 + 1, 2
        else:
            row, column, width = len(parts) + offset - twos + 1, 1, 1
        height = len(parts)
    height += m - twos if column == 1 else twos if column == 2 else 0
    return width - column + height - row + 1


def _mix64(seed: int, index: int) -> int:
    """SplitMix64 finalizer applied to seed advanced by index steps of the
    golden-ratio increment; collision-free over indices for a fixed seed.

    The seed is reduced mod 2^64, so seeds that differ by a multiple of 2^64
    (-1 and 2^64 - 1, say) give the same value; the CLI takes 0..2^64 - 1.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# one generator per thread, reseeded for every index: seeding the C core of
# random.Random in place sets the state a new random.Random seeded with the
# same int starts from, without building a new object
_THREAD = threading.local()


def _draws(seed: int, index: int, bounds: tuple[int, ...]) -> tuple[int, ...]:
    """The values randrange(b), bound by bound (each b >= 1), that a new
    random.Random seeded with _mix64(seed, index) draws, by randrange's own
    rejection loop over getrandbits.

    Nothing may draw from the thread's generator between the reseed and the
    last bound, so nothing between them yields or calls code that draws.
    """
    try:
        rng = _THREAD.rng
    except AttributeError:
        rng = _THREAD.rng = _MersenneTwister()
    rng.seed(_mix64(seed, index))
    getrandbits = rng.getrandbits
    values = []
    for bound in bounds:
        k = bound.bit_length()
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        values.append(r)
    return tuple(values)


def index_draws(seed: int, count: int, *bounds: int) -> Iterator[tuple[int, ...]]:
    """For indices 0..count-1 of one stream, in order, the tuple of
    successive randrange(b) values over bounds, each equal to what a new
    random.Random seeded with _mix64(seed, index) draws: a function of
    (seed, index) only, whatever is drawn between two indices or in another
    thread.  A seed that is not an integer, a count below 0 or a bound below
    1 is refused when the stream is first advanced."""
    seed = _require_int(seed, "seed")
    count = _require_int(count, "count", 0)
    bounds = tuple([_require_int(b, "each entry of bounds", 1) for b in bounds])
    for index in range(count):
        yield _draws(seed, index, bounds)


def sample_partition(table: SamplerTable, seed: int, index: int) -> PartitionShape:
    """Exactly uniform partition of n, a pure function of (seed, index): the
    rank randrange(p(n)) of a new random.Random seeded with
    _mix64(seed, index), unranked.  The seed is taken mod 2^64 (see
    _mix64)."""
    seed = _require_int(seed, "seed")
    index = _require_int(index, "index", 0)
    return unrank_partition(table, _draws(seed, index, (table.total,))[0])
