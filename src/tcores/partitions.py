"""Integer partitions as immutable shapes.

A partition is stored as a nonincreasing tuple of positive integers.  Cells
of the Young diagram are addressed 1-based as (row, col) in English notation,
so (1, 1) is the top-left corner.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence


class Cell(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class PartitionShape:
    """A validated partition; use make_partition to construct one."""

    parts: tuple[int, ...]

    @cached_property
    def size(self) -> int:
        return sum(self.parts)

    def cells(self) -> Iterator[Cell]:
        for r, width in enumerate(self.parts, start=1):
            for c in range(1, width + 1):
                yield Cell(r, c)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"PartitionShape({list(self.parts)!r})"


EMPTY = PartitionShape(())


def make_partition(parts: Sequence[int]) -> PartitionShape:
    """Validate and build a PartitionShape from any integer sequence."""
    t: list[int] = []
    for i, x in enumerate(parts):
        try:
            x = operator.index(x)
        except TypeError:
            raise ValueError(f"part {i} is {x!r}; parts must be integers") from None
        if x <= 0:
            raise ValueError(f"part {i} is {x}; parts must be positive")
        if t and t[-1] < x:
            raise ValueError(f"parts must be nonincreasing, got {t[-1]} before {x}")
        t.append(x)
    return PartitionShape(tuple(t))


def conjugate(shape: PartitionShape) -> PartitionShape:
    """Transpose of the Young diagram."""
    return PartitionShape(conjugate_parts(shape.parts))


def conjugate_parts(parts: Sequence[int]) -> tuple[int, ...]:
    """Column lengths of the diagram (conjugate as a raw tuple)."""
    if not parts:
        return ()
    # column c holds the rows at least c wide, so as c rises the row pointer
    # only moves up, past the rows narrower than c
    rows = len(parts)
    out = []
    for c in range(1, parts[0] + 1):
        while parts[rows - 1] < c:
            rows -= 1
        out.append(rows)
    return tuple(out)


# the counting series hold the powers E^j and 1/E^j for j = 1..t, shared by
# every modulus, and division makes t runner lists, whatever n is: at
# t = 10^5 a command takes about 37 MB at n = 10 and 50 MB at n = 50 000, at
# 3 * 10^5 about 75 and 110 MB
MAX_T = 100_000


def _require_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """The one check of an integer argument: value taken as an int through
    operator.index, like a part in make_partition, so 2.0 is refused like
    2.5 and a bool counts as an int, then held to low..high where given."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and number < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    if high is not None and number > high:
        raise ValueError(f"{name} must be at most {high}, got {value!r}")
    return number


def _require_t(t: int) -> int:
    return _require_int(t, "t", 2, MAX_T)


def hook_lengths(shape: PartitionShape) -> tuple[int, ...]:
    """All hook lengths in row-major order."""
    parts = shape.parts
    conj = conjugate_parts(parts)
    out = []
    for r, width in enumerate(parts, start=1):
        base = width - r + 1
        for c in range(1, width + 1):
            out.append(base - c + conj[c - 1])
    return tuple(out)


def enumerate_partitions(n: int) -> Iterator[PartitionShape]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    The first is (n), the last is (1,...,1); the order is stable so test logs
    can be compared across runs.
    """
    n = _require_int(n, "n", 0)
    parts = [n] if n else []
    while True:
        yield PartitionShape(tuple(parts))
        # pop the trailing 1s, lower the last part above 1 to m and refill
        # the freed cells with parts of m, the remainder last
        freed = 0
        while parts and parts[-1] == 1:
            parts.pop()
            freed += 1
        if not parts:
            return
        m = parts[-1] - 1
        parts[-1] = m
        count, rest = divmod(freed + 1, m)
        parts += [m] * count
        if rest:
            parts.append(rest)
