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

    def contains(self, cell: Cell) -> bool:
        r, c = cell
        return 1 <= r <= len(self.parts) and 1 <= c <= self.parts[r - 1]

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
    out = [0] * parts[0]
    for width in parts:
        for j in range(width):
            out[j] += 1
    return tuple(out)


# the counting series hold the powers E^j and 1/E^j for j = 1..t, shared by
# every modulus, and division makes t runner lists, whatever n is: at
# t = 10^5 a command takes about 37 MB at n = 10 and 50 MB at n = 50 000, at
# 3 * 10^5 about 75 and 110 MB
MAX_T = 100_000


def _require_t(t: int) -> int:
    # the one check of the modulus t shared by every module; like a part in
    # make_partition, t is taken as an int through operator.index
    try:
        value = operator.index(t)
    except TypeError:
        raise ValueError(f"t must be an integer, got {t!r}") from None
    if value < 2:
        raise ValueError(f"t must be at least 2, got {t!r}")
    if value > MAX_T:
        raise ValueError(f"t must be at most {MAX_T}, got {t!r}")
    return value


def _require_cell(shape: PartitionShape, cell: Cell) -> tuple[int, int]:
    r, c = cell
    if not shape.contains(Cell(r, c)):
        raise ValueError(f"cell ({r},{c}) lies outside the diagram of {shape.parts}")
    return r, c


def arm_length(shape: PartitionShape, cell: Cell) -> int:
    """Number of cells strictly to the right of the cell in its row."""
    r, c = _require_cell(shape, cell)
    return shape.parts[r - 1] - c


def leg_length(shape: PartitionShape, cell: Cell) -> int:
    """Number of cells strictly below the cell in its column."""
    r, c = _require_cell(shape, cell)
    col_len = sum(1 for width in shape.parts if width >= c)
    return col_len - r


def hook_length(shape: PartitionShape, cell: Cell) -> int:
    r, c = _require_cell(shape, cell)
    col_len = sum(1 for width in shape.parts if width >= c)
    return shape.parts[r - 1] - c + col_len - r + 1


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


def rim_hook_cells(shape: PartitionShape, cell: Cell) -> list[Cell]:
    """Walk the rim from the arm node of the cell to its leg node.

    From each rim cell the walk steps down when the cell below is in the
    diagram, otherwise left; it ends at the leg node.  The number of visited
    cells equals the hook length.
    """
    r, c = _require_cell(shape, cell)
    cur_r, cur_c = r, shape.parts[r - 1]
    visited = [Cell(cur_r, cur_c)]
    while True:
        if shape.contains(Cell(cur_r + 1, cur_c)):
            cur_r += 1
        elif cur_c > c:
            cur_c -= 1
        else:
            break
        visited.append(Cell(cur_r, cur_c))
    return visited


def remove_rim_hook(shape: PartitionShape, cell: Cell) -> PartitionShape:
    """Delete the rim hook (ribbon) of the cell; result is a valid shape."""
    ribbon = rim_hook_cells(shape, cell)
    leftmost: dict[int, int] = {}
    for r, c in ribbon:
        if r not in leftmost or c < leftmost[r]:
            leftmost[r] = c
    new_parts = []
    for r, width in enumerate(shape.parts, start=1):
        w = leftmost[r] - 1 if r in leftmost else width
        if w > 0:
            new_parts.append(w)
    return make_partition(new_parts)


def enumerate_partitions(n: int) -> Iterator[PartitionShape]:
    """All partitions of n, each exactly once, in reverse-lexicographic order.

    The first is (n), the last is (1,...,1); the order is stable so test logs
    can be compared across runs.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        yield EMPTY
        return
    parts = (n,)
    yield PartitionShape(parts)
    while True:
        # rightmost part greater than 1
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        remainder = len(parts) - i
        head = parts[:i] + (parts[i] - 1,)
        # split the remainder into parts capped by the decremented value
        cap = head[-1]
        tail = []
        while remainder > 0:
            take = min(cap, remainder)
            tail.append(take)
            remainder -= take
        parts = head + tuple(tail)
        yield PartitionShape(parts)
