"""t-cores, t-quotients and the division bijection between a partition and
its (core, t-divisible) pair, computed on the bead positions of the t-runner
abacus: _divide reads off each runner's justification position p_i and its
quotient component q_i (James and Kerber 1981, 2.7); _assemble puts them back.

Each primitive keeps a memo of its last 1024 distinct argument tuples, typed,
so the public entry points and hookstats divide a (shape, t) once however
often they ask for it.  An entry holds O(len(parts) + t) ints; results are
immutable and shared; `_divide.cache_clear()` and `_assemble.cache_clear()`
empty the memos.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .partitions import EMPTY, PartitionShape, _require_t


@dataclass(frozen=True)
class CoreQuotient:
    """Result of dividing a partition by t.

    core is the t-core, quotient the t components read off the runners, and
    divisible the t-divisible partition they assemble into; sizes satisfy
    |shape| = |core| + |divisible| = |core| + t * sum(|q| for q in quotient).
    """

    t: int
    core: PartitionShape
    quotient: tuple[PartitionShape, ...]
    divisible: PartitionShape


def _beads(parts: tuple[int, ...]) -> list[int]:
    # row j's bead in the balanced word sits at parts[j-1] - j, descending
    return [part - j for j, part in enumerate(parts, start=1)]


# typed keys keep a refused t refused: 2.0 == 2 would otherwise hit t = 2's entry
_memo = lru_cache(maxsize=1024, typed=True)


@_memo
def _divide(
    shape: PartitionShape, t: int
) -> tuple[tuple[int, ...], tuple[PartitionShape, ...]]:
    # a bead sits at level * t + runner; padded to m * t rows, each runner is
    # full below level -m, so p_i is its bead count - m, and its k-th bead
    # from the top, at level L, gives part L - p_i + k of q_i
    _require_t(t)
    parts = shape.parts
    m = -(-len(parts) // t)
    levels: list[list[int]] = [[] for _ in range(t)]
    for bead in _beads(parts + (0,) * (m * t - len(parts))):
        level, runner = divmod(bead, t)
        levels[runner].append(level)
    positions = tuple(len(beads) - m for beads in levels)
    return positions, tuple(
        PartitionShape(tuple(x for k, level in enumerate(beads, start=1)
                             if (x := level - p + k)))
        for beads, p in zip(levels, positions)
    )


@_memo
def _assemble(
    positions: tuple[int, ...], quot: tuple[PartitionShape, ...], t: int
) -> PartitionShape:
    # inverse of _divide for positions summing to zero: runner i holds q_i's
    # beads at levels q_i[k-1] - k + p_i, full below; taking every bead from
    # level floor up, the j-th from the top, beta_j, gives part beta_j + j
    floor = min(p - len(q.parts) for p, q in zip(positions, quot))
    beads = []
    for i, (p, q) in enumerate(zip(positions, quot)):
        beads.extend((part - k + p) * t + i for k, part in enumerate(q.parts, start=1))
        beads.extend(level * t + i for level in range(floor, p - len(q.parts)))
    beads.sort(reverse=True)
    return PartitionShape(tuple(x for j, beta in enumerate(beads, start=1)
                                if (x := beta + j)))


def is_core(shape: PartitionShape, t: int) -> bool:
    """True when every runner of the balanced abacus is justified."""
    return all(q == EMPTY for q in _divide(shape, t)[1])


def core(shape: PartitionShape, t: int) -> PartitionShape:
    """The t-core: justify each runner and read the merged word back."""
    return _assemble(_divide(shape, t)[0], (EMPTY,) * t, t)


def quotient(shape: PartitionShape, t: int) -> tuple[PartitionShape, ...]:
    """The t-quotient: each runner read as a partition in its own right."""
    return _divide(shape, t)[1]


def justification_vector(shape: PartitionShape, t: int) -> tuple[int, ...]:
    """Justification positions of the core's runners; sums to zero."""
    return _divide(shape, t)[0]


def decompose(shape: PartitionShape, t: int) -> CoreQuotient:
    """Divide the partition into its t-core and t-divisible companion.

    The divisible part is assembled by left-shifting runner i by the core's
    justification position p_i, which balances every runner.
    """
    positions, quot = _divide(shape, t)
    return CoreQuotient(
        t, _assemble(positions, (EMPTY,) * t, t), quot, _assemble((0,) * t, quot, t)
    )


def compose(
    core_shape: PartitionShape, quot: tuple[PartitionShape, ...], t: int
) -> PartitionShape:
    """Inverse of decompose: rebuild the partition from a core and quotient."""
    _require_t(t)
    if len(quot) != t:
        raise ValueError(f"quotient must have exactly {t} components, got {len(quot)}")
    positions, core_quot = _divide(core_shape, t)
    if any(q != EMPTY for q in core_quot):
        raise ValueError(f"{core_shape.parts} is not a {t}-core")
    return _assemble(positions, tuple(quot), t)
