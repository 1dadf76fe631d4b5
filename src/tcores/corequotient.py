"""t-cores, t-quotients and the division bijection between a partition and
its (core, t-divisible) pair, computed on the bead positions of the t-runner
abacus: _positions reads off each runner's justification position p_i, _divide
adds its quotient component q_i (James and Kerber 1981, 2.7), and _assemble
puts them back.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .counting import f_t
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


def _positions(shape: PartitionShape, t: int) -> tuple[int, ...]:
    # a bead sits at level * t + runner; padded to m * t rows, each runner is
    # full below level -m, so p_i is its bead count - m (James and Kerber 2.7)
    t = _require_t(t)
    parts = shape.parts
    rows = len(parts)
    m = -(-rows // t)
    counts = [-m] * t
    for j, part in enumerate(parts, start=1):
        counts[(part - j) % t] += 1  # row j's bead, as in _beads
    for j in range(rows + 1, m * t + 1):
        counts[-j % t] += 1
    return tuple(counts)


def _divide(
    shape: PartitionShape, t: int
) -> tuple[tuple[int, ...], tuple[PartitionShape, ...]]:
    # the k-th bead of runner i from the top, at level L, gives part
    # L - p_i + k of q_i; the padding's beads, full at the bottom, give none
    positions = _positions(shape, t)
    levels: list[list[int]] = [[] for _ in range(t)]
    for j, part in enumerate(shape.parts, start=1):
        level, runner = divmod(part - j, t)
        levels[runner].append(level)
    # a runner whose top bead sits at p_i - 1 is justified: q_i is empty
    return positions, tuple(
        PartitionShape(tuple(x for k, level in enumerate(beads, start=1)
                             if (x := level - p + k)))
        if beads and beads[0] != p - 1 else EMPTY
        for beads, p in zip(levels, positions)
    )


def _assemble(
    positions: tuple[int, ...], quot: tuple[PartitionShape, ...], t: int
) -> PartitionShape:
    # inverse of _divide for positions summing to zero: runner i holds q_i's
    # beads at levels q_i[k-1] - k + p_i, full below; taking every bead from
    # level floor up, the j-th from the top, beta_j, gives part beta_j + j;
    # these fall to 0 at the full run of fewer than t beads at the bottom
    floor = min(p - len(q.parts) for p, q in zip(positions, quot))
    beads = []
    for i, (p, q) in enumerate(zip(positions, quot)):
        if q.parts:
            beads.extend((part - k + p) * t + i for k, part in enumerate(q.parts, start=1))
        beads.extend(range(floor * t + i, (p - len(q.parts)) * t + i, t))
    beads.sort(reverse=True)
    parts = list(map(add, beads, range(1, len(beads) + 1)))
    while parts and not parts[-1]:
        parts.pop()
    return PartitionShape(tuple(parts))


def is_core(shape: PartitionShape, t: int) -> bool:
    """True when every runner of the balanced abacus is justified: the core
    at the positions, of size f_t (Garvan, Kim and Stanton), is the shape."""
    return f_t(_positions(shape, t), t) == shape.size


def core(shape: PartitionShape, t: int) -> PartitionShape:
    """The t-core: justify each runner and read the merged word back."""
    return _assemble(_positions(shape, t), (EMPTY,) * t, t)


def quotient(shape: PartitionShape, t: int) -> tuple[PartitionShape, ...]:
    """The t-quotient: each runner read as a partition in its own right."""
    return _divide(shape, t)[1]


def justification_vector(shape: PartitionShape, t: int) -> tuple[int, ...]:
    """Justification positions of the core's runners; sums to zero."""
    return _positions(shape, t)


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
    t = _require_t(t)
    if len(quot) != t:
        raise ValueError(f"quotient must have exactly {t} components, got {len(quot)}")
    positions = _positions(core_shape, t)
    if f_t(positions, t) != core_shape.size:
        raise ValueError(f"{core_shape.parts} is not a {t}-core")
    return _assemble(positions, quot, t)
