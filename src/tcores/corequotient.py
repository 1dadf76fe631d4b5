"""t-cores, t-quotients and the division bijection between a partition and
its (core, t-divisible) pair, computed on the t-runner abacus."""
from __future__ import annotations

from dataclasses import dataclass

from . import abacus
from .partitions import PartitionShape, _require_t


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


def _runners(shape: PartitionShape, t: int) -> abacus.TRunner:
    _require_t(t)
    return abacus.split_runners(abacus.abacus_from_partition(shape), t)


def is_core(shape: PartitionShape, t: int) -> bool:
    """True when every runner of the balanced abacus is justified."""
    return all(r.is_justified for r in _runners(shape, t).runners)


def core(shape: PartitionShape, t: int) -> PartitionShape:
    """The t-core: justify each runner and read the merged word back."""
    tr = _runners(shape, t)
    justified = tuple(abacus.justify(r)[0] for r in tr.runners)
    return abacus.partition_from_abacus(
        abacus.merge_runners(abacus.TRunner(t, justified))
    )


def quotient(shape: PartitionShape, t: int) -> tuple[PartitionShape, ...]:
    """The t-quotient: each runner read as a partition in its own right."""
    tr = _runners(shape, t)
    return tuple(abacus.partition_from_abacus(r) for r in tr.runners)


def justification_vector(shape: PartitionShape, t: int) -> abacus.JustificationVector:
    """Justification positions of the core's runners; sums to zero."""
    tr = _runners(shape, t)
    return tuple(abacus.justify(r)[1] for r in tr.runners)


def decompose(shape: PartitionShape, t: int) -> CoreQuotient:
    """Divide the partition into its t-core and t-divisible companion.

    The divisible part is assembled by left-shifting runner i by the core's
    justification position p_i, which balances every runner.
    """
    tr = _runners(shape, t)
    justified = []
    positions = []
    for r in tr.runners:
        w, p = abacus.justify(r)
        justified.append(w)
        positions.append(p)
    core_shape = abacus.partition_from_abacus(
        abacus.merge_runners(abacus.TRunner(t, tuple(justified)))
    )
    balanced = tuple(
        abacus.shift(r, p) for r, p in zip(tr.runners, positions)
    )
    divisible = abacus.partition_from_abacus(
        abacus.merge_runners(abacus.TRunner(t, balanced))
    )
    quot = tuple(abacus.partition_from_abacus(r) for r in tr.runners)
    return CoreQuotient(t, core_shape, quot, divisible)


def compose(
    core_shape: PartitionShape, quot: tuple[PartitionShape, ...], t: int
) -> PartitionShape:
    """Inverse of decompose: rebuild the partition from a core and quotient."""
    _require_t(t)
    if len(quot) != t:
        raise ValueError(f"quotient must have exactly {t} components, got {len(quot)}")
    core_runners = _runners(core_shape, t).runners
    if any(not r.is_justified for r in core_runners):
        raise ValueError(f"{core_shape.parts} is not a {t}-core")
    positions = [r.offset for r in core_runners]
    shifted = tuple(
        abacus.shift(abacus.abacus_from_partition(q), -p)
        for q, p in zip(quot, positions)
    )
    return abacus.partition_from_abacus(
        abacus.merge_runners(abacus.TRunner(t, shifted))
    )
