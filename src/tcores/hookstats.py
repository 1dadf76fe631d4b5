"""Hook-length residue statistics and the symmetric-group action behind them.

The census operations count hook lengths by residue class mod t.  The
permutation action relabels the t quotient components of a partition while
fixing its core; smoothings carve out the subdiagram whose abacus bead pairs
are far apart, which is exactly the part of the diagram whose hook residues
the action shuffles uniformly.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations
from operator import neg
from typing import Iterable, Iterator, Sequence

from . import counting, sampling
from .corequotient import _assemble, _beads, _divide
from .partitions import (
    Cell, PartitionShape, _require_int, _require_t, conjugate_parts, hook_lengths)

def _require_permutation(sigma: Sequence[int], t: int) -> tuple[int, ...]:
    sigma = tuple([_require_int(s, "each entry of sigma", 0, t - 1) for s in sigma])
    if sorted(sigma) != list(range(t)):
        raise ValueError(f"{sigma} is not a permutation of 0..{t-1}")
    return sigma


def _require_divisible(
    nu: PartitionShape, t: int
) -> tuple[tuple[int, ...], tuple[PartitionShape, ...]]:
    positions, quot = _divide(nu, t)  # the core is empty when every p_i is 0
    if any(positions):
        raise ValueError(f"{nu.parts} does not have empty {t}-core")
    return positions, quot


def residue_census(shape: PartitionShape, t: int) -> tuple[int, ...]:
    """Per-residue hook counts: entry i is the number of cells whose hook
    length is i mod t, so the entries sum to the size of the shape."""
    t = _require_t(t)
    counts = [0] * t
    for h in hook_lengths(shape):
        counts[h % t] += 1
    return tuple(counts)


def small_hook_count(shape: PartitionShape, m: int) -> int:
    """Number of cells with hook length strictly below m."""
    m = _require_int(m, "m", 0)
    return sum(1 for h in hook_lengths(shape) if h < m)


def exact_residue_distribution(t: int, n: int) -> tuple[Fraction, ...]:
    """Probability that a uniform cell of a uniform partition of n has hook
    length = i mod t, for each residue i.

    Exact rationals summing to 1, by the closed form of Bacher and Manivel
    ("Hooks and powers of parts in partitions", 2002): over all partitions
    of n, the cells with hook length k number k * sum_{j>=1} p(n - jk).
    The p table refuses n beyond counting.SERIES_MAX_N.
    """
    t = _require_t(t)
    n = _require_int(n, "n", 1)
    p = counting.partition_count_table(n).values
    totals = [0] * t
    for k in range(1, n + 1):
        totals[k % t] += k * sum(p[n - k::-k])
    denom = n * p[n]
    return tuple(Fraction(c, denom) for c in totals)


def sampled_residue_distribution(
    t: int, n: int, samples: int, seed: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Monte Carlo estimate of the hook-residue law with standard errors.

    Each sample draws one uniform partition and one uniform cell of it, so
    the estimates are multinomial proportions; the result depends only on
    (seed, samples), never on scheduling or the number of cores that share
    the draws (sampling.tally_draws).  A draw unranks the partition only
    down to the drawn cell's column (sampling.hook_at), not in full.
    """
    t = _require_t(t)
    n = _require_int(n, "n", 1)
    samples = _require_int(samples, "samples", 1)
    seed = _require_int(seed, "seed")
    table = sampling.build_sampler(n)
    counts = sampling.tally_draws(
        seed, samples, lambda rank, cell: sampling.hook_at(table, rank, cell) % t,
        table.total, n)
    estimates = tuple(counts.get(i, 0) / samples for i in range(t))
    errors = tuple(math.sqrt(p * (1.0 - p) / samples) for p in estimates)
    return estimates, errors


# ---------------------------------------------------------------------------
# the permutation action


def act_on_divisible(
    sigma: Sequence[int], nu: PartitionShape, t: int
) -> PartitionShape:
    """Permute the quotient components of a t-divisible partition.

    Component i of the image is component sigma[i] of the input; the size is
    preserved.
    """
    t = _require_t(t)
    sigma = _require_permutation(sigma, t)
    return next(_images(_require_divisible(nu, t), t, [sigma]))


def _images(
    divided: tuple[tuple[int, ...], tuple[PartitionShape, ...]], t: int,
    sigmas: Iterable[tuple[int, ...]],
) -> Iterator[PartitionShape]:
    # the caller's one division of a shape serves every sigma; its positions,
    # all 0 when the shape is t-divisible, keep its core in each image
    positions, q = divided
    for sigma in sigmas:
        yield _assemble(positions, tuple(q[s] for s in sigma), t)


def act_on_partition(
    sigma: Sequence[int], shape: PartitionShape, t: int
) -> PartitionShape:
    """Apply the action through the core/divisible decomposition.

    The core is untouched; the quotient components are permuted and the
    partition reassembled, so the size and the t-core are both preserved.
    """
    t = _require_t(t)
    sigma = _require_permutation(sigma, t)
    return next(_images(_divide(shape, t), t, [sigma]))


def permutation_from_word(word: str) -> tuple[int, ...]:
    """Translate a 1-indexed destination word into one-line notation.

    In a word like "231", quotient component i (1-indexed) is sent to slot
    word[i]; the returned 0-indexed tuple is the matching argument for the
    act_* functions, whose convention is that slot i receives component
    sigma[i].
    """
    digits = [int(ch) for ch in word]
    t = len(digits)
    if sorted(digits) != list(range(1, t + 1)):
        raise ValueError(f"{word!r} is not a word on 1..{t}")
    sigma = [0] * t
    for source, dest in enumerate(digits):
        sigma[dest - 1] = source
    return tuple(sigma)


def s_t_orbit(nu: PartitionShape, t: int) -> list[PartitionShape]:
    """Orbit of a t-divisible partition under all quotient permutations,
    sorted descending by parts for stable output."""
    orbit = set(_images(_require_divisible(nu, t), t, permutations(range(t))))
    return sorted(orbit, key=lambda s: s.parts, reverse=True)


# ---------------------------------------------------------------------------
# smoothings and the cell injection


def b_smoothing(nu: PartitionShape, t: int, b: int) -> PartitionShape:
    """Cells of the t-divisible nu whose (0,1) abacus pairs sit at least b+1
    runner columns apart, as a subpartition of nu; b = -1 returns nu itself."""
    t = _require_t(t)
    b = _require_int(b, "b", -1)
    _require_divisible(nu, t)
    return _smoothing_cells(nu, t, b)


def _smoothing_cells(nu: PartitionShape, t: int, b: int) -> PartitionShape:
    # nu must be t-divisible.  Row r pairs its bead beta with each gap below
    # it, one per cell; the pair is over b columns apart when the gap lies
    # below x = t * (beta // t - b), and x + #{beads >= x} gaps do
    beads = _beads(nu.parts)
    rows = []
    for width, beta in zip(nu.parts, beads):
        x = t * (beta // t - b)
        kept = min(width, x + bisect_right(beads, -x, key=neg))
        if kept <= 0:
            break  # the smoothing is a partition: no later row keeps a cell
        rows.append(kept)
    return PartitionShape(tuple(rows))


def _core_spread(
    shape: PartitionShape, t: int
) -> tuple[PartitionShape, tuple[int, ...], int]:
    # the divisible part, the positions (the core's too) and b, their spread
    positions, q = _divide(shape, t)
    return _assemble((0,) * t, q, t), positions, max(positions) - min(positions)


def canonical_smoothing(shape: PartitionShape, t: int) -> tuple[int, PartitionShape]:
    """Smoothing at the spread of the core's justification positions.

    Returns (b, cells) where b is the largest gap |p_i - p_j| over all index
    pairs of the core's justification vector (0 for a t-divisible input) and
    cells is the b-smoothing of the divisible part.
    """
    nu, _, b = _core_spread(shape, t)
    return b, _smoothing_cells(nu, t, b)


def phi_map(shape: PartitionShape, t: int) -> dict[Cell, Cell]:
    """Injective map from the canonical smoothing's cells into the partition
    preserving hook residues mod t.

    A cell of the smoothing is a bead pair of the divisible word; shifting
    each end by the justification position of its runner lands on a bead
    pair of the partition's own word, whose cell is returned.
    """
    nu, positions, b = _core_spread(shape, t)
    region = _smoothing_cells(nu, t, b)
    # cell (r, c) of nu is the pair (its c-th gap c - 1 - nu'_c, row r's
    # bead); each end moves to g + t * p_{g mod t}, and in the partition's
    # word bead j is row #{beads >= j} and gap i is column i + 1 + #{beads > i}
    gaps = [c - height for c, height in enumerate(conjugate_parts(nu.parts))]
    beads = _beads(shape.parts)
    out: dict[Cell, Cell] = {}
    for r, (width, bead) in enumerate(zip(region.parts, _beads(nu.parts)), start=1):
        j = bead + t * positions[bead % t]
        row = bisect_right(beads, -j, key=neg)
        for c, gap in enumerate(gaps[:width], start=1):
            i = gap + t * positions[gap % t]
            out[Cell(r, c)] = Cell(row, i + 1 + bisect_right(beads, -i - 1, key=neg))
    return out
