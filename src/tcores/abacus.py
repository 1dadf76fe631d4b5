"""Abacus (bead) encodings of partition boundaries.

An abacus word is a bit function on the integers that is 1 far to the left
and 0 far to the right.  Reading 1 as a vertical step and 0 as a horizontal
step traces the outer boundary of a partition.  Words are stored in a
canonical finite window so that equal functions compare equal structurally:
the window starts at the first position after the all-ones tail and ends at
the last position before the all-zeros tail.  A justified word (all ones then
all zeros) has an empty window whose offset records the justification
position.

Positions of the t-runner decomposition follow the convention that position
n on runner i corresponds to global position n*t + i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .partitions import EMPTY, PartitionShape, _require_int, _require_t

@dataclass(frozen=True)
class AbacusWord:
    """Canonical eventually-constant bit word; build with make_word."""

    window: tuple[int, ...]
    offset: int

    def __post_init__(self):
        object.__setattr__(self, "offset", _require_int(self.offset, "offset"))
        if self.window:
            if self.window[0] != 0 or self.window[-1] != 1:
                raise ValueError(
                    "window is not canonical: must start with 0 and end with 1"
                )
            if any(b not in (0, 1) for b in self.window):
                raise ValueError("window bits must be 0 or 1")

    def bit(self, i: int) -> int:
        """Value of the word at position i."""
        if i < self.offset:
            return 1
        if i >= self.offset + len(self.window):
            return 0
        return self.window[i - self.offset]

    @property
    def is_justified(self) -> bool:
        return not self.window


@dataclass(frozen=True)
class TRunner:
    """t parallel 1-runner words; runner i holds positions congruent to i mod t."""

    t: int
    runners: tuple[AbacusWord, ...]

    def __post_init__(self):
        _require_t(self.t)
        if len(self.runners) != self.t:
            raise ValueError(f"expected {self.t} runners, got {len(self.runners)}")

    def bit(self, i: int) -> int:
        """Bit of the merged word at global position i."""
        return self.runners[i % self.t].bit(i // self.t)


def make_word(bits: Sequence[int], offset: int) -> AbacusWord:
    """Canonicalize a finite window (bits starting at the given position)."""
    bits = list(bits)
    lo, hi = 0, len(bits)
    while lo < hi and bits[lo] == 1:
        lo += 1
    while hi > lo and bits[hi - 1] == 0:
        hi -= 1
    return AbacusWord(tuple(bits[lo:hi]), offset + lo)


def justified_word(p: int) -> AbacusWord:
    """The word with 1 at every position below p and 0 from p on."""
    return AbacusWord((), p)


def abacus_from_partition(shape: PartitionShape) -> AbacusWord:
    """The balanced abacus of a partition (1s exactly at parts[j] - (j+1))."""
    parts = shape.parts
    rows = len(parts)
    if rows == 0:
        return justified_word(0)
    beads = {parts[j] - (j + 1) for j in range(rows)}
    lo, hi = -rows, parts[0] - 1
    bits = [1 if i in beads else 0 for i in range(lo, hi + 1)]
    return make_word(bits, lo)


def partition_from_abacus(word: AbacusWord) -> PartitionShape:
    """Read the partition traced by the word; shifts of the word agree."""
    parts = []
    zeros_below = 0
    for b in word.window:
        if b == 0:
            zeros_below += 1
        elif zeros_below:
            parts.append(zeros_below)
    parts.reverse()
    return PartitionShape(tuple(parts)) if parts else EMPTY


def shift(word: AbacusWord, k: int) -> AbacusWord:
    """k-fold left shift: bit i of the result is bit i + k of the input."""
    return AbacusWord(word.window, word.offset - k)


def inversion_pairs(word: AbacusWord) -> list[tuple[int, int]]:
    """All (i, j) with i < j, bit i = 0 and bit j = 1.

    These pairs are in bijection with the cells of the partition; j - i is
    the hook length of the corresponding cell.
    """
    zeros: list[int] = []
    out = []
    for k, b in enumerate(word.window):
        if b == 0:
            zeros.append(word.offset + k)
        else:
            j = word.offset + k
            out.extend((i, j) for i in zeros)
    return out


def justify(word: AbacusWord) -> tuple[AbacusWord, int]:
    """Slide all 1s left past the 0s; return the result and its position."""
    p = word.offset + sum(word.window)
    return justified_word(p), p


def split_runners(word: AbacusWord, t: int) -> TRunner:
    """Extract the t position classes mod t as 1-runner words."""
    t = _require_t(t)
    runners = []
    for i in range(t):
        n_lo = -((i - word.offset) // t)  # ceil((offset - i) / t)
        # runner position n_lo is the first of class i inside the window
        runners.append(make_word(word.window[n_lo * t + i - word.offset::t], n_lo))
    return TRunner(t, tuple(runners))


def merge_runners(tr: TRunner) -> AbacusWord:
    """Exact inverse of split_runners."""
    t = tr.t
    lo = min((r.offset - 1) * t + i for i, r in enumerate(tr.runners))
    hi = max((r.offset + len(r.window)) * t + i for i, r in enumerate(tr.runners))
    bits = [tr.bit(g) for g in range(lo, hi + 1)]
    return make_word(bits, lo)
