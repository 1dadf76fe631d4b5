"""The routes that enumerate only what they count, against the full
enumerations they replaced, which live on here as references: the lattice
points of the ball's bounding box, one t^t residue loop per residue, and one
runner split and bit-by-bit merge per permutation.  The guards at the end
check that the work removed stays removed."""
import itertools
import math
from itertools import permutations

import pytest

from tcores import abacus, corequotient, oracles, verify
from tcores.corequotient import core, is_core, justification_vector
from tcores.counting import f_t
from tcores.partitions import enumerate_partitions


def lattice_by_box(t, max_n):
    # every solution of f_t = n <= max_n lies in the ball
    #   sum (p_i - (t-1-2i)/(2t))^2 = (2/t)(n + (t^2-1)/24),
    # so the box around it holds them all; the last coordinate is fixed
    radius = math.sqrt(2.0 * (max_n + (t * t - 1) / 24.0) / t) + 1e-9
    centers = [(t - 1 - 2 * i) / (2 * t) for i in range(t)]
    ranges = [range(math.ceil(c - radius), math.floor(c + radius) + 1) for c in centers]
    counts = [0] * (max_n + 1)
    for head in itertools.product(*ranges[:-1]):
        tail = -sum(head)
        if tail in ranges[-1] and (value := f_t(head + (tail,), t)) <= max_n:
            counts[value] += 1
    return tuple(counts)


def mod_count_by_residue(t, n_mod):
    # every residue tuple, kept when its sum is divisible by t and lifted to
    # a zero-sum integer vector through its last coordinate
    count = 0
    for q in itertools.product(range(t), repeat=t):
        s = sum(q)
        if s % t == 0 and f_t(q[:-1] + (q[-1] - s,), t) % t == n_mod:
            count += 1
    return count


def merge_by_bits(tr):
    t = tr.t
    lo = min((r.offset - 1) * t + i for i, r in enumerate(tr.runners))
    hi = max((r.offset + len(r.window)) * t + i for i, r in enumerate(tr.runners))
    return abacus.make_word([tr.bit(g) for g in range(lo, hi + 1)], lo)


def image_by_shifts(sigma, shape, t):
    # the shape is split for this sigma alone, and merged bit by bit
    tr = abacus.split_runners(abacus.abacus_from_partition(shape), t)
    positions = [abacus.justify(r)[1] for r in tr.runners]
    moved = tuple(abacus.shift(tr.runners[sigma[i]], positions[sigma[i]] - positions[i])
                  for i in range(t))
    return abacus.partition_from_abacus(merge_by_bits(abacus.TRunner(t, moved)))


SHAPES = [shape for n in range(13) for shape in enumerate_partitions(n)]


@pytest.mark.parametrize("t, max_n", [
    (t, max_n) for t in range(2, 7) for max_n in (0, 1, 2, 5, 13, 30, 60)
    if max_n < 60 or t <= 5])
def test_lattice_walk_counts_the_box(t, max_n):
    assert oracles.lattice_core_histogram(t, max_n) == lattice_by_box(t, max_n)


@pytest.mark.parametrize("t", range(2, 7))
def test_residue_histogram_counts_each_residue(t):
    assert oracles.mod_solution_counts(t) == tuple(
        mod_count_by_residue(t, r) for r in range(t))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_one_split_serves_every_sigma(t):
    sigmas = list(permutations(range(t)))
    for shape in SHAPES:
        assert list(oracles.images_via_shifts(shape, t, sigmas)) == [
            image_by_shifts(sigma, shape, t) for sigma in sigmas], shape.parts


@pytest.mark.parametrize("t", [2, 3, 4])
def test_sliced_merge_sets_every_bit(t):
    for shape in SHAPES:
        tr = abacus.split_runners(abacus.abacus_from_partition(shape), t)
        assert abacus.merge_runners(tr) == merge_by_bits(tr), shape.parts
        # and runners shifted apart, as the shift route leaves them
        moved = abacus.TRunner(t, tuple(abacus.shift(r, 2 * i - t)
                                        for i, r in enumerate(tr.runners)))
        assert abacus.merge_runners(moved) == merge_by_bits(moved), shape.parts


def test_positions_routes_make_no_divide(monkeypatch):
    divides = []
    real = corequotient._divide
    monkeypatch.setattr(corequotient, "_divide",
                        lambda shape, t: divides.append((shape, t)) or real(shape, t))
    for shape in SHAPES:
        for t in (2, 3, 5):
            is_core(shape, t)
            core(shape, t)
            justification_vector(shape, t)
    verify._cores.cache_clear()
    verify._cores(12, 3)
    assert divides == []


@pytest.mark.parametrize("t", range(2, 6))
def test_residue_histogram_evaluates_each_head_once(monkeypatch, t):
    calls = []
    monkeypatch.setattr(oracles, "f_t", lambda p, t: calls.append(p) or f_t(p, t))
    oracles.mod_solution_counts(t)
    assert len(calls) == t ** (t - 1)
