import math
import sys
import threading
from fractions import Fraction
from itertools import permutations

import pytest

from tcores import hookstats as hs, verify
from tcores.corequotient import core, decompose
from tcores.counting import SERIES_MAX_N
from tcores.oracles import (
    images_via_shifts,
    hook_length,
    residue_law_by_enumeration,
    sampled_residues_per_index,
)
from tcores.partitions import (
    EMPTY,
    Cell,
    enumerate_partitions,
    make_partition,
)

NU = make_partition([7, 3, 2])
ORBIT_TABLE = {
    "123": (7, 3, 2),
    "132": (7, 4, 1),
    "213": (8, 2, 2),
    "231": (8, 4),
    "312": (9, 2, 1),
    "321": (9, 3),
}


def test_census_worked_example():
    assert hs.residue_census(make_partition([6, 4, 3, 1]), 4) == (3, 5, 4, 2)
    assert hs.residue_census(make_partition([6, 4]), 4) == (2, 3, 3, 2)
    assert hs.residue_census(EMPTY, 3) == (0, 0, 0)


def test_census_total_is_size():
    shape = make_partition([5, 4, 4, 2, 1])
    for t in (2, 3, 4, 5):
        assert sum(hs.residue_census(shape, t)) == 16


def test_small_hook_count_examples():
    shape = make_partition([5, 4, 4, 2, 1])
    assert hs.small_hook_count(shape, 2) == 4
    assert hs.small_hook_count(shape, 0) == 0
    with pytest.raises(ValueError):
        hs.small_hook_count(shape, -1)


@pytest.mark.parametrize("n", range(1, 16))
def test_small_hook_bound(n):
    root = math.sqrt(2.0 * n)
    for shape in enumerate_partitions(n):
        for m in range(1, n + 1):
            assert hs.small_hook_count(shape, m) < m * root


def test_exact_distribution_hand_example():
    assert hs.exact_residue_distribution(2, 2) == (Fraction(1, 2), Fraction(1, 2))


def test_exact_distribution_normalized():
    for t, n in ((3, 9), (4, 11), (5, 7)):
        xs = hs.exact_residue_distribution(t, n)
        assert sum(xs) == 1


def test_exact_distribution_t3_n40():
    xs = hs.exact_residue_distribution(3, 40)
    assert sum(xs) == 1
    assert max(abs(x - Fraction(1, 3)) for x in xs) < Fraction(5, 100)


def test_exact_distribution_guards():
    with pytest.raises(ValueError, match="capped"):
        hs.exact_residue_distribution(3, SERIES_MAX_N + 1)
    with pytest.raises(ValueError):
        hs.exact_residue_distribution(3, 0)


@pytest.mark.parametrize("t", range(2, 8))
def test_exact_distribution_matches_enumeration_small_n(t):
    for n in range(1, 31):
        assert hs.exact_residue_distribution(t, n) == residue_law_by_enumeration(t, n)


@pytest.mark.parametrize("t, n", [(7, 40), (3, 40)])
def test_exact_distribution_matches_enumeration(t, n):
    assert hs.exact_residue_distribution(t, n) == residue_law_by_enumeration(t, n)


def test_sampled_distribution_matches_exact_oracle():
    exact = hs.exact_residue_distribution(3, 40)
    estimates, errors = hs.sampled_residue_distribution(3, 40, 20000, seed=2024)
    for est, err, truth in zip(estimates, errors, exact):
        assert abs(est - float(truth)) <= 3.0 * err


def test_sampled_distribution_rejects_empty_run():
    with pytest.raises(ValueError):
        hs.sampled_residue_distribution(3, 10, 0, seed=1)


def test_sampled_distribution_deterministic():
    a = hs.sampled_residue_distribution(4, 30, 500, seed=7)
    b = hs.sampled_residue_distribution(4, 30, 500, seed=7)
    assert a == b


@pytest.mark.parametrize("t, n, samples, seed",
                         [(3, 40, 2000, 2024), (7, 583, 500, 9), (2, 1, 50, 0)])
def test_sampled_distribution_matches_per_draw_generators(t, n, samples, seed):
    assert hs.sampled_residue_distribution(t, n, samples, seed) == \
        sampled_residues_per_index(t, n, samples, seed)


def test_threads_draw_the_sequential_estimates():
    # four threads on two cores, switching often, each drawing on its own
    # reseeded generator: a generator shared between them would shift draws
    plans = [(3, 40, 3000, 1), (5, 120, 2000, 2), (2, 1, 500, 3), (7, 300, 2000, 4)]
    expected = [hs.sampled_residue_distribution(*plan) for plan in plans]
    start = threading.Barrier(len(plans))
    served = [None] * len(plans)

    def work(i):
        start.wait()
        served[i] = hs.sampled_residue_distribution(*plans[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(plans))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert served == expected


def test_sampled_distribution_large_n_self_consistency():
    samples = 100000
    estimates, _ = hs.sampled_residue_distribution(5, 2000, samples, seed=31415)
    exact = hs.exact_residue_distribution(5, 2000)
    for est, truth in zip(estimates, map(float, exact)):
        assert abs(est - 0.2) < 0.05
        assert abs(est - truth) <= 6.0 * math.sqrt(truth * (1.0 - truth) / samples)


def test_action_on_divisible_orbit_table():
    for word, expected in ORBIT_TABLE.items():
        sigma = hs.permutation_from_word(word)
        assert hs.act_on_divisible(sigma, NU, 3).parts == expected


def test_action_identity_and_errors():
    assert hs.act_on_divisible((0, 1, 2), NU, 3) == NU
    with pytest.raises(ValueError, match="empty 3-core"):
        hs.act_on_divisible((0, 1, 2), make_partition([1]), 3)
    with pytest.raises(ValueError, match="permutation"):
        hs.act_on_divisible((0, 0, 2), NU, 3)
    with pytest.raises(ValueError, match="at least 2"):
        hs.act_on_divisible((0,), NU, 1)
    for n in range(10):
        for shape in enumerate_partitions(n):
            for t in (2, 3, 4):
                if core(shape, t) != EMPTY:
                    with pytest.raises(ValueError, match=f"empty {t}-core"):
                        hs.act_on_divisible(tuple(range(t)), shape, t)


def test_action_group_law_on_orbit():
    for sigma in permutations(range(3)):
        for tau in permutations(range(3)):
            combined = tuple(tau[s] for s in sigma)
            assert hs.act_on_divisible(combined, NU, 3) == hs.act_on_divisible(
                sigma, hs.act_on_divisible(tau, NU, 3), 3
            )


def test_permutation_from_word_validation():
    with pytest.raises(ValueError):
        hs.permutation_from_word("121")
    assert hs.permutation_from_word("123") == (0, 1, 2)


def test_action_on_partition_fixes_cores():
    rho = make_partition([2, 1, 1])  # a 3-core
    for sigma in permutations(range(3)):
        assert hs.act_on_partition(sigma, rho, 3) == rho


def test_action_on_partition_preserves_size_and_core():
    lam = make_partition([10, 3])
    images = set()
    sigmas = list(permutations(range(3)))
    for sigma, moved in zip(sigmas, images_via_shifts(lam, 3, sigmas)):
        image = hs.act_on_partition(sigma, lam, 3)
        assert image.size == 13
        assert core(image, 3) == make_partition([1])
        assert image == moved
        images.add(image)
    assert len(images) == 6


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("t", [2, 3])
def test_action_routes_agree_exhaustively(n, t):
    assert verify.point("action_properties", n, t) is None


def test_orbit_listing():
    orbit = hs.s_t_orbit(NU, 3)
    assert {o.parts for o in orbit} == set(ORBIT_TABLE.values())


def test_smoothing_worked_example():
    assert hs.b_smoothing(NU, 3, 0).parts == (7, 2)
    assert hs.b_smoothing(NU, 3, 1).parts == (4,)
    assert hs.b_smoothing(NU, 3, 2).parts == (2,)
    assert hs.b_smoothing(NU, 3, -1) == NU


def test_smoothing_invariant_on_orbit():
    # the action only moves bead pairs between runners, so for b >= 0 the
    # smoothing is one region on the whole orbit (b = -1 is the member itself);
    # every member is t-divisible, so its cells are read without the check
    for t in (2, 3, 4):
        for m in range(0, 16, t):
            for nu in enumerate_partitions(m):
                if core(nu, t) != EMPTY:
                    continue
                smoothings = [hs._smoothing_cells(nu, t, b) for b in range(m + 2)]
                for member in hs.s_t_orbit(nu, t):
                    assert [hs._smoothing_cells(member, t, b)
                            for b in range(m + 2)] == smoothings


def test_smoothing_rejects_bad_input():
    with pytest.raises(ValueError):
        hs.b_smoothing(make_partition([1]), 3, 0)
    with pytest.raises(ValueError):
        hs.b_smoothing(NU, 3, -2)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_smoothing_keeps_the_pairs_over_b_columns_apart(t):
    # cell (r, c) is the pair (beta - h, beta) with beta = nu_r - r; its span
    # is the number of runner columns between the two ends
    def span(nu, cell):
        beta = nu.parts[cell.row - 1] - cell.row
        return beta // t - (beta - hook_length(nu, cell)) // t

    for m in range(0, 16, t):
        for nu in enumerate_partitions(m):
            if core(nu, t) != EMPTY:
                continue
            spans = {cell: span(nu, cell) for cell in nu.cells()}
            for b in range(-1, m + 1):
                kept = set(hs.b_smoothing(nu, t, b).cells())
                assert kept == {cell for cell, span in spans.items() if span >= b + 1}


def test_smoothing_is_subpartition():
    for m in (6, 9, 12):
        for nu in enumerate_partitions(m):
            if core(nu, 3) != EMPTY:
                continue
            for b in range(-1, 6):
                cells = hs.b_smoothing(nu, 3, b)
                assert all(
                    cells.parts[i] <= nu.parts[i] for i in range(len(cells.parts))
                )


def test_canonical_smoothing_example():
    b, cells = hs.canonical_smoothing(make_partition([10, 3]), 3)
    assert b == 2
    assert cells.parts == (2,)


def test_canonical_smoothing_divisible_input():
    b, cells = hs.canonical_smoothing(NU, 3)
    assert b == 0
    assert cells == hs.b_smoothing(NU, 3, 0)


@pytest.mark.parametrize("n", range(15))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_canonical_smoothing_bound(n, t):
    assert verify.point("smoothing_bounds", n, t) is None


def test_phi_worked_example():
    lam = make_partition([10, 3])
    mapping = hs.phi_map(lam, 3)
    assert set(mapping) == {Cell(1, 1), Cell(1, 2)}
    hooks = sorted(hook_length(lam, mapping[c]) for c in mapping)
    assert hooks == [9, 11]
    nu = decompose(lam, 3).divisible
    for src, dst in mapping.items():
        assert hook_length(nu, src) % 3 == hook_length(lam, dst) % 3


def test_phi_empty_for_cores():
    assert hs.phi_map(make_partition([2, 1, 1]), 3) == {}


@pytest.mark.parametrize("n", range(12))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_phi_injective_residue_preserving(n, t):
    assert verify.point("phi_injection", n, t) is None


@pytest.mark.parametrize("n", range(15))
@pytest.mark.parametrize("t", [2, 3])
def test_coverage_bound_weak_form(n, t):
    assert verify.point("smoothing_bounds", n, t) is None


def test_coverage_bound_equality_case():
    # lambda = (3) with t = 3: nu = (3), C = (1), both sides equal 2
    lam = make_partition([3])
    dc = decompose(lam, 3)
    b, cells = hs.canonical_smoothing(lam, 3)
    assert dc.divisible == lam and b == 0 and cells.parts == (1,)
    assert dc.divisible.size - cells.size == hs.small_hook_count(lam, 3) == 2


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_residue_identities_exhaustive(n, t):
    assert verify.point("residue_identities", n, t) is None


def test_orbit_equidistribution_hand_check():
    # over the (7,3,2) orbit at b=2 the two smoothing cells contribute the
    # nonzero residues 1 and 2 three times each
    totals = [0, 0, 0]
    for member in hs.s_t_orbit(NU, 3):
        region = hs.b_smoothing(member, 3, 2)
        for cell in region.cells():
            totals[hook_length(member, cell) % 3] += 1
    assert totals[1] == totals[2] == 3
