import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from partition_strategies import partitions
from tcores import corequotient
from tcores.corequotient import (
    CoreQuotient,
    compose,
    core,
    decompose,
    is_core,
    quotient,
)
from tcores.counting import core_count_table, divisible_count_table
from tcores.distribution import gamma_params
from tcores.hookstats import residue_census
from tcores.oracles import (
    all_stripping_results,
    core_by_rim_stripping,
    quotient_by_contents,
)
from tcores.partitions import (
    EMPTY,
    enumerate_partitions,
    hook_lengths,
    make_partition,
)

RUNNING = make_partition([5, 4, 4, 2, 1])


def test_core_running_examples():
    assert core(RUNNING, 3) == make_partition([2, 1, 1])
    assert core(RUNNING, 8) == RUNNING
    assert all(not is_core(RUNNING, t) for t in range(2, 8))
    assert core(EMPTY, 4) == EMPTY


def test_core_rejects_small_t():
    with pytest.raises(ValueError):
        core(RUNNING, 1)
    with pytest.raises(ValueError):
        quotient(RUNNING, 0)


def test_quotient_running_examples():
    assert quotient(RUNNING, 3) == (EMPTY, make_partition([1, 1, 1]), make_partition([1]))
    assert quotient(make_partition([2, 1, 1]), 3) == (EMPTY,) * 3
    q = quotient(make_partition([7, 3, 2]), 3)
    assert sum(part.size for part in q) == 4


@pytest.mark.parametrize("n", range(15))
@pytest.mark.parametrize("t", [2, 3, 4])
def test_quotient_matches_content_definition(n, t):
    for shape in enumerate_partitions(n):
        assert quotient(shape, t) == quotient_by_contents(shape, t)


def test_decompose_examples():
    dc = decompose(make_partition([10, 3]), 3)
    assert dc.core == make_partition([1])
    assert dc.divisible == make_partition([7, 3, 2])

    rho = make_partition([2, 1, 1])
    assert decompose(rho, 3) == CoreQuotient(3, rho, (EMPTY,) * 3, EMPTY)

    dc = decompose(RUNNING, 3)
    assert dc.core == make_partition([2, 1, 1])
    assert dc.divisible.size == 12
    assert dc.core.size + dc.divisible.size == RUNNING.size


def test_compose_examples():
    q = quotient(make_partition([7, 3, 2]), 3)
    assert compose(make_partition([1]), q, 3) == make_partition([10, 3])
    rho = make_partition([3, 1])
    assert compose(rho, (EMPTY,) * 3, 3) == rho


def test_compose_rejects_non_core():
    with pytest.raises(ValueError, match="not a 3-core"):
        compose(make_partition([3]), (EMPTY,) * 3, 3)
    with pytest.raises(ValueError, match="components"):
        compose(EMPTY, (EMPTY,) * 2, 3)


def test_compose_takes_a_list_quotient():
    q = quotient(make_partition([7, 3, 2]), 3)
    assert compose(make_partition([1]), list(q), 3) == make_partition([10, 3])
    assert compose(make_partition([3, 1]), [EMPTY] * 3, 3) == make_partition([3, 1])


# every public entry point, as a function of t alone
ENTRIES = [
    lambda t: core(RUNNING, t),
    lambda t: is_core(RUNNING, t),
    lambda t: quotient(RUNNING, t),
    lambda t: corequotient.justification_vector(RUNNING, t),
    lambda t: decompose(RUNNING, t),
    lambda t: compose(EMPTY, [EMPTY] * int(t), t),
]


@pytest.mark.parametrize("entry", [
    *ENTRIES,
    lambda t: core_count_table(t, 10),
    gamma_params,
    lambda t: residue_census(RUNNING, t),
], ids=["core", "is_core", "quotient", "justification_vector", "decompose", "compose",
        "core_count_table", "gamma_params", "residue_census"])
@pytest.mark.parametrize("bad_t", [2.0, 3.0, 2.5, "3", True, False])
def test_a_non_integer_t_is_refused_naming_t(entry, bad_t):
    with pytest.raises(ValueError, match=rf"^t must be .*, got {re.escape(repr(bad_t))}$"):
        entry(bad_t)


@given(partitions(max_n=24), st.integers(2, 5))
@settings(max_examples=150)
def test_division_round_trip(shape, t):
    dc = decompose(shape, t)
    assert dc.core.size + dc.divisible.size == shape.size
    assert dc.divisible.size == t * sum(q.size for q in dc.quotient)
    assert is_core(dc.core, t)
    assert core(dc.divisible, t) == EMPTY
    assert compose(dc.core, dc.quotient, t) == shape
    # the divisible part against routes that do not assemble it
    assert quotient(dc.divisible, t) == dc.quotient
    assert quotient_by_contents(dc.divisible, t) == quotient_by_contents(shape, t)
    assert core_by_rim_stripping(dc.divisible, t) == EMPTY


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_decompose_injective(n, t):
    images = {(dc.core, dc.divisible)
              for dc in (decompose(s, t) for s in enumerate_partitions(n))}
    assert len(images) == sum(1 for _ in enumerate_partitions(n))


@pytest.mark.parametrize("n", range(16))
def test_core_properties_exhaustive(n):
    for shape in enumerate_partitions(n):
        for t in (2, 3, 4, 5):
            rho = core(shape, t)
            assert core(rho, t) == rho
            assert rho.size % t == n % t
            assert is_core(shape, t) == all(h % t for h in hook_lengths(shape))


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_greedy_strip_matches_abacus(n, t):
    for shape in enumerate_partitions(n):
        assert core_by_rim_stripping(shape, t) == core(shape, t)


@pytest.mark.parametrize("n", range(10))
@pytest.mark.parametrize("t", [2, 3])
def test_stripping_order_is_irrelevant(n, t):
    for shape in enumerate_partitions(n):
        assert all_stripping_results(shape, t) == {core(shape, t)}


@pytest.mark.parametrize("n", range(19))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_fixed_core_size_counts(n, t):
    hist = Counter(core(s, t).size for s in enumerate_partitions(n))
    cores = core_count_table(t, n)
    divis = divisible_count_table(t, n)
    for i in range(n + 1):
        assert hist.get(i, 0) == divis[n - i] * cores[i]
