import math
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tcores import counting, distribution, oracles, verify
from tcores.corequotient import core
from tcores.partitions import enumerate_partitions

P_100 = 190569292
P_1000 = 24061467864032622473692149727991

ORACLE_N = 400
TABLES = {
    "p": lambda t, n: counting.partition_count_table(n),
    "c": counting.core_count_table,
    "d": counting.divisible_count_table,
    "C": counting.core_sum_table,
    "S": counting.sigma_sum_table,
}


@lru_cache(maxsize=None)
def dense_oracle(kind, t):
    """The kind's series through ORACLE_N from dense Euler-factor products."""
    if kind == "p":
        return oracles.partition_counts_by_products(ORACLE_N)
    build = {
        "c": oracles.core_counts_by_products,
        "d": oracles.divisible_counts_by_products,
        "C": oracles.core_sums_by_products,
        "S": oracles.sigma_sums_by_divisors,
    }[kind]
    return build(t, ORACLE_N)


def test_partition_table_basics():
    table = counting.partition_count_table(100)
    assert table[0] == 1
    assert table[4] == 5 and table[5] == 7
    assert table[100] == P_100
    assert table.kind == "p" and table.t is None and table.max_n == 100


def test_partition_counts_match_enumeration():
    assert [verify.point("enumeration_count", n) for n in range(19)] == [None] * 19


def test_two_partition_count_routes_agree():
    pentagonal = counting.partition_count_table(300)
    assert pentagonal.values == oracles.partition_counts_by_products(300)


def test_p_1000_known_value():
    assert counting.partition_count_table(1000)[1000] == P_1000
    assert oracles.partition_counts_by_products(1000)[1000] == P_1000


@pytest.mark.parametrize("kind", "pcdCS")
def test_every_table_rejects_negative_max_n(kind):
    with pytest.raises(ValueError):
        TABLES[kind](3, -1)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from("pcdCS"), st.integers(2, 11), st.integers(0, ORACLE_N)),
    min_size=1, max_size=8,
))
def test_grown_tables_match_dense_oracles(requests):
    # any order of requests, growing or shrinking, serves exact prefixes
    counting.clear_tables()
    for kind, t, max_n in requests:
        table = TABLES[kind](t, max_n)
        assert table.kind == kind and table.t == (None if kind == "p" else t)
        assert table.values == dense_oracle(kind, t)[:max_n + 1]


def test_sigma_sums_grow_as_prefixes_and_rebuild():
    counting.clear_tables()
    counting.sigma_sum_table(3, 300)
    grown = counting.sigma_sum_table(3, 700)
    counting.clear_tables()
    cold = counting.sigma_sum_table(3, 700)
    assert grown == cold and cold.kind == "S" and cold.t == 3
    assert cold.values[:ORACLE_N + 1] == dense_oracle("S", 3)
    assert counting.sigma_sum_table(3, 300).values == cold.values[:301]
    counting.clear_tables()
    assert not (counting._SERIES or counting._E_POWERS or counting._P_POWERS)
    assert counting.sigma_sum_table(3, 40).values == dense_oracle("S", 3)[:41]


def _race(work, plans):
    """work(plan) for each plan on its own thread, all released at once, on
    two cores and switching often: a lost or doubled append would shift
    every later coefficient.  Returns what each call returned."""
    start = threading.Barrier(len(plans))
    served = [None] * len(plans)

    def run(i, plan):
        start.wait()
        served[i] = work(plan)

    threads = [threading.Thread(target=run, args=item) for item in enumerate(plans)]
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
    return served


def test_threads_extend_one_store():
    counting.clear_tables()
    plans = [(40, 120, 260, ORACLE_N), (ORACLE_N, 399, 15, 333),
             (7, 300, 8, 350), (390, 1, 200, 399)]
    served = _race(lambda sizes: [counting.core_sum_table(7, n) for n in sizes], plans)
    expected = dense_oracle("C", 7)
    for sizes, tables in zip(plans, served):
        assert [table.max_n for table in tables] == list(sizes)
        for table in tables:
            assert table.values == expected[:len(table)]
    assert counting.core_sum_table(7, ORACLE_N).values == expected
    assert counting.core_count_table(7, ORACLE_N).values == dense_oracle("c", 7)


def test_threads_extend_one_store_of_means():
    cold = [distribution.expected_core_size(7, n) for n in range(1, ORACLE_N + 1)]
    counting.clear_tables()
    plans = [(40, 120, 260, ORACLE_N), (ORACLE_N, 399, 15, 333), (7, 300, 8, 350)]
    served = _race(lambda sizes: [distribution.expected_core_sizes(7, n) for n in sizes], plans)
    for sizes, means in zip(plans, served):
        assert [len(m) for m in means] == list(sizes)
        assert all(m == cold[:len(m)] for m in means)


def test_threads_across_t_extend_shared_powers():
    # c and d for four moduli at once all extend the one chain of E^j and of
    # P^j that every t reads
    counting.clear_tables()
    moduli = (3, 5, 7, 11)
    sizes = (60, 17, ORACLE_N, 250, 33, 399)
    served = _race(lambda t: [table(t, n) for n in sizes for table in (
        counting.core_count_table, counting.divisible_count_table)], moduli)
    for t, tables in zip(moduli, served):
        assert [table.max_n for table in tables] == [n for n in sizes for _ in "cd"]
        for table in tables:
            assert table.values == dense_oracle(table.kind, t)[:len(table)]


def test_each_power_is_held_once_across_t():
    counting.clear_tables()
    for t in range(2, 12):
        counting.core_count_table(t, ORACLE_N)
        counting.divisible_count_table(t, ORACLE_N)
    assert len(counting._E_POWERS) == len(counting._P_POWERS) == 11
    assert sorted(counting._SERIES) == [("c", t) for t in range(2, 12)]
    lengths = [len(power) for power in counting._E_POWERS + counting._P_POWERS]
    c5 = counting.core_count_table(5, ORACLE_N)
    d5 = counting.divisible_count_table(5, ORACLE_N)
    assert [len(power) for power in counting._E_POWERS + counting._P_POWERS] == lengths
    assert c5.values == dense_oracle("c", 5) and d5.values == dense_oracle("d", 5)


def test_warm_prefix_serves_build_no_pentagonal_terms(monkeypatch):
    counting.clear_tables()
    counting.partition_count_table(ORACLE_N)
    counting.core_count_table(7, ORACLE_N)
    counting.divisible_count_table(7, ORACLE_N)
    calls = []
    build = counting._pentagonal_terms
    monkeypatch.setattr(counting, "_pentagonal_terms",
                        lambda limit: calls.append(limit) or build(limit))
    for n in (ORACLE_N, 150, 0):
        assert counting.partition_count_table(n).values == dense_oracle("p", None)[:n + 1]
        assert counting.core_count_table(7, n).values == dense_oracle("c", 7)[:n + 1]
        assert counting.divisible_count_table(7, n).values == dense_oracle("d", 7)[:n + 1]
    assert calls == []


def test_core_table_small_values():
    c3 = counting.core_count_table(3, 8)
    assert c3.values == (1, 1, 2, 0, 2, 1, 2, 0, 1)
    assert counting.core_count_table(6, 0)[0] == 1


def test_core_table_rejects_small_t():
    with pytest.raises(ValueError):
        counting.core_count_table(1, 5)


def test_staircase_characterization_for_pairs():
    c2 = counting.core_count_table(2, 100)
    triangular = {k * (k - 1) // 2 for k in range(16)}
    for n in range(101):
        assert c2[n] == (1 if n in triangular else 0)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_core_table_matches_brute_force(t):
    # c_t(n) is the i = n term of the product formula
    assert [verify.point("fixed_core_counts", n, t) for n in range(17)] == [None] * 17


def test_divisible_table_values():
    d3 = counting.divisible_count_table(3, 12)
    assert d3.values == (1, 0, 0, 3, 0, 0, 9, 0, 0, 22, 0, 0, 51)
    for t in range(2, 7):
        table = counting.divisible_count_table(t, t)
        assert table[t] == t
        assert all(table[m] == 0 for m in range(1, t))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_divisible_table_matches_brute_force(t):
    # d_t(n) is the i = 0 term of the product formula
    assert [verify.point("fixed_core_counts", n, t) for n in range(13)] == [None] * 13


def test_core_sum_values():
    assert counting.core_sum(3, 3) == 1
    assert counting.core_sum(3, 4) == 3
    assert counting.core_sum(5, 0) == 1
    # distinct cores of partitions of 4 under t=3
    cores = {core(s, 3) for s in enumerate_partitions(4)}
    assert {c.parts for c in cores} == {(1,), (3, 1), (2, 1, 1)}


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_core_sum_difference_identity(t):
    c = counting.core_count_table(t, 120)
    big = counting.core_sum_table(t, 120)
    for n in range(121):
        assert c[n] == big[n] - (big[n - t] if n >= t else 0)
    assert big.values == tuple(
        sum(c[n - i * t] for i in range(n // t + 1)) for n in range(121)
    )


def test_quadratic_form_examples():
    assert counting.f_t((0, 0, 0, 0), 4) == 0
    assert counting.f_t((1, 0, -1), 3) == 1
    assert counting.f_t((1, 1, -2), 3) == 6


def test_quadratic_form_rejects_bad_input():
    with pytest.raises(ValueError):
        counting.f_t((1, 0, 0), 3)
    with pytest.raises(ValueError):
        counting.f_t((1, -1), 3)


@given(st.integers(2, 6), st.data())
def test_quadratic_form_nonnegative_integer(t, data):
    head = data.draw(
        st.lists(st.integers(-8, 8), min_size=t - 1, max_size=t - 1)
    )
    vec = tuple(head) + (-sum(head),)
    value = counting.f_t(vec, t)
    assert isinstance(value, int)
    assert value >= 0


def test_lattice_counts():
    assert oracles.lattice_core_count(5, 0) == 1
    assert oracles.lattice_core_count(3, 2) == 2
    table = counting.core_count_table(4, 30)
    assert oracles.lattice_core_histogram(4, 30) == table.values


def test_mod_solution_counts():
    assert oracles.mod_solution_counts(3) == (3, 3, 3)
    assert oracles.mod_solution_counts(2) == (1, 1)
    assert oracles.mod_solution_counts(5) == (125,) * 5


def test_covolume_and_volume():
    assert abs(oracles.lattice_covolume(4) - 2.0) < 1e-12
    for t in range(2, 9):
        assert abs(oracles.lattice_covolume(t) ** 2 - t) < 1e-12
    # one-dimensional ball: the closed form collapses to 2*sqrt(n + 1/8)
    assert abs(oracles.ball_volume(2, 10) - 2.0 * math.sqrt(10.125)) < 1e-12
    for t in (2, 3, 4, 5):
        lead = counting.core_sum_leading_term(t, 50)
        assert abs(lead - oracles.ball_volume(t, 50) / t**1.5) < 1e-12 * lead


def test_leading_term_tracks_core_sums():
    for t in (3, 4, 5):
        table = counting.core_sum_table(t, 1200)
        errs = [
            abs(table[n] / counting.core_sum_leading_term(t, n) - 1.0)
            for n in (300, 600, 1200)
        ]
        assert errs[-1] < 0.05


def test_c3_divisor_oracle():
    counts = oracles.c3_divisor_counts(200)
    assert counts[1] == 1   # divisors of 4: +1 -1 +1
    assert counts[3] == 0   # divisors of 10: +1 -1 -1 +1
    assert counts == counting.core_count_table(3, 200).values


def test_asymptotic_estimates():
    est = counting.asymptotic_estimates(3, 100)
    assert abs(est.partition_leading - P_100) / P_100 < 0.05
    assert est.divisible_leading is None  # 100 is not a multiple of 3
    assert counting.asymptotic_estimates(3, 99).divisible_leading is not None
    # the distinct-core leading term grows linearly at t=3
    lead = counting.core_sum_leading_term
    assert abs(lead(3, 4000) / lead(3, 2000) - 2.0) < 1e-3


def test_divisible_estimate_tracks_table():
    table = counting.divisible_count_table(3, 900)
    est = counting.asymptotic_estimates(3, 900).divisible_leading
    assert abs(est - table[900]) / table[900] < 0.10  # observed 0.056
