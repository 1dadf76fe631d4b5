import random
import sys
import threading
from collections import Counter
from functools import cache
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings, strategies as st

from tcores import sampling as sp
from tcores.counting import partition_count_table
from tcores.oracles import sampler_rows_dense, unrank_by_bisection
from tcores.partitions import EMPTY, enumerate_partitions, hook_length, make_partition

ORACLE_N = 600


@cache
def dense_rows() -> tuple[tuple[int, ...], ...]:
    return sampler_rows_dense(ORACLE_N)


@cache
def dense_counts() -> tuple[tuple[int, ...], ...]:
    """Row m of the dense oracle at k = 0..m + 1, the last one clamped."""
    return tuple(row + row[-1:] for row in dense_rows())


def assert_matches_dense(table: sp.SamplerTable) -> None:
    # every cell through both the stored quarter and Euler's identity, plus
    # the clamp
    n = table.n
    counts = tuple(tuple(table.count(m, k) for k in range(m + 2)) for m in range(n + 1))
    assert counts == dense_counts()[:n + 1]
    assert table.sums == tuple(accumulate(partition_count_table(n).values, initial=0))
    assert table.total == dense_rows()[n][-1]


def test_table_values():
    table = sp.build_sampler(4)
    assert table.count(4, 4) == 5
    assert table.count(0, 0) == 1
    assert table.count(3, 1) == 1
    assert table.count(4, 2) == 3  # (2,2), (2,1,1), (1,1,1,1)


def test_table_recurrence():
    table = sp.build_sampler(30)
    for m in range(1, 31):
        for k in range(1, m + 1):
            assert table.count(m, k) == table.count(m - k, k) + table.count(m, k - 1)
        assert table.count(m, 0) == 0
    assert table.count(0, 5) == 1


@pytest.mark.parametrize("m, k", [(10, -1), (4, -5), (-1, 3), (11, 3), (11, 11)])
def test_count_refuses_cells_off_the_table(m, k):
    table = sp.build_sampler(10)
    with pytest.raises(ValueError, match=r"^[mk] must be at (least 0|most 10), got -?\d+$"):
        table.count(m, k)


def test_table_matches_partition_counts():
    table = sp.build_sampler(100)
    counts = partition_count_table(100)
    for m in range(101):
        assert table.count(m, m) == counts[m]


@pytest.mark.parametrize("n", range(11))
def test_unrank_is_a_bijection(n):
    table = sp.build_sampler(n)
    images = [sp.unrank_partition(table, r) for r in range(table.total)]
    assert len(set(images)) == table.total
    assert set(images) == set(enumerate_partitions(n))


def test_unrank_range_check():
    table = sp.build_sampler(6)
    with pytest.raises(ValueError):
        sp.unrank_partition(table, table.total)
    with pytest.raises(ValueError):
        sp.unrank_partition(table, -1)


def test_sample_n1_always_trivial():
    table = sp.build_sampler(1)
    assert all(
        sp.sample_partition(table, seed, i) == make_partition([1])
        for seed in (0, 9, 123456789)
        for i in range(5)
    )


def test_sample_n0():
    table = sp.build_sampler(0)
    assert sp.sample_partition(table, 5, 0) == EMPTY


def test_mix64_golden_values():
    # frozen outputs of the documented SplitMix64 scheme
    assert sp._mix64(0, 0) == 16294208416658607535
    assert sp._mix64(12345, 6789) == 2227899620204120553


@given(st.integers(0, 2**64 - 1), st.integers(0, 10**6))
@settings(max_examples=200)
def test_sample_is_pure_function_of_seed_and_index(seed, index):
    table = sp.build_sampler(12)
    a = sp.sample_partition(table, seed, index)
    b = sp.sample_partition(table, seed, index)
    assert a == b and a.size == 12
    reference = random.Random(sp._mix64(seed, index)).randrange(table.total)
    assert a == sp.unrank_partition(table, reference)


def test_samples_independent_of_visit_order():
    table = sp.build_sampler(9)
    forward = [sp.sample_partition(table, 77, i) for i in range(50)]
    backward = [sp.sample_partition(table, 77, i) for i in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_empirical_uniformity_n8():
    table = sp.build_sampler(8)
    samples = 20000
    counts = Counter(sp.sample_partition(table, 4242, i) for i in range(samples))
    assert set(counts) <= set(enumerate_partitions(8))
    for shape in enumerate_partitions(8):
        assert abs(counts[shape] / samples - 1.0 / 22.0) < 0.01


def test_build_sampler_rejects_negative():
    with pytest.raises(ValueError):
        sp.build_sampler(-1)


def test_rows_hold_only_the_first_quarter():
    # the layout behind the table's memory, counted in entries, not bytes
    table = sp.build_sampler(ORACLE_N)
    assert [len(row) for row in table.rows] == [m // 4 + 1 for m in range(ORACLE_N + 1)]


def test_build_sampler_refuses_above_budget_without_building():
    sp.clear_tables()
    sp.build_sampler(5)
    with pytest.raises(ValueError, match=str(sp.SAMPLER_MAX_N)):
        sp.build_sampler(sp.SAMPLER_MAX_N + 1)
    assert len(sp._ROWS) == 6 and len(sp._SUMS) == 7


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=8))
def test_grown_rows_match_dense_oracle(sizes):
    # any order of requests, growing or shrinking, serves exact prefixes
    sp.clear_tables()
    for n in sizes:
        table = sp.build_sampler(n)
        assert table.n == n
        assert_matches_dense(table)


@pytest.mark.parametrize("n", range(31))
def test_unrank_matches_bisection_oracle_at_every_rank(n):
    table = sp.build_sampler(n)
    rows = dense_rows()
    for rank in range(table.total):
        assert sp.unrank_partition(table, rank).parts == unrank_by_bisection(rows, n, rank)


def test_unrank_matches_bisection_oracle_at_large_n():
    table = sp.build_sampler(ORACLE_N)
    rows = dense_rows()
    rng = random.Random(600)
    for _ in range(2000):
        rank = rng.randrange(table.total)
        assert sp.unrank_partition(table, rank).parts == unrank_by_bisection(rows, ORACLE_N, rank)


# every rank whose first part exceeds n/2, where unranking leaves the stored
# quarter row and Euler's identity keeps only its terms i <= 1
@pytest.mark.parametrize("n", range(61))
def test_unrank_matches_bisection_oracle_above_half_row(n):
    table = sp.build_sampler(n)
    rows = dense_rows()
    for rank in range(table.count(n, n // 2), table.total):
        assert sp.unrank_partition(table, rank).parts == unrank_by_bisection(rows, n, rank)


def test_unrank_matches_bisection_oracle_around_half_row_at_large_n():
    # the ranks whose first part is near n/2 or near n/4, where the stored
    # quarter row ends, and the largest ranks
    rows = dense_rows()
    for n in (*range(61, 81), ORACLE_N):
        table = sp.build_sampler(n)
        ranks = [rank for k in (n // 2, n // 4)
                 for rank in range(table.count(n, k) - 200, table.count(n, k) + 200)]
        ranks += range(table.total - 200, table.total)
        for rank in ranks:
            assert sp.unrank_partition(table, rank).parts == unrank_by_bisection(rows, n, rank)


@pytest.mark.parametrize("n", range(23))
def test_hook_at_matches_the_full_unrank_at_every_rank_and_cell(n):
    table = sp.build_sampler(n)
    for rank in range(table.total):
        shape = sp.unrank_partition(table, rank)
        hooks = [hook_length(shape, cell) for cell in shape.cells()]
        assert [sp.hook_at(table, rank, cell) for cell in range(n)] == hooks


def assert_hook_at_matches_unrank(table, rank, cell):
    shape = sp.unrank_partition(table, rank)
    row_major = next(islice(shape.cells(), cell, None))
    assert sp.hook_at(table, rank, cell) == hook_length(shape, row_major)


@pytest.mark.parametrize("rank_at, cell_at", [(0, 0), (0, -1), (-1, 0), (-1, -1)])
def test_hook_at_matches_the_full_unrank_at_the_extremes(rank_at, cell_at):
    # rank 0 is all ones and rank p(n) - 1 the single part n
    table = sp.build_sampler(583)
    assert_hook_at_matches_unrank(table, range(table.total)[rank_at], range(583)[cell_at])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_hook_at_matches_the_full_unrank_at_large_n(data):
    table = sp.build_sampler(583)
    rank = data.draw(st.integers(0, table.total - 1), label="rank")
    cell = data.draw(st.integers(0, 582), label="cell")
    assert_hook_at_matches_unrank(table, rank, cell)


def test_hook_at_refuses_ranks_and_cells_off_the_table():
    table = sp.build_sampler(6)
    refused = rf"^rank must be at (least 0|most {table.total - 1}), got -?\d+$"
    for rank, cell in [(table.total, 0), (-1, 0)]:
        with pytest.raises(ValueError, match=refused):
            sp.hook_at(table, rank, cell)
    for rank, cell in [(0, 6), (0, -1)]:
        with pytest.raises(ValueError, match=r"^cell must be at (least 0|most 5), got -?\d+$"):
            sp.hook_at(table, rank, cell)
    with pytest.raises(ValueError, match=r"^cell must be at most -1, got 0$"):
        sp.hook_at(sp.build_sampler(0), 0, 0)


def fresh_draws(seed, count, bounds):
    """The reference: a new random.Random per index."""
    draws = []
    for index in range(count):
        rng = random.Random(sp._mix64(seed, index))
        draws.append(tuple(rng.randrange(bound) for bound in bounds))
    return draws


# randrange draws bit_length(b) bits and rejects values >= b: half of them at
# b = 1 and b = 2^k, almost half at 2^k + 1, almost none at 2^k - 1;
# p(SAMPLER_MAX_N) is the largest rank the sampler draws
DRAW_BOUNDS = (1, 2, 3, 7, 8, 9, 255, 256, 257, 2**32 - 1, 2**32, 2**32 + 1,
               2**64 + 1, partition_count_table(sp.SAMPLER_MAX_N)[sp.SAMPLER_MAX_N])


@given(st.integers(0, 2**64 - 1), st.lists(st.sampled_from(DRAW_BOUNDS), max_size=4))
@settings(max_examples=150)
def test_index_draws_match_fresh_generators(seed, bounds):
    assert list(sp.index_draws(seed, 12, *bounds)) == fresh_draws(seed, 12, bounds)


def test_listed_stream_holds_values():
    listed = list(sp.index_draws(11, 3, 10**40, 7))
    assert listed == fresh_draws(11, 3, (10**40, 7))
    assert list(sp.index_draws(3, 0, 5)) == []


@pytest.mark.parametrize("bounds", [(0,), (5, -1)])
def test_index_draws_refuse_empty_ranges(bounds):
    with pytest.raises(ValueError, match=r"^each entry of bounds must be at least 1, got -?\d+$"):
        next(sp.index_draws(3, 5, *bounds))


def test_interleaved_streams_draw_as_each_alone():
    # one thread's generator serves both streams and the calls between them
    bounds = (1000, 22, 1)
    first, second = list(sp.index_draws(5, 40, *bounds)), list(sp.index_draws(6, 40, *bounds))
    table = sp.build_sampler(9)
    woven = []
    for pair in zip(sp.index_draws(5, 40, *bounds), sp.index_draws(6, 40, *bounds)):
        sp.sample_partition(table, 7, len(woven))
        woven.append(pair)
    assert woven == list(zip(first, second))
    assert (first, second) == (fresh_draws(5, 40, bounds), fresh_draws(6, 40, bounds))


def test_threads_extend_one_store():
    # four threads on two cores, switching often: a lost or doubled row would
    # shift every later row
    sp.clear_tables()
    plans = [(40, 120, 260, 400), (400, 399, 15, 333),
             (7, 300, 8, 350), (390, 1, 200, 399)]
    start = threading.Barrier(len(plans))
    served = [[] for _ in plans]

    def work(sizes, out):
        start.wait()
        for n in sizes:
            out.append(sp.build_sampler(n))

    threads = [threading.Thread(target=work, args=(sizes, out))
               for sizes, out in zip(plans, served)]
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
    for sizes, tables in zip(plans, served):
        assert [table.n for table in tables] == list(sizes)
        for table in tables:
            assert_matches_dense(table)
    assert len(sp._ROWS) == 401 and len(sp._SUMS) == 402
