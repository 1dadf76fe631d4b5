import re

import pytest
from hypothesis import given, settings, strategies as st

from partition_strategies import partitions
from tcores import (
    abacus, corequotient, counting, distribution, hookstats, oracles, sampling, verify)
from tcores.corequotient import (
    CoreQuotient,
    compose,
    core,
    decompose,
    is_core,
    quotient,
)
from tcores.counting import core_count_table
from tcores.oracles import (
    all_stripping_results,
    core_by_rim_stripping,
    hook_length,
    quotient_by_contents,
)
from tcores.partitions import (
    EMPTY,
    Cell,
    enumerate_partitions,
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


SAMPLER = sampling.build_sampler(10)
DENSE_ROWS = oracles.sampler_rows_dense(10)

# every integer argument of the public entry points: its name in a refusal,
# the least value it takes (None for no floor) and a call passing it a value
INTEGER_ARGUMENTS = {
    "core": ("t", 2, lambda t: core(RUNNING, t)),
    "is_core": ("t", 2, lambda t: is_core(RUNNING, t)),
    "quotient": ("t", 2, lambda t: quotient(RUNNING, t)),
    "justification_vector": ("t", 2, lambda t: corequotient.justification_vector(RUNNING, t)),
    "decompose": ("t", 2, lambda t: decompose(RUNNING, t)),
    "compose": ("t", 2, lambda t: compose(EMPTY, [EMPTY] * 3, t)),
    "core_count_table": ("t", 2, lambda t: core_count_table(t, 10)),
    "gamma_params": ("t", 2, distribution.gamma_params),
    "residue_census": ("t", 2, lambda t: hookstats.residue_census(RUNNING, t)),
    "enumerate_partitions": ("n", 0, lambda n: next(enumerate_partitions(n))),
    "hook_length_row": ("cell.row", 1, lambda r: hook_length(RUNNING, Cell(r, 1))),
    "hook_length_col": ("cell.col", 1, lambda c: hook_length(RUNNING, Cell(1, c))),
    "justified_word": ("offset", None, abacus.justified_word),
    "make_word": ("offset", None, lambda offset: abacus.make_word([0, 1], offset)),
    "shift": ("k", None, lambda k: abacus.shift(abacus.justified_word(0), k)),
    "partition_count_table": ("max_n", 0, counting.partition_count_table),
    "core_sum": ("n", 0, lambda n: counting.core_sum(3, n)),
    "f_t": ("each coordinate of p", None, lambda x: counting.f_t((0, x), 2)),
    "core_sum_leading_term": ("n", 0, lambda n: counting.core_sum_leading_term(3, n)),
    "asymptotic_estimates": ("n", 1, lambda n: counting.asymptotic_estimates(3, n)),
    "scaled_moment": (
        "k", 0, lambda k: distribution.scaled_moment(distribution.core_size_pmf(3, 9), k)),
    "core_size_pmf": ("n", 0, lambda n: distribution.core_size_pmf(3, n)),
    "expected_core_size": ("n", 1, lambda n: distribution.expected_core_size(3, n)),
    "expected_core_sizes": ("max_n", 1, lambda n: distribution.expected_core_sizes(3, n)),
    "small_hook_count": ("m", 0, lambda m: hookstats.small_hook_count(RUNNING, m)),
    "exact_residue_distribution": ("n", 1, lambda n: hookstats.exact_residue_distribution(3, n)),
    "sampled_residue_distribution_n": (
        "n", 1, lambda n: hookstats.sampled_residue_distribution(3, n, 5, 0)),
    "sampled_residue_distribution_samples": (
        "samples", 1, lambda samples: hookstats.sampled_residue_distribution(3, 5, samples, 0)),
    "sampled_residue_distribution_seed": (
        "seed", None, lambda seed: hookstats.sampled_residue_distribution(3, 5, 5, seed)),
    "b_smoothing": ("b", -1, lambda b: hookstats.b_smoothing(make_partition([7, 3, 2]), 3, b)),
    "act_on_partition": (
        "each entry of sigma", 0, lambda s: hookstats.act_on_partition((s, 0), RUNNING, 2)),
    "build_sampler": ("n", 0, sampling.build_sampler),
    "count_m": ("m", 0, lambda m: SAMPLER.count(m, 0)),
    "count_k": ("k", 0, lambda k: SAMPLER.count(0, k)),
    "unrank_partition": ("rank", 0, lambda rank: sampling.unrank_partition(SAMPLER, rank)),
    "hook_at_rank": ("rank", 0, lambda rank: sampling.hook_at(SAMPLER, rank, 0)),
    "hook_at_cell": ("cell", 0, lambda cell: sampling.hook_at(SAMPLER, 0, cell)),
    "index_draws_seed": ("seed", None, lambda seed: next(sampling.index_draws(seed, 2, 5))),
    "index_draws_count": ("count", 0, lambda count: next(sampling.index_draws(1, count, 2))),
    "index_draws_bounds": (
        "each entry of bounds", 1, lambda b: next(sampling.index_draws(1, 2, 2, b))),
    "tally_draws_seed": ("seed", None, lambda seed: sampling.tally_draws(seed, 2, int, 5)),
    "tally_draws_count": ("count", 0, lambda count: sampling.tally_draws(1, count, int, 2)),
    "tally_draws_bounds": (
        "each entry of bounds", 1, lambda b: sampling.tally_draws(1, 2, max, 2, b)),
    "sample_partition_seed": (
        "seed", None, lambda seed: sampling.sample_partition(SAMPLER, seed, 0)),
    "sample_partition": ("index", 0, lambda index: sampling.sample_partition(SAMPLER, 1, index)),
    "lattice_core_histogram": ("max_n", 0, lambda n: oracles.lattice_core_histogram(3, n)),
    "lattice_core_count": ("n", 0, lambda n: oracles.lattice_core_count(3, n)),
    "mod_solution_counts": ("t", 2, oracles.mod_solution_counts),
    "images_via_shifts": (
        "t", 2, lambda t: next(oracles.images_via_shifts(RUNNING, t, [(1, 0)]))),
    "ball_volume": ("n", 0, lambda n: oracles.ball_volume(3, n)),
    "c3_divisor_counts": ("max_n", 0, oracles.c3_divisor_counts),
    "quotient_by_contents": ("t", 2, lambda t: oracles.quotient_by_contents(RUNNING, t)),
    "all_stripping_results": ("t", 2, lambda t: oracles.all_stripping_results(RUNNING, t)),
    "partition_counts_by_products": ("max_n", 0, oracles.partition_counts_by_products),
    "core_counts_by_products": ("t", 2, lambda t: oracles.core_counts_by_products(t, 5)),
    "core_counts_by_products_max_n": (
        "max_n", 0, lambda n: oracles.core_counts_by_products(3, n)),
    "divisible_counts_by_products": ("t", 2, lambda t: oracles.divisible_counts_by_products(t, 5)),
    "divisible_counts_by_products_max_n": (
        "max_n", 0, lambda n: oracles.divisible_counts_by_products(3, n)),
    "core_sums_by_products": ("t", 2, lambda t: oracles.core_sums_by_products(t, 5)),
    "core_sums_by_products_max_n": ("max_n", 0, lambda n: oracles.core_sums_by_products(3, n)),
    "sigma_sums_by_divisors": ("t", 2, lambda t: oracles.sigma_sums_by_divisors(t, 5)),
    "sigma_sums_by_divisors_max_n": ("max_n", 0, lambda n: oracles.sigma_sums_by_divisors(3, n)),
    "sampler_rows_dense": ("n", 0, oracles.sampler_rows_dense),
    "unrank_by_bisection_n": ("n", 0, lambda n: oracles.unrank_by_bisection(DENSE_ROWS, n, 0)),
    "unrank_by_bisection_rank": (
        "rank", 0, lambda rank: oracles.unrank_by_bisection(DENSE_ROWS, 5, rank)),
    "sampled_residues_per_index": (
        "t", 2, lambda t: oracles.sampled_residues_per_index(t, 5, 5, 0)),
    "sampled_residues_per_index_n": (
        "n", 1, lambda n: oracles.sampled_residues_per_index(3, n, 5, 0)),
    "sampled_residues_per_index_samples": (
        "samples", 1, lambda samples: oracles.sampled_residues_per_index(3, 5, samples, 0)),
    "sampled_residues_per_index_seed": (
        "seed", None, lambda seed: oracles.sampled_residues_per_index(3, 5, 5, seed)),
    "residue_law_by_enumeration": ("t", 2, lambda t: oracles.residue_law_by_enumeration(t, 5)),
    "residue_law_by_enumeration_n": (
        "n", 1, lambda n: oracles.residue_law_by_enumeration(3, n)),
    "gamma_moment": ("k", 0, lambda k: distribution.gamma_moment(distribution.gamma_params(3), k)),
    "run_suite_max_n": ("max_n", 0, lambda n: verify.run_suite("partitions", max_n=n)),
    "run_suite_samples": (
        "samples", 1, lambda samples: verify.run_suite("partitions", max_n=3, samples=samples)),
    "run_suite_seed": (
        "seed", None, lambda seed: verify.run_suite("partitions", max_n=3, seed=seed)),
    "point_n": ("n", 0, lambda n: verify.point("arm_leg_hook", n)),
    "point_t": ("t", 2, lambda t: verify.point("action_properties", 3, t)),
}
T_ENTRIES = [name for name, (argument, _, _) in INTEGER_ARGUMENTS.items() if argument == "t"]


@pytest.mark.parametrize("entry", [INTEGER_ARGUMENTS[name][2] for name in T_ENTRIES],
                         ids=T_ENTRIES)
@pytest.mark.parametrize("bad_t", [2.0, 3.0, 2.5, "3", True, False, None, 1])
def test_a_non_integer_t_is_refused_naming_t(entry, bad_t):
    with pytest.raises(ValueError, match=rf"^t must be .*, got {re.escape(repr(bad_t))}$"):
        entry(bad_t)


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in INTEGER_ARGUMENTS if name not in T_ENTRIES
      for value in (2.5, 2.0, "3", None)),
    *((name, floor - 1) for name, (_, floor, _) in INTEGER_ARGUMENTS.items()
      if floor is not None and name not in T_ENTRIES),
])
def test_a_bad_integer_argument_is_refused_naming_it(name, value):
    argument, floor, entry = INTEGER_ARGUMENTS[name]
    refusal = f"at least {floor}" if isinstance(value, int) else "an integer"
    with pytest.raises(ValueError, match=rf"^{re.escape(argument)} must be {refusal}, "
                                         rf"got {re.escape(repr(value))}$"):
        entry(value)


# calls that once returned a wrong value or failed without naming the argument
@pytest.mark.parametrize("call, refusal", [
    (lambda: hookstats.b_smoothing(make_partition([7, 3, 2]), 3, 0.5),
     "b must be an integer, got 0.5"),
    (lambda: sampling.hook_at(sampling.build_sampler(10), 5, 2.5),
     "cell must be an integer, got 2.5"),
    (lambda: list(enumerate_partitions(3.0)), "n must be an integer, got 3.0"),
    (lambda: counting.core_sum_leading_term(4, -5), "n must be at least 0, got -5"),
    (lambda: abacus.shift(abacus.abacus_from_partition(make_partition([1, 1])), 1.5),
     "k must be an integer, got 1.5"),
    (lambda: counting.asymptotic_estimates(3, 10.5), "n must be an integer, got 10.5"),
    (lambda: counting.f_t((0.5, -0.5), 2), "each coordinate of p must be an integer, got 0.5"),
    (lambda: list(sampling.index_draws(1, 2, 2.5)),
     "each entry of bounds must be an integer, got 2.5"),
    (lambda: hookstats.act_on_partition((1.0, 0.0), RUNNING, 2),
     "each entry of sigma must be an integer, got 1.0"),
    (lambda: distribution.core_size_pmf(3, 2.5), "n must be an integer, got 2.5"),
    (lambda: sampling.build_sampler(2.0), "n must be an integer, got 2.0"),
    (lambda: hook_length(RUNNING, Cell(1.0, 1)), "cell.row must be an integer, got 1.0"),
    (lambda: oracles.divisible_counts_by_products(0, 5), "t must be at least 2, got 0"),
    (lambda: oracles.core_counts_by_products(0, 5), "t must be at least 2, got 0"),
    (lambda: oracles.partition_counts_by_products(-2), "max_n must be at least 0, got -2"),
    (lambda: distribution.gamma_moment(distribution.gamma_params(3), 1.5),
     "k must be an integer, got 1.5"),
    (lambda: distribution.gamma_moment(distribution.gamma_params(3), "2"),
     "k must be an integer, got '2'"),
], ids=["b_smoothing", "hook_at", "enumerate_partitions", "core_sum_leading_term", "shift",
        "asymptotic_estimates", "f_t", "index_draws", "act_on_partition", "core_size_pmf",
        "build_sampler", "hook_length", "divisible_counts_by_products",
        "core_counts_by_products", "partition_counts_by_products", "gamma_moment_float",
        "gamma_moment_str"])
def test_a_call_once_let_through_is_refused_naming_its_argument(call, refusal):
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        call()


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
    assert verify.point("division_bijection", n, t) is None


@pytest.mark.parametrize("n", range(16))
def test_core_properties_exhaustive(n):
    assert [verify.point("core_properties", n, t) for t in (2, 3, 4, 5)] == [None] * 4


@pytest.mark.parametrize("n", range(13))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_greedy_strip_matches_abacus(n, t):
    assert verify.point("greedy_strip_oracle", n, t) is None


@pytest.mark.parametrize("n", range(10))
@pytest.mark.parametrize("t", [2, 3])
def test_stripping_order_is_irrelevant(n, t):
    for shape in enumerate_partitions(n):
        assert all_stripping_results(shape, t) == {core(shape, t)}


@pytest.mark.parametrize("n", range(19))
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_fixed_core_size_counts(n, t):
    assert verify.point("fixed_core_counts", n, t) is None
