"""The library verification suite: the full-scale report (the shared
`full_report` fixture) and the suite's error paths."""
import argparse
import functools

import pytest

from tcores import abacus, cli, corequotient, counting, hookstats, sampling, verify
from tcores.partitions import hook_lengths

CENSUS = hookstats.residue_census

# the params each case reports in the full report, in registration order: the
# exhaustive finite-n sweeps live only in verify, so these pin their scale,
# and a lowered cap or a case registered without a row here fails
FULL_SCALE = {
    "hook_multiset_conjugation": {"max_n": 30},
    "arm_leg_hook": {"max_n": 14},
    "rim_hook_removal": {"max_n": 14},
    "enumeration_count": {"max_n": 30},
    "abacus_pair_statistics": {"max_n": 25},
    "abacus_swap_rim_hook": {"max_n": 20, "t": [2, 3, 4, 5]},
    "abacus_roundtrip": {"max_n": 25},
    "core_properties": {"max_n": 25, "t": [2, 3, 4, 5, 6]},
    "fixed_core_counts": {"max_n": 25, "t": [2, 3, 4, 5]},
    "division_bijection": {"max_n": 22, "t": [2, 3, 4, 5]},
    "greedy_strip_oracle": {"max_n": 16, "t": [2, 3, 4, 5]},
    "triple_oracle": {"series_max_n": 60, "enum_max_n": 30},
    "core_sum_census": {"max_n": 30, "t": [2, 3, 4, 5]},
    "core_sum_difference": {"max_n": 200},
    "growth_ratio": {"t": [3, 4, 5], "N": [100, 400, 1600]},
    "justification_form": {"max_n": 30, "t": [2, 3, 4, 5]},
    "mod_solution_counts": {"t": [2, 3, 4, 5]},
    "c3_divisor_oracle": {"max_n": 200},
    "volume_identities": {"t": "2..8"},
    "pmf_exhaustive": {"max_n": 22, "t": [2, 3, 4, 5]},
    "gamma_function": {},
    "distance_trend": {"t": 5, "n": [20, 62, 103]},
    "expectation_trend": {"t": 3, "n": [25, 50, 100]},
    "moment_trend": {"t": 3, "k": [1, 2, 3]},
    "residue_identities": {"max_n": 22, "t": [2, 3, 4, 5, 6]},
    "orbit_table": {"nu": [7, 3, 2], "t": 3},
    "orbit_equidistribution": {"max_size": 24, "t": 3},
    "action_properties": {"max_n": 14, "t": [2, 3]},
    "smoothing_bounds": {"max_n": 20, "t": [2, 3, 4, 5]},
    "small_hook_bound": {"max_n": 30},
    "phi_injection": {"max_n": 18, "t": [2, 3, 4]},
    "residue_trend": {"t": 3, "n": [10, 20]},
    "sampler_table": {"max_n": 40},
    "unrank_bijection": {"max_n": 10},
    "sampler_frequencies": {"n": 8, "samples": 20000, "seed": 2024},
}


def test_all_suites_pass_at_full_scale(full_report):
    failing = [c for c in full_report.cases if not c.passed]
    assert not failing, "; ".join(f"{c.name}: {c.detail}" for c in failing)
    assert full_report.passed
    # each case reported once, at its pinned scale
    assert [(c.name, c.params) for c in full_report.cases] == list(FULL_SCALE.items())


def test_report_serializes():
    report = verify.run_suite("sampling", max_n=8, seed=5, samples=1000)
    payload = report.to_json()
    assert '"schema_version": 1' in payload
    assert '"suite": "sampling"' in payload


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nope")


def test_max_n_above_series_cap_is_refused_before_any_case(monkeypatch):
    ran = []

    def recording(max_n):
        ran.append(max_n)
        return verify._case("recording", {"max_n": max_n}, True)

    monkeypatch.setattr(verify, "_SUITES", {"recording": [recording]})
    with pytest.raises(ValueError, match=str(counting.SERIES_MAX_N)):
        verify.run_suite("all", max_n=counting.SERIES_MAX_N + 1)
    with pytest.raises(ValueError):
        verify.run_suite("recording", max_n=counting.SERIES_MAX_N + 1)
    for suite in ("all", "recording"):
        with pytest.raises(ValueError, match=r"^max_n must be at least 0, got -1$"):
            verify.run_suite(suite, max_n=-1)
        for samples in (0, -5):
            with pytest.raises(ValueError, match=rf"^samples must be at least 1, got {samples}$"):
                verify.run_suite(suite, max_n=3, samples=samples)
    assert ran == []
    assert verify.run_suite("recording", max_n=3).passed
    assert ran == [3]


def test_every_check_is_registered_once_in_definition_order():
    checks = [fn for name, fn in vars(verify).items() if name.startswith("check_")]
    assert [fn for fns in verify._SUITES.values() for fn in fns] == checks
    suites = ["partitions", "abacus", "corequotient", "counting", "distribution",
              "hookstats", "sampling", "all"]
    assert verify.suite_names() == suites
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    suite_flag = next(action for action in commands.choices["verify"]._actions
                      if action.dest == "suite")
    assert list(suite_flag.choices) == suites


def test_small_hook_bound_reports_a_failing_shape(monkeypatch):
    # every cell given hook 0: 2n hooks below m = 1 break n < m * sqrt(2n)
    monkeypatch.setattr(
        verify, "_hooks", lambda n: tuple((0,) * (2 * n) for _ in verify._shapes(n)))
    case = verify.check_small_hook_bound(5)
    assert not case.passed
    assert case.params == {"n": 1, "m": 1}
    assert case.detail == "bound fails at (1,)"


@pytest.mark.parametrize("name", ["arm_leg_hook", "rim_hook_removal", "abacus_pair_statistics"])
def test_a_hook_off_by_one_fails_each_case_that_reads_hooks_cell_by_cell(monkeypatch, name):
    # these cases judge the oracle scans and the bit-word against the
    # corpus's production hooks, so one slipped hook of (1,) must show
    hooks = verify._hooks

    def slipped(n):
        first, *rest = hooks(n)
        return ((first[0] + 1, *first[1:]), *rest)

    assert verify.point(name, 1) is None
    monkeypatch.setattr(verify, "_hooks", slipped)
    assert verify.point(name, 1) is not None


@pytest.mark.parametrize("name", ["smoothing_bounds", "phi_injection"])
def test_divisible_parts_serve_every_point_of_the_cases_that_read_them(name):
    _, cap, ts = verify._SWEEPS[name]
    for n in range(cap + 1):
        for t in range(ts[0], ts[-1] + 1):
            divisibles = verify._divisibles(n, t)
            assert divisibles == tuple(corequotient.decompose(shape, t).divisible
                                       for shape in verify._shapes(n))
            # each part is interned: the corpus's own shape, held once
            assert all(nu is verify._shapes(nu.size)[verify._index(nu.size)[nu]]
                       for nu in divisibles)


# one slip in a production route each, and the first row its case fails at
@pytest.mark.parametrize("check, module, route, slip, point, extra, detail", [
    (verify.check_residue_identities, hookstats, "residue_census",
     lambda shape, t: CENSUS(shape, t)[::-1], {"n": 1, "t": 2}, {}, "residue-0 count at (1,)"),
    (verify.check_fixed_core_counts, counting, "divisible_count_table",
     counting.core_count_table, {"n": 1, "t": 2}, {"i": 0}, "product formula mismatch"),
    (verify.check_small_hook_bound, hookstats, "small_hook_count",
     lambda shape, m: sum(h <= m for h in hook_lengths(shape)), {"n": 1}, {"m": 1},
     "small_hook_count differs at (1,)"),
], ids=["residue_census", "divisible_count_table", "small_hook_count"])
def test_a_slip_in_a_production_route_fails_its_case_and_its_point(
        monkeypatch, check, module, route, slip, point, extra, detail):
    monkeypatch.setattr(module, route, slip)
    case = check(5)
    assert (case.passed, case.params, case.detail) == (False, {**point, **extra}, detail)
    assert verify.point(case.name, *point.values()) == (extra, detail)


def test_point_refuses_an_unknown_case_and_a_point_off_its_scale():
    with pytest.raises(ValueError, match=r"^unknown sweep case 'triple_oracle'"):
        verify.point("triple_oracle", 3)
    with pytest.raises(ValueError, match=r"^n must be at most 14, got 15$"):
        verify.point("arm_leg_hook", 15)
    with pytest.raises(ValueError, match=r"^arm_leg_hook has no t list, got t=2$"):
        verify.point("arm_leg_hook", 3, 2)
    with pytest.raises(ValueError, match=r"^t must be at most 3, got 4$"):
        verify.point("action_properties", 3, 4)


@pytest.mark.parametrize("samples", [50, 1000])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 12345])
def test_sampler_frequencies_pass_a_uniform_sampler_at_few_samples(samples, seed):
    case = verify.check_sampler_frequencies(8, seed, samples)
    assert case.passed, case.detail
    assert case.params == {"n": 8, "samples": samples, "seed": seed}


@pytest.mark.parametrize("samples, every", [(20000, 10), (100000, 10), (100000, 100)])
def test_sampler_frequencies_fail_a_biased_sampler(monkeypatch, samples, every):
    # rank 0 for one index in `every`: at one in a hundred its share is off
    # by 0.0095, inside a fixed 0.01 bound
    draws = sampling._draws

    def biased(seed, index, bounds):
        return (0,) * len(bounds) if index % every == 0 else draws(seed, index, bounds)

    monkeypatch.setattr(sampling, "_draws", biased)
    case = verify.check_sampler_frequencies(8, 3, samples)
    assert not case.passed
    assert case.detail.startswith("max frequency deviation")


def test_sampler_frequencies_draw_each_sample_once(monkeypatch):
    draws, calls = sampling._draws, []

    def counted(seed, index, bounds):
        calls.append(index)
        return draws(seed, index, bounds)

    def refused(*args):
        raise AssertionError("sample_partition called")

    monkeypatch.setattr(sampling, "_draws", counted)
    monkeypatch.setattr(sampling, "sample_partition", refused)
    assert verify.check_sampler_frequencies(8, 9, 1000).passed
    assert calls == list(range(1000))


def test_division_bijection_catches_a_reversed_quotient(monkeypatch):
    # _assemble undoes the reversal, so every round trip still holds; only
    # the runner route sees the quotient's components out of order
    divide, assemble = corequotient._divide, corequotient._assemble

    def reversed_divide(shape, t):
        positions, quot = divide(shape, t)
        return positions, quot[::-1]

    monkeypatch.setattr(corequotient, "_divide", reversed_divide)
    monkeypatch.setattr(corequotient, "_assemble",
                        lambda positions, quot, t: assemble(positions, quot[::-1], t))
    case = verify.check_division_bijection(8)
    assert not case.passed
    assert case.detail.startswith("runner route differs at")


@pytest.mark.parametrize("n", [12, 14])
@pytest.mark.parametrize("t", [3, 5])
def test_corpus_assembles_each_distinct_core_once(monkeypatch, n, t):
    # the distinct cores of partitions of n number C_t(n)
    assemble, calls = corequotient._assemble, []
    monkeypatch.setattr(corequotient, "_assemble",
                        lambda *args: calls.append(args) or assemble(*args))
    verify._cores.cache_clear()
    cores = verify._cores(n, t)
    assert len(calls) == counting.core_sum(t, n) == len(set(cores))
    assert cores == tuple(corequotient.core(s, t) for s in verify._shapes(n))


def test_word_roundtrip_catches_a_shifted_word(monkeypatch):
    # a shifted word reads back the same partition and survives every round
    # trip; only the bead positions read off the parts see the shift
    build = abacus.abacus_from_partition
    monkeypatch.setattr(abacus, "abacus_from_partition",
                        lambda shape: abacus.shift(build(shape), 1))
    # words of its own: the shifted ones must not meet or stay in the shared corpus
    monkeypatch.setattr(verify, "_words", functools.cache(verify._words.__wrapped__))
    case = verify.check_word_roundtrip(8)
    assert not case.passed
    assert case.params == {"n": 1}
    assert case.detail == "bead positions differ at (1,)"


def test_core_sum_difference_stays_at_its_stated_scale():
    counting.clear_tables()
    case = verify.check_core_sum_difference(counting.SERIES_MAX_N)
    assert case.passed and case.params == {"max_n": 200}
    assert all(len(values) <= 201 for (kind, _), values in counting._SERIES.items()
               if kind in "cC")


def test_core_sum_difference_catches_a_fault_the_recurrence_hides():
    # one more 5-core of size 100 carried into every later C_5 on its
    # residue class: C(n) - C(n - 5) = c(n) still holds
    counting.clear_tables()
    counting.core_sum_table(5, 200)
    try:
        counting._SERIES[("c", 5)][100] += 1
        sums = counting._SERIES[("C", 5)]
        for n in range(100, len(sums), 5):
            sums[n] += 1
        case = verify.check_core_sum_difference(200)
    finally:
        counting.clear_tables()
    assert not case.passed
    assert case.params == {"t": 5}
    assert case.detail == "series vs product oracle mismatch"


@pytest.mark.parametrize("check, n", [
    *((verify.check_expectation_trend, n) for n in (25, 50, 100)),
    *((verify.check_residue_trend, n) for n in (10, 20, 40)),
])
def test_sigma_series_cross_routes_catch_one_changed_coefficient(check, n):
    # S_3(n) one too large: a trend cannot see it, the exact cross-route can
    counting.clear_tables()
    counting.sigma_sum_table(3, 100)
    try:
        counting._SERIES[("S", 3)][n] += 1
        case = check(40)
    finally:
        counting.clear_tables()
    assert not case.passed
    assert case.params == {"n": n}
    assert verify.check_expectation_trend(40).passed and verify.check_residue_trend(40).passed
