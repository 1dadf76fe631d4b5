"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not configurable.  A criterion that an
exhaustive verify case already decides reads that case from the shared
full-scale report (the `full_report` fixture) and pins its params, so a
lower cap in verify fails here instead of passing quietly.
"""
from tcores import counting, distribution, verify
from tcores.cli import run as cli_run


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}", flush=True)
    assert passed, f"criterion {number:02d} failed: {description}{suffix}"


def _holds_at(case: verify.CaseResult, params: dict) -> bool:
    return case.passed and case.params == params


def _describe(case: verify.CaseResult) -> str:
    return f"{case.name} {case.params}: {case.detail}"


def _named(report: verify.VerificationReport, name: str) -> verify.CaseResult:
    return next(case for case in report.cases if case.name == name)


def test_criterion_01_triple_oracle_core_counts(full_report):
    # the bound covers the whole suite, not only this case
    case = _named(full_report, "triple_oracle")
    elapsed = full_report.elapsed_ms / 1000
    passed = _holds_at(case, {"series_max_n": 60, "enum_max_n": 30}) and elapsed < 120.0
    _report(1, "series = lattice (n<=60) = enumeration (n<=30) core counts",
            passed, f"suite elapsed {elapsed:.1f}s; {_describe(case)}")


def test_criterion_02_core_census(full_report):
    case = _named(full_report, "core_sum_census")
    _report(2, "distinct-core census equals the running core sum (n<=30)",
            _holds_at(case, {"max_n": 30, "t": [2, 3, 4, 5]}), _describe(case))


def test_criterion_03_core_sum_leading_term_band():
    # band tightened from [0.9, 1.1] after first computation; observed
    # ratios stay within [0.9977, 1.0031] on this grid
    lo, hi = 0.98, 1.02
    failures = []
    ratios = []
    for t in (3, 4, 5):
        table = counting.core_sum_table(t, 5000)
        for n in range(2000, 5001, 500):
            ratio = table[n] / counting.core_sum_leading_term(t, n)
            ratios.append(ratio)
            if not lo <= ratio <= hi:
                failures.append(f"t={t}, n={n}: ratio {ratio:.5f}")
    _report(3, f"core-sum/leading-term ratios within [{lo}, {hi}]",
            not failures,
            f"range [{min(ratios):.5f}, {max(ratios):.5f}]"
            if not failures else "; ".join(failures))


def test_criterion_04_mod_t_solution_counts(full_report):
    case = _named(full_report, "mod_solution_counts")
    _report(4, "every residue class has exactly t^(t-2) solutions mod t",
            _holds_at(case, {"t": [2, 3, 4, 5]}), _describe(case))


def test_criterion_05_fixed_core_histograms(full_report):
    case = _named(full_report, "fixed_core_counts")
    failures = [] if _holds_at(case, {"max_n": 25, "t": [2, 3, 4, 5]}) else [_describe(case)]
    for t in (2, 3, 4, 5):
        for n in range(26):
            if distribution.core_size_pmf(t, n).total() != 1:
                failures.append(f"pmf not normalized at t={t}, n={n}")
    _report(5, "core-size histograms match c_t(i)*d_t(n-i) exactly (n<=25)",
            not failures, "; ".join(failures[:4]))


def test_criterion_06_distance_trend_figure_parameters(full_report):
    # the bound covers the whole suite, not only this case
    case = _named(full_report, "distance_trend")
    passed = (_holds_at(case, {"t": 5, "n": [20, 62, 103]})
              and full_report.elapsed_ms / 1000 < 60.0)
    _report(6, "sup distance to the gamma CDF strictly decreases at n=20,62,103",
            passed, _describe(case))


def test_criterion_07_expected_core_size(full_report):
    case = _named(full_report, "expectation_trend")
    _report(7, "mean 3-core size tracks (t-1)sqrt(6n)/(2pi)",
            _holds_at(case, {"t": 3, "n": [25, 50, 100]}), _describe(case))


def test_criterion_08_moment_convergence(full_report):
    case = _named(full_report, "moment_trend")
    _report(8, "scaled moments approach the gamma moments from n=100 to 1600",
            _holds_at(case, {"t": 3, "k": [1, 2, 3]}), _describe(case))


def test_criterion_09_residue_identities(full_report):
    case = _named(full_report, "residue_identities")
    _report(9, "hook-residue identities hold exactly (n<=22, t=2..6)",
            _holds_at(case, {"max_n": 22, "t": [2, 3, 4, 5, 6]}), _describe(case))


def test_criterion_10_residue_trend():
    # max_n = 30 drops n = 40 from the case, so it runs here at 40
    case = verify.check_residue_trend(40)
    _report(10, "max residue deviation decreases over n=10,20,40 and ends below 0.08",
            case.passed and case.params["n"] == [10, 20, 40], case.detail)


def test_criterion_11_structure_suite(full_report):
    pinned = {
        # orbit of (7,3,2) and smoothings, exactly as in the worked table
        "orbit_table": {"nu": [7, 3, 2], "t": 3},
        # injection: injective and residue-preserving
        "phi_injection": {"max_n": 18, "t": [2, 3, 4]},
        # spread bound (and the coverage bound beside it)
        "smoothing_bounds": {"max_n": 20, "t": [2, 3, 4, 5]},
        "small_hook_bound": {"max_n": 30},
        # nonzero residues equidistribute over orbits of 3-divisible partitions
        "orbit_equidistribution": {"max_size": 24, "t": 3},
    }
    cases = [(_named(full_report, name), params) for name, params in pinned.items()]
    failures = [_describe(case) for case, params in cases if not _holds_at(case, params)]
    _report(11, "orbit table, injection, bounds and equidistribution all hold",
            not failures, "; ".join(failures[:3]))


def test_criterion_12_sampler(full_report, tmp_path):
    cases = [
        # symbolic uniformity: ranks biject with partitions for n <= 10
        (_named(full_report, "unrank_bijection"), {"max_n": 10}),
        # empirical frequencies at n = 8, at five times the suite's samples
        (verify.check_sampler_frequencies(0, 20240817, 100000),
         {"n": 8, "samples": 100000, "seed": 20240817}),
    ]
    failures = [_describe(case) for case, params in cases if not _holds_at(case, params)]

    # byte-identical reruns under a fixed seed
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--n", "20", "--count", "100", "--seed", "7"]
    cli_run(args + ["--output", str(a)])
    cli_run(args + ["--output", str(b)])
    if a.read_bytes() != b.read_bytes():
        failures.append("rerun bytes differ")

    _report(12, "sampler is exactly uniform, accurate at n=8, and reproducible",
            not failures, "; ".join(failures) or cases[1][0].detail)
