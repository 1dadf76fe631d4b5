"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not configurable.
"""
import math
import time
from collections import Counter
from itertools import permutations

from tcores import counting, distribution, hookstats, sampling, verify
from tcores.cli import run as cli_run
from tcores.corequotient import core, decompose, is_core
from tcores.partitions import (
    EMPTY,
    enumerate_partitions,
    hook_length,
    hook_lengths,
    make_partition,
)


def _report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}: {description}{suffix}", flush=True)
    assert passed, f"criterion {number:02d} failed: {description}{suffix}"


def test_criterion_01_triple_oracle_core_counts():
    start = time.perf_counter()
    failures = []
    for t in (2, 3, 4, 5, 6):
        table = counting.core_count_table(t, 60)
        if counting.lattice_core_histogram(t, 60) != table.values:
            failures.append(f"lattice mismatch at t={t}")
    for n in range(31):
        hook_sets = [hook_lengths(s) for s in enumerate_partitions(n)]
        for t in (2, 3, 4, 5, 6):
            brute = sum(
                1 for hooks in hook_sets if not any(h % t == 0 for h in hooks)
            )
            if brute != counting.core_count_table(t, 60)[n]:
                failures.append(f"enumeration mismatch at t={t}, n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 minutes")
    _report(1, "series = lattice (n<=60) = enumeration (n<=30) core counts",
            not failures, f"elapsed {elapsed:.1f}s" if not failures else "; ".join(failures))


def test_criterion_02_core_census():
    failures = []
    for t in (2, 3, 4, 5):
        table = counting.core_sum_table(t, 30)
        for n in range(31):
            distinct = {core(s, t) for s in enumerate_partitions(n)}
            if len(distinct) != table[n]:
                failures.append(f"t={t}, n={n}")
    _report(2, "distinct-core census equals the running core sum (n<=30)",
            not failures, "; ".join(failures))


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


def test_criterion_04_mod_t_solution_counts():
    failures = []
    for t in (2, 3, 4, 5):
        for residue in range(t):
            if counting.mod_solution_count(t, residue) != t ** (t - 2):
                failures.append(f"t={t}, residue={residue}")
    _report(4, "every residue class has exactly t^(t-2) solutions mod t",
            not failures, "; ".join(failures))


def test_criterion_05_fixed_core_histograms():
    failures = []
    for t in (2, 3, 4, 5):
        cores = counting.core_count_table(t, 25)
        divis = counting.divisible_count_table(t, 25)
        for n in range(26):
            hist = Counter(core(s, t).size for s in enumerate_partitions(n))
            for i in range(n + 1):
                if hist.get(i, 0) != cores[i] * divis[n - i]:
                    failures.append(f"t={t}, n={n}, i={i}")
            pmf = distribution.core_size_pmf(t, n)
            if pmf.total() != 1:
                failures.append(f"pmf not normalized at t={t}, n={n}")
    _report(5, "core-size histograms match c_t(i)*d_t(n-i) exactly (n<=25)",
            not failures, "; ".join(failures[:4]))


def test_criterion_06_distance_trend_figure_parameters():
    start = time.perf_counter()
    params = distribution.gamma_params(5)
    distances = [
        distribution.cdf_sup_distance(distribution.core_size_pmf(5, n), params)
        for n in (20, 62, 103)
    ]
    elapsed = time.perf_counter() - start
    passed = distances[0] > distances[1] > distances[2] and elapsed < 60.0
    _report(6, "sup distance to the gamma CDF strictly decreases at n=20,62,103",
            passed, "distances " + ", ".join(f"{d:.6f}" for d in distances))


def test_criterion_07_expected_core_size():
    exact, asym = distribution.expected_core_size(3, 100)
    rel = abs(float(exact) - asym) / asym
    ratios = []
    for n in (25, 50, 100):
        e, a = distribution.expected_core_size(3, n)
        ratios.append(float(e) / a)
    toward_one = all(
        abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0) + 0.02
        for i in range(len(ratios) - 1)
    )
    passed = rel < 0.15 and toward_one
    _report(7, "mean 3-core size tracks (t-1)sqrt(6n)/(2pi)",
            passed,
            f"relative error {rel:.4f}; ratios "
            + ", ".join(f"{r:.5f}" for r in ratios))


def test_criterion_08_moment_convergence():
    params = distribution.gamma_params(3)
    failures = []
    details = []
    for k in (1, 2, 3):
        limit = distribution.gamma_moment(params, k)
        d100 = abs(
            distribution.scaled_moment(distribution.core_size_pmf(3, 100), k) - limit
        )
        d1600 = abs(
            distribution.scaled_moment(distribution.core_size_pmf(3, 1600), k) - limit
        )
        details.append(f"k={k}: {d100:.5f}->{d1600:.5f}")
        if not d1600 < d100:
            failures.append(f"k={k}")
    _report(8, "scaled moments approach the gamma moments from n=100 to 1600",
            not failures, "; ".join(details))


def test_criterion_09_residue_identities():
    failures = []
    for n in range(23):
        for shape in enumerate_partitions(n):
            for t in (2, 3, 4, 5, 6):
                rho = core(shape, t)
                counts = hookstats.residue_census(shape, t).counts
                core_counts = hookstats.residue_census(rho, t).counts
                moved = (n - rho.size) // t
                if counts[0] != moved:
                    failures.append(f"residue 0 at {shape.parts}, t={t}")
                for r in range(1, t):
                    if 2 * r == t:
                        if counts[r] != moved + core_counts[r]:
                            failures.append(f"half class at {shape.parts}, t={t}")
                    elif counts[r] + counts[t - r] != (
                        2 * moved + core_counts[r] + core_counts[t - r]
                    ):
                        failures.append(f"pair class at {shape.parts}, t={t}, r={r}")
    _report(9, "hook-residue identities hold exactly (n<=22, t=2..6)",
            not failures, "; ".join(failures[:3]))


def test_criterion_10_residue_trend():
    case = verify.check_residue_trend(40)
    _report(10, "max residue deviation decreases over n=10,20,40 and ends below 0.08",
            case.passed and case.params["n"] == [10, 20, 40], case.detail)


def test_criterion_11_structure_suite():
    failures = []

    # orbit of (7,3,2) and smoothings, exactly as in the worked table
    nu = make_partition([7, 3, 2])
    expected_rows = {
        "123": (7, 3, 2), "132": (7, 4, 1), "213": (8, 2, 2),
        "231": (8, 4), "312": (9, 2, 1), "321": (9, 3),
    }
    smoothings = {0: (7, 2), 1: (4,), 2: (2,)}
    for word, parts in expected_rows.items():
        image = hookstats.act_on_divisible(
            hookstats.permutation_from_word(word), nu, 3
        )
        if image.parts != parts:
            failures.append(f"orbit row {word}")
        for b, cells in smoothings.items():
            if hookstats.b_smoothing(image, 3, b).cells.parts != cells:
                failures.append(f"smoothing {word}, b={b}")

    # injection: injective and residue-preserving for n <= 18, t in {2,3,4}
    for n in range(19):
        for shape in enumerate_partitions(n):
            for t in (2, 3, 4):
                dc = decompose(shape, t)
                mapping = hookstats.phi_map(shape, t)
                if len(set(mapping.values())) != len(mapping):
                    failures.append(f"phi not injective at {shape.parts}, t={t}")
                for src, dst in mapping.items():
                    if (hook_length(dc.divisible, src) % t
                            != hook_length(shape, dst) % t):
                        failures.append(f"phi residue at {shape.parts}, t={t}")

    # spread bound for n <= 20, t in {2,3,4,5}
    for n in range(21):
        for shape in enumerate_partitions(n):
            for t in (2, 3, 4, 5):
                b, _ = hookstats.canonical_smoothing(shape, t)
                if b > 2.0 * math.sqrt(core(shape, t).size) + 1e-12:
                    failures.append(f"spread bound at {shape.parts}, t={t}")

    # small-hook bound for n <= 30
    for n in range(1, 31):
        root = math.sqrt(2.0 * n)
        for shape in enumerate_partitions(n):
            hooks = sorted(hook_lengths(shape))
            idx = 0
            for m in range(1, n + 1):
                while idx < len(hooks) and hooks[idx] < m:
                    idx += 1
                if not idx < m * root:
                    failures.append(f"small hooks at {shape.parts}, m={m}")
                    break

    # nonzero residues equidistribute over orbits of 3-divisible partitions
    t = 3
    for m in range(0, 25, t):
        seen = set()
        for candidate in enumerate_partitions(m):
            if core(candidate, t) != EMPTY or candidate in seen:
                continue
            orbit = hookstats.s_t_orbit(candidate, t)
            seen.update(orbit)
            b = 0
            while True:
                totals = [0] * t
                region_empty = True
                for member in orbit:
                    region = hookstats.b_smoothing(member, t, b).cells
                    if region.size:
                        region_empty = False
                    for cell in region.cells():
                        totals[hook_length(member, cell) % t] += 1
                if any(x != totals[1] for x in totals[2:]):
                    failures.append(f"equidistribution at {candidate.parts}, b={b}")
                if region_empty:
                    break
                b += 1
    _report(11, "orbit table, injection, bounds and equidistribution all hold",
            not failures, "; ".join(failures[:3]))


def test_criterion_12_sampler(tmp_path):
    failures = []

    # symbolic uniformity: ranks biject with partitions for n <= 10
    for n in range(11):
        table = sampling.build_sampler(n)
        images = {sampling.unrank_partition(table, r) for r in range(table.total)}
        if images != set(enumerate_partitions(n)) or len(images) != table.total:
            failures.append(f"rank bijection at n={n}")

    # empirical frequencies at n = 8
    table = sampling.build_sampler(8)
    samples = 100000
    counts = Counter(
        sampling.sample_partition(table, 20240817, i) for i in range(samples)
    )
    worst = max(
        abs(counts.get(s, 0) / samples - 1.0 / 22.0)
        for s in enumerate_partitions(8)
    )
    if worst >= 0.01:
        failures.append(f"frequency deviation {worst:.5f}")

    # byte-identical reruns under a fixed seed
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--n", "20", "--count", "100", "--seed", "7"]
    cli_run(args + ["--output", str(a)])
    cli_run(args + ["--output", str(b)])
    if a.read_bytes() != b.read_bytes():
        failures.append("rerun bytes differ")

    _report(12, "sampler is exactly uniform, accurate at n=8, and reproducible",
            not failures,
            f"max deviation {worst:.5f}" if not failures else "; ".join(failures))
