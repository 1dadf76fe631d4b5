"""Desk-scale verification suite: brute-force checks of every finite-n
identity the library relies on, runnable from the CLI.

Each case compares a production code path against an independent route
(exhaustive enumeration, a second formula, or a closed form) and reports a
CaseResult; a suite passes only if every case does.  max_n caps the
exhaustive sweeps so the whole run stays interactive.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from . import abacus, counting, distribution, hookstats, oracles, sampling
from .corequotient import (
    compose,
    core,
    decompose,
    is_core,
    justification_vector,
)
from .partitions import (
    EMPTY,
    Cell,
    PartitionShape,
    conjugate,
    enumerate_partitions,
    hook_length,
    arm_length,
    leg_length,
    hook_lengths,
    make_partition,
    remove_rim_hook,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class CaseResult:
    name: str
    params: dict
    passed: bool
    detail: str


@dataclass
class VerificationReport:
    suite: str
    master_seed: int
    cases: list[CaseResult] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "master_seed": self.master_seed,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "cases": [
                {
                    "name": c.name,
                    "params": c.params,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.cases
            ],
        }
        return json.dumps(payload, indent=2)


def _case(name, params, passed, detail="ok") -> CaseResult:
    return CaseResult(name, params, bool(passed), detail)


# ---------------------------------------------------------------------------
# the shared corpus
#
# Many cases sweep the same partitions and their t-cores.  Each is built once
# per process; the case caps bound it to n <= 30 and t <= 6 (about 16 MB).


@functools.cache
def _shapes(n: int) -> tuple[PartitionShape, ...]:
    return tuple(enumerate_partitions(n))


@functools.cache
def _hooks(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(hook_lengths(shape) for shape in _shapes(n))


@functools.cache
def _cores(n: int, t: int) -> tuple[PartitionShape, ...]:
    # equal cores are interned, so each distinct core is held once per (n, t)
    interned: dict[PartitionShape, PartitionShape] = {}
    return tuple(interned.setdefault(rho, rho)
                 for rho in (core(shape, t) for shape in _shapes(n)))


# ---------------------------------------------------------------------------
# partitions


def check_hook_multisets(max_n: int) -> CaseResult:
    limit = min(max_n, 30)
    for n in range(limit + 1):
        for shape, hooks in zip(_shapes(n), _hooks(n)):
            hooks = sorted(hooks)
            if len(hooks) != n or hooks != sorted(hook_lengths(conjugate(shape))):
                return _case("hook_multiset_conjugation", {"n": n}, False,
                             f"failed at {shape.parts}")
    return _case("hook_multiset_conjugation", {"max_n": limit}, True)


def check_arm_leg_hook(max_n: int) -> CaseResult:
    limit = min(max_n, 14)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for cell in shape.cells():
                if (arm_length(shape, cell) + leg_length(shape, cell) + 1
                        != hook_length(shape, cell)):
                    return _case("arm_leg_hook", {"n": n}, False,
                                 f"failed at {shape.parts} {cell}")
    return _case("arm_leg_hook", {"max_n": limit}, True)


def check_rim_hook_removal(max_n: int) -> CaseResult:
    limit = min(max_n, 14)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for cell in shape.cells():
                h = hook_length(shape, cell)
                smaller = remove_rim_hook(shape, cell)
                if smaller.size != n - h:
                    return _case("rim_hook_removal", {"n": n}, False,
                                 f"bad size at {shape.parts} {cell}")
    return _case("rim_hook_removal", {"max_n": limit}, True)


def check_enumeration_count(max_n: int) -> CaseResult:
    limit = min(max_n, 40)
    table = counting.partition_count_table(limit)
    for n in range(limit + 1):
        if sum(1 for _ in enumerate_partitions(n)) != table[n]:
            return _case("enumeration_count", {"n": n}, False, "count mismatch")
    return _case("enumeration_count", {"max_n": limit}, True)


# ---------------------------------------------------------------------------
# abacus


def check_pair_statistics(max_n: int) -> CaseResult:
    limit = min(max_n, 25)
    for n in range(limit + 1):
        for shape in _shapes(n):
            word = abacus.abacus_from_partition(shape)
            pairs = abacus.inversion_pairs(word)
            if len(pairs) != n:
                return _case("abacus_pair_statistics", {"n": n}, False,
                             f"pair count at {shape.parts}")
            stats = sorted(
                (j - i,
                 sum(1 for k in range(i + 1, j) if word.bit(k) == 0),
                 sum(1 for k in range(i + 1, j) if word.bit(k) == 1))
                for i, j in pairs
            )
            cells = sorted(
                (hook_length(shape, c), arm_length(shape, c), leg_length(shape, c))
                for c in shape.cells()
            )
            if stats != cells:
                return _case("abacus_pair_statistics", {"n": n}, False,
                             f"hook/arm/leg mismatch at {shape.parts}")
    return _case("abacus_pair_statistics", {"max_n": limit}, True)


def check_swap_is_rim_hook(max_n: int) -> CaseResult:
    limit = min(max_n, 20)
    for n in range(limit + 1):
        for shape in _shapes(n):
            word = abacus.abacus_from_partition(shape)
            # cell lookup keyed by bead pair
            beads = {}
            for r, width in enumerate(shape.parts, start=1):
                j_pos = width - r
                for c in range(1, width + 1):
                    h = hook_length(shape, Cell(r, c))
                    beads[(j_pos - h, j_pos)] = Cell(r, c)
            for t in (2, 3, 4, 5):
                lo = word.offset - 1
                hi = word.offset + len(word.window)
                for i in range(lo, hi + 1):
                    if word.bit(i) == 0 and word.bit(i + t) == 1:
                        bits = [
                            1 - word.bit(k) if k in (i, i + t) else word.bit(k)
                            for k in range(lo, hi + t + 1)
                        ]
                        swapped = abacus.partition_from_abacus(
                            abacus.make_word(bits, lo)
                        )
                        expected = remove_rim_hook(shape, beads[(i, i + t)])
                        if swapped != expected:
                            return _case(
                                "abacus_swap_rim_hook", {"n": n, "t": t}, False,
                                f"mismatch at {shape.parts} pair ({i},{i+t})")
    return _case("abacus_swap_rim_hook", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_word_roundtrip(max_n: int) -> CaseResult:
    limit = min(max_n, 25)
    for n in range(limit + 1):
        for shape in _shapes(n):
            word = abacus.abacus_from_partition(shape)
            if abacus.partition_from_abacus(word) != shape:
                return _case("abacus_roundtrip", {"n": n}, False,
                             f"read-back failed for {shape.parts}")
            if abacus.abacus_from_partition(abacus.partition_from_abacus(word)) != word:
                return _case("abacus_roundtrip", {"n": n}, False,
                             f"identity failed for {shape.parts}")
            for k in (-3, 1, 2):
                if abacus.partition_from_abacus(abacus.shift(word, k)) != shape:
                    return _case("abacus_roundtrip", {"n": n}, False,
                                 f"shift invariance failed for {shape.parts}")
            for t in (2, 3, 5):
                if abacus.merge_runners(abacus.split_runners(word, t)) != word:
                    return _case("abacus_roundtrip", {"n": n}, False,
                                 f"split/merge failed for {shape.parts}")
    return _case("abacus_roundtrip", {"max_n": limit}, True)


# ---------------------------------------------------------------------------
# core / quotient


def check_core_properties(max_n: int) -> CaseResult:
    limit = min(max_n, 25)
    ts = (2, 3, 4, 5, 6)
    idempotent = set()  # (t, core) pairs already checked
    for n in range(limit + 1):
        cores = [_cores(n, t) for t in ts]
        for i, (shape, hooks) in enumerate(zip(_shapes(n), _hooks(n))):
            for t, rhos in zip(ts, cores):
                rho = rhos[i]
                if (t, rho) not in idempotent:
                    if core(rho, t) != rho:
                        return _case("core_properties", {"n": n, "t": t}, False,
                                     f"not idempotent at {shape.parts}")
                    idempotent.add((t, rho))
                if rho.size % t != n % t:
                    return _case("core_properties", {"n": n, "t": t}, False,
                                 f"congruence fails at {shape.parts}")
                hook_free = not any(h % t == 0 for h in hooks)
                if is_core(shape, t) != hook_free or (rho == shape) != hook_free:
                    return _case("core_properties", {"n": n, "t": t}, False,
                                 f"hook criterion fails at {shape.parts}")
    return _case("core_properties", {"max_n": limit, "t": [2, 3, 4, 5, 6]}, True)


def check_fixed_core_counts(max_n: int) -> CaseResult:
    limit = min(max_n, 25)
    for t in (2, 3, 4, 5):
        cores_tab = counting.core_count_table(t, limit)
        divis_tab = counting.divisible_count_table(t, limit)
        for n in range(limit + 1):
            hist = Counter(rho.size for rho in _cores(n, t))
            for i in range(n + 1):
                if hist.get(i, 0) != divis_tab[n - i] * cores_tab[i]:
                    return _case("fixed_core_counts", {"n": n, "t": t, "i": i},
                                 False, "product formula mismatch")
    return _case("fixed_core_counts", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_division_bijection(max_n: int) -> CaseResult:
    limit = min(max_n, 22)
    for t in (2, 3, 4, 5):
        for n in range(limit + 1):
            seen = set()
            for shape in _shapes(n):
                dc = decompose(shape, t)
                if dc.core.size + dc.divisible.size != n:
                    return _case("division_bijection", {"n": n, "t": t}, False,
                                 f"size identity fails at {shape.parts}")
                if dc.divisible.size != t * sum(q.size for q in dc.quotient):
                    return _case("division_bijection", {"n": n, "t": t}, False,
                                 f"quotient size fails at {shape.parts}")
                key = (dc.core, dc.divisible)
                if key in seen:
                    return _case("division_bijection", {"n": n, "t": t}, False,
                                 f"not injective at {shape.parts}")
                seen.add(key)
                if compose(dc.core, dc.quotient, t) != shape:
                    return _case("division_bijection", {"n": n, "t": t}, False,
                                 f"round trip fails at {shape.parts}")
    return _case("division_bijection", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_strip_oracle(max_n: int) -> CaseResult:
    limit = min(max_n, 16)
    for n in range(limit + 1):
        for i, shape in enumerate(_shapes(n)):
            for t in (2, 3, 4, 5):
                if _cores(n, t)[i] != oracles.core_by_rim_stripping(shape, t):
                    return _case("greedy_strip_oracle", {"n": n, "t": t}, False,
                                 f"mismatch at {shape.parts}")
    return _case("greedy_strip_oracle", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


# ---------------------------------------------------------------------------
# counting


def check_triple_oracle(max_n: int) -> CaseResult:
    gf_limit = max(min(max_n * 2, 60), 30)
    enum_limit = min(max_n, 30)
    for t in (2, 3, 4, 5, 6):
        table = counting.core_count_table(t, gf_limit)
        lattice = oracles.lattice_core_histogram(t, gf_limit)
        if tuple(table.values) != lattice:
            return _case("triple_oracle", {"t": t}, False,
                         "series vs lattice mismatch")
        for n in range(enum_limit + 1):
            brute = sum(1 for hooks in _hooks(n) if not any(h % t == 0 for h in hooks))
            if brute != table[n]:
                return _case("triple_oracle", {"t": t, "n": n}, False,
                             "series vs enumeration mismatch")
    return _case("triple_oracle",
                 {"series_max_n": gf_limit, "enum_max_n": enum_limit}, True)


def check_core_sum_census(max_n: int) -> CaseResult:
    limit = min(max_n, 30)
    for t in (2, 3, 4, 5):
        table = counting.core_sum_table(t, limit)
        for n in range(limit + 1):
            distinct = set(_cores(n, t))
            if len(distinct) != table[n]:
                return _case("core_sum_census", {"t": t, "n": n}, False,
                             "distinct-core census mismatch")
    return _case("core_sum_census", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_core_sum_difference(max_n: int) -> CaseResult:
    limit = max(max_n, 200)
    for t in (2, 3, 4, 5, 6):
        c = counting.core_count_table(t, limit)
        big = counting.core_sum_table(t, limit)
        for n in range(limit + 1):
            prev = big[n - t] if n >= t else 0
            if c[n] != big[n] - prev:
                return _case("core_sum_difference", {"t": t, "n": n}, False,
                             "difference identity fails")
    return _case("core_sum_difference", {"max_n": limit}, True)


def check_growth_ratio(max_n: int) -> CaseResult:
    # observed maxima are 2^(1/2) at t=3 and exactly 1 at t=4,5
    for t in (3, 4, 5):
        c = counting.core_count_table(t, 1600)
        for horizon in (100, 400, 1600):
            peak = max(c[n] / n ** ((t - 2) / 2) for n in range(1, horizon + 1))
            if peak > 1.5:
                return _case("growth_ratio", {"t": t, "N": horizon}, False,
                             f"ratio {peak:.3f} exceeds bound")
    return _case("growth_ratio", {"t": [3, 4, 5], "N": [100, 400, 1600]}, True)


def check_justification_form(max_n: int) -> CaseResult:
    limit = min(max_n, 30)
    for n in range(limit + 1):
        for t in (2, 3, 4, 5):
            for shape, hooks in zip(_shapes(n), _hooks(n)):
                if any(h % t == 0 for h in hooks):
                    continue
                vec = justification_vector(shape, t)
                if sum(vec) != 0 or counting.f_t(vec, t) != n:
                    return _case("justification_form", {"n": n, "t": t}, False,
                                 f"form value wrong at {shape.parts}")
    return _case("justification_form", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_mod_counts(max_n: int) -> CaseResult:
    for t in (2, 3, 4, 5):
        for residue in range(t):
            got = oracles.mod_solution_count(t, residue)
            if got != t ** (t - 2):
                return _case("mod_solution_counts", {"t": t, "residue": residue},
                             False, f"got {got}, want {t ** (t - 2)}")
    return _case("mod_solution_counts", {"t": [2, 3, 4, 5]}, True)


def check_divisor_oracle(max_n: int) -> CaseResult:
    limit = max(max_n, 200)
    table = counting.core_count_table(3, limit)
    for n in range(limit + 1):
        if oracles.c3_divisor_oracle(n) != table[n]:
            return _case("c3_divisor_oracle", {"n": n}, False, "mismatch")
    return _case("c3_divisor_oracle", {"max_n": limit}, True)


def check_volume_identities(max_n: int) -> CaseResult:
    for t in range(2, 9):
        cov = oracles.lattice_covolume(t)
        if abs(cov - math.sqrt(t)) > 1e-12:
            return _case("volume_identities", {"t": t}, False, "covolume wrong")
        lead = counting.core_sum_leading_term(t, 50)
        alt = oracles.ball_volume(t, 50) / t ** 1.5
        if abs(lead - alt) > 1e-12 * max(1.0, abs(lead)):
            return _case("volume_identities", {"t": t}, False,
                         "leading term vs ball volume mismatch")
    v2 = oracles.ball_volume(2, 10)
    if abs(v2 - 2.0 * math.sqrt(10 + 0.125)) > 1e-12:
        return _case("volume_identities", {"t": 2}, False, "V_2 closed form")
    p100 = counting.partition_count_table(100)[100]
    est = counting.asymptotic_estimates(3, 100).partition_leading
    if abs(est - p100) / p100 > 0.05:
        return _case("volume_identities", {"n": 100}, False,
                     "partition estimate off by more than 5%")
    return _case("volume_identities", {"t": "2..8"}, True)


# ---------------------------------------------------------------------------
# distribution


def check_pmf_exhaustive(max_n: int) -> CaseResult:
    limit = min(max_n, 22)
    for t in (2, 3, 4, 5):
        for n in range(limit + 1):
            pmf = distribution.core_size_pmf(t, n)
            if pmf.total() != 1:
                return _case("pmf_exhaustive", {"t": t, "n": n}, False,
                             "masses do not sum to 1")
            hist = Counter(rho.size for rho in _cores(n, t))
            total = sum(hist.values())
            for k in set(hist) | set(pmf.masses):
                if pmf.masses.get(k, Fraction(0)) != Fraction(hist.get(k, 0), total):
                    return _case("pmf_exhaustive", {"t": t, "n": n, "k": k},
                                 False, "mass mismatch")
    return _case("pmf_exhaustive", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_gamma_function(max_n: int) -> CaseResult:
    beta = math.pi / math.sqrt(6.0)
    for x in (0.25, 0.5, 1.0, 2.0, 5.0, 12.0):
        g = distribution.gamma_cdf(distribution.GammaParams(1.0, beta), x)
        if abs(g - (1.0 - math.exp(-beta * x))) > 1e-10:
            return _case("gamma_function", {"alpha": 1, "x": x}, False,
                         "exponential closed form")
        g = distribution.gamma_cdf(distribution.GammaParams(0.5, 1.0), x)
        if abs(g - math.erf(math.sqrt(x))) > 1e-10:
            return _case("gamma_function", {"alpha": 0.5, "x": x}, False,
                         "error-function closed form")
    params = distribution.gamma_params(5)
    for k in range(6):
        lhs = distribution.gamma_moment(params, k + 1)
        rhs = distribution.gamma_moment(params, k) * (k + params.alpha) / params.beta
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            return _case("gamma_function", {"k": k}, False, "moment recurrence")
    return _case("gamma_function", {}, True)


def check_distance_trend(max_n: int) -> CaseResult:
    params = distribution.gamma_params(5)
    dists = [
        distribution.cdf_sup_distance(distribution.core_size_pmf(5, n), params)
        for n in (20, 62, 103)
    ]
    ok = dists[0] > dists[1] > dists[2]
    return _case("distance_trend", {"t": 5, "n": [20, 62, 103]}, ok,
                 "distances " + ", ".join(f"{d:.6f}" for d in dists))


def check_expectation_trend(max_n: int) -> CaseResult:
    exact100, asym100 = distribution.expected_core_size(3, 100)
    if abs(float(exact100) - asym100) / asym100 > 0.15:
        return _case("expectation_trend", {"n": 100}, False,
                     "exact mean beyond 15% of asymptote")
    ratios = []
    for n in (25, 50, 100):
        exact, asym = distribution.expected_core_size(3, n)
        ratios.append(float(exact) / asym)
    ok = all(
        abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0) + 0.02
        for i in range(len(ratios) - 1)
    )
    return _case("expectation_trend", {"t": 3, "n": [25, 50, 100]}, ok,
                 "ratios " + ", ".join(f"{r:.5f}" for r in ratios))


def check_moment_trend(max_n: int) -> CaseResult:
    params = distribution.gamma_params(3)
    for k in (1, 2, 3):
        diffs = [
            abs(
                distribution.scaled_moment(distribution.core_size_pmf(3, n), k)
                - distribution.gamma_moment(params, k)
            )
            for n in (100, 400, 1600)
        ]
        if not (diffs[0] > diffs[1] > diffs[2]):
            return _case("moment_trend", {"t": 3, "k": k}, False,
                         "differences " + ", ".join(f"{d:.6f}" for d in diffs))
    return _case("moment_trend", {"t": 3, "k": [1, 2, 3]}, True)


# ---------------------------------------------------------------------------
# hook statistics


def check_residue_identities(max_n: int) -> CaseResult:
    limit = min(max_n, 22)
    ts = (2, 3, 4, 5, 6)
    for n in range(limit + 1):
        cores = [_cores(n, t) for t in ts]
        for i, shape in enumerate(_shapes(n)):
            for t, rhos in zip(ts, cores):
                rho = rhos[i]
                counts = hookstats.residue_census(shape, t).counts
                core_counts = hookstats.residue_census(rho, t).counts
                moved = (n - rho.size) // t
                if counts[0] != moved:
                    return _case("residue_identities", {"n": n, "t": t}, False,
                                 f"residue-0 count at {shape.parts}")
                for r in range(1, t):
                    if 2 * r == t:
                        if counts[r] != moved + core_counts[r]:
                            return _case("residue_identities",
                                         {"n": n, "t": t, "r": r}, False,
                                         f"half-class count at {shape.parts}")
                    elif counts[r] + counts[t - r] != (
                        2 * moved + core_counts[r] + core_counts[t - r]
                    ):
                        return _case("residue_identities",
                                     {"n": n, "t": t, "r": r}, False,
                                     f"pair-class count at {shape.parts}")
    return _case("residue_identities", {"max_n": limit, "t": [2, 3, 4, 5, 6]}, True)


def check_orbit_table(max_n: int) -> CaseResult:
    nu = make_partition([7, 3, 2])
    expected_rows = {
        "123": (7, 3, 2),
        "132": (7, 4, 1),
        "213": (8, 2, 2),
        "231": (8, 4),
        "312": (9, 2, 1),
        "321": (9, 3),
    }
    expected_smoothings = {0: (7, 2), 1: (4,), 2: (2,)}
    for word, parts in expected_rows.items():
        sigma = hookstats.permutation_from_word(word)
        image = hookstats.act_on_divisible(sigma, nu, 3)
        if image.parts != parts:
            return _case("orbit_table", {"word": word}, False,
                         f"image {image.parts}, want {parts}")
        for b, cells in expected_smoothings.items():
            got = hookstats.b_smoothing(image, 3, b).cells.parts
            if got != cells:
                return _case("orbit_table", {"word": word, "b": b}, False,
                             f"smoothing {got}, want {cells}")
    return _case("orbit_table", {"nu": [7, 3, 2], "t": 3}, True)


def check_orbit_equidistribution(max_n: int) -> CaseResult:
    limit = min(max_n, 24)
    t = 3
    for m in range(0, limit + 1, t):
        divisibles = [s for s, rho in zip(_shapes(m), _cores(m, t)) if rho == EMPTY]
        seen: set[PartitionShape] = set()
        for nu in divisibles:
            if nu in seen:
                continue
            orbit = hookstats.s_t_orbit(nu, t)
            seen.update(orbit)
            max_b = 2 * m + 1
            for b in range(0, max_b):
                totals = [0] * t
                empty_everywhere = True
                for member in orbit:
                    region = hookstats.b_smoothing(member, t, b).cells
                    if region.size:
                        empty_everywhere = False
                    for cell in region.cells():
                        totals[hook_length(member, cell) % t] += 1
                nonzero = totals[1:]
                if any(x != nonzero[0] for x in nonzero):
                    return _case("orbit_equidistribution",
                                 {"m": m, "b": b, "orbit_of": nu.parts}, False,
                                 f"totals {totals}")
                if empty_everywhere:
                    break
    return _case("orbit_equidistribution", {"max_size": limit, "t": t}, True)


def check_action_properties(max_n: int) -> CaseResult:
    limit = min(max_n, 14)
    for n in range(limit + 1):
        for i, shape in enumerate(_shapes(n)):
            for t in (2, 3):
                ident = tuple(range(t))
                if hookstats.act_on_partition(ident, shape, t) != shape:
                    return _case("action_properties", {"n": n, "t": t}, False,
                                 f"identity fails at {shape.parts}")
                rho = _cores(n, t)[i]
                for sigma in permutations(range(t)):
                    image = hookstats.act_on_partition(sigma, shape, t)
                    if image.size != n or core(image, t) != rho:
                        return _case("action_properties", {"n": n, "t": t}, False,
                                     f"size/core not preserved at {shape.parts}")
                    if image != oracles.act_on_partition_via_shifts(
                        sigma, shape, t
                    ):
                        return _case("action_properties", {"n": n, "t": t}, False,
                                     f"shift route disagrees at {shape.parts}")
    return _case("action_properties", {"max_n": limit, "t": [2, 3]}, True)


def check_smoothing_bounds(max_n: int) -> CaseResult:
    limit = min(max_n, 20)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for t in (2, 3, 4, 5):
                dc = decompose(shape, t)
                b, cells = hookstats.canonical_smoothing(shape, t)
                if b > 2.0 * math.sqrt(dc.core.size) + 1e-12:
                    return _case("smoothing_bounds", {"n": n, "t": t}, False,
                                 f"spread bound fails at {shape.parts}")
                uncovered = dc.divisible.size - cells.size
                small = hookstats.small_hook_count(dc.divisible, t * (b + 1))
                if uncovered > small:
                    return _case("smoothing_bounds", {"n": n, "t": t}, False,
                                 f"coverage bound fails at {shape.parts}")
    return _case("smoothing_bounds", {"max_n": limit, "t": [2, 3, 4, 5]}, True)


def check_small_hook_bound(max_n: int) -> CaseResult:
    limit = min(max_n, 30)
    for n in range(1, limit + 1):
        root = math.sqrt(2.0 * n)
        for shape, hooks in zip(_shapes(n), _hooks(n)):
            hooks = sorted(hooks)
            below = 0
            for m in range(1, n + 1):
                while below < len(hooks) and hooks[below] < m:
                    below += 1
                if not below < m * root:
                    return _case("small_hook_bound", {"n": n, "m": m}, False,
                                 f"bound fails at {shape.parts}")
    return _case("small_hook_bound", {"max_n": limit}, True)


def check_phi_injection(max_n: int) -> CaseResult:
    limit = min(max_n, 18)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for t in (2, 3, 4):
                dc = decompose(shape, t)
                mapping = hookstats.phi_map(shape, t)
                if len(set(mapping.values())) != len(mapping):
                    return _case("phi_injection", {"n": n, "t": t}, False,
                                 f"not injective at {shape.parts}")
                for src, dst in mapping.items():
                    if (hook_length(dc.divisible, src) % t
                            != hook_length(shape, dst) % t):
                        return _case("phi_injection", {"n": n, "t": t}, False,
                                     f"residue broken at {shape.parts} {src}")
    return _case("phi_injection", {"max_n": limit, "t": [2, 3, 4]}, True)


def check_residue_trend(max_n: int) -> CaseResult:
    points = [n for n in (10, 20, 40) if n <= max(max_n, 20)]
    devs = []
    for n in points:
        xs = hookstats.exact_residue_distribution(3, n)
        if sum(xs) != 1:
            return _case("residue_trend", {"n": n}, False, "not normalized")
        devs.append(max(abs(x - Fraction(1, 3)) for x in xs))
    ok = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    if 40 in points:
        ok = ok and devs[-1] < Fraction(8, 100)
    return _case("residue_trend", {"t": 3, "n": points}, ok,
                 "max deviations " + ", ".join(f"{float(d):.5f}" for d in devs))


# ---------------------------------------------------------------------------
# sampling


def check_sampler_table(max_n: int) -> CaseResult:
    limit = min(max(max_n, 40), 100)
    table = sampling.build_sampler(limit)
    p = counting.partition_count_table(limit)
    for m in range(limit + 1):
        if table.count(m, m) != p[m]:
            return _case("sampler_table", {"m": m}, False, "row total wrong")
        # cells past m/2 are derived from sums of p, so the recurrence
        # crosses the stored and the derived half of each row
        for k in range(1, m + 1):
            if table.count(m, k) != table.count(m, k - 1) + table.count(m - k, k):
                return _case("sampler_table", {"m": m, "k": k}, False,
                             "recurrence fails")
    return _case("sampler_table", {"max_n": limit}, True)


def check_unrank_bijection(max_n: int) -> CaseResult:
    for n in range(11):
        table = sampling.build_sampler(n)
        seen = {sampling.unrank_partition(table, r) for r in range(table.total)}
        expected = set(_shapes(n))
        if seen != expected:
            return _case("unrank_bijection", {"n": n}, False,
                         "rank map is not a bijection")
    return _case("unrank_bijection", {"max_n": 10}, True)


def check_sampler_frequencies(max_n: int, seed: int, samples: int) -> CaseResult:
    table = sampling.build_sampler(8)
    counts = Counter(
        sampling.sample_partition(table, seed, i) for i in range(samples)
    )
    worst = max(
        abs(counts.get(shape, 0) / samples - 1.0 / table.total)
        for shape in _shapes(8)
    )
    rerun = Counter(
        sampling.sample_partition(table, seed, i) for i in range(samples)
    )
    if rerun != counts:
        return _case("sampler_frequencies", {"seed": seed}, False,
                     "rerun differs under fixed seed")
    return _case("sampler_frequencies",
                 {"n": 8, "samples": samples, "seed": seed},
                 worst < 0.01, f"max frequency deviation {worst:.5f}")


# ---------------------------------------------------------------------------
# registry


_SUITES = {
    "partitions": [
        check_hook_multisets,
        check_arm_leg_hook,
        check_rim_hook_removal,
        check_enumeration_count,
    ],
    "abacus": [
        check_pair_statistics,
        check_swap_is_rim_hook,
        check_word_roundtrip,
    ],
    "corequotient": [
        check_core_properties,
        check_fixed_core_counts,
        check_division_bijection,
        check_strip_oracle,
    ],
    "counting": [
        check_triple_oracle,
        check_core_sum_census,
        check_core_sum_difference,
        check_growth_ratio,
        check_justification_form,
        check_mod_counts,
        check_divisor_oracle,
        check_volume_identities,
    ],
    "distribution": [
        check_pmf_exhaustive,
        check_gamma_function,
        check_distance_trend,
        check_expectation_trend,
        check_moment_trend,
    ],
    "hookstats": [
        check_residue_identities,
        check_orbit_table,
        check_orbit_equidistribution,
        check_action_properties,
        check_smoothing_bounds,
        check_small_hook_bound,
        check_phi_injection,
        check_residue_trend,
    ],
    "sampling": [
        check_sampler_table,
        check_unrank_bijection,
        check_sampler_frequencies,
    ],
}


def suite_names() -> list[str]:
    return [*_SUITES, "all"]


def run_suite(
    name: str, max_n: int = 22, seed: int = 12345, samples: int = 20000
) -> VerificationReport:
    """Run one named suite (or "all"); every case is deterministic given the
    master seed."""
    if name == "all":
        checks = [fn for fns in _SUITES.values() for fn in fns]
    elif name in _SUITES:
        checks = _SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    if max_n > counting.SERIES_MAX_N:
        raise ValueError(f"verify is capped at max_n={counting.SERIES_MAX_N} "
                         f"(the counting series cap); got max_n={max_n}")
    report = VerificationReport(suite=name, master_seed=seed)
    start = time.perf_counter()
    for fn in checks:
        if fn is check_sampler_frequencies:
            report.cases.append(fn(max_n, seed, samples))
        else:
            report.cases.append(fn(max_n))
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report
