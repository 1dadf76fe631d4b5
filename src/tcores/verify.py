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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, permutations

from . import abacus, corequotient, counting, distribution, hookstats, oracles, sampling
from .corequotient import _beads, compose, core, decompose, is_core, justification_vector
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
    _require_int,
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
            "cases": [asdict(c) for c in self.cases],
        }
        return json.dumps(payload, indent=2)


def _case(name, params, passed, detail="ok") -> CaseResult:
    return CaseResult(name, params, bool(passed), detail)


# suite name -> its cases, in definition order
_SUITES: dict[str, list] = {}


def _check(suite: str, name: str):
    """Register the case below in `suite` under `name`.  Its body returns the
    params it passed at, `_fail(params, detail)` for the first failing
    input, or (params, passed, detail) when it judges a trend."""
    def register(body):
        @functools.wraps(body)
        def check(*args) -> CaseResult:
            outcome = body(*args)
            if isinstance(outcome, dict):
                return _case(name, outcome, True)
            return _case(name, *outcome)

        _SUITES.setdefault(suite, []).append(check)
        return check

    return register


def _fail(params: dict, detail: str) -> tuple[dict, bool, str]:
    return params, False, detail


# ---------------------------------------------------------------------------
# the shared corpus
#
# Many cases sweep the same partitions and their t-cores.  Each is built once
# per process; the case caps bound it to n <= 30 and t <= 6 (about 15 MB).


@functools.cache
def _shapes(n: int) -> tuple[PartitionShape, ...]:
    return tuple(enumerate_partitions(n))


@functools.cache
def _hooks(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(hook_lengths(shape) for shape in _shapes(n))


@functools.cache
def _cores(n: int, t: int) -> tuple[PartitionShape, ...]:
    # a t-core is fixed by its justification vector (James and Kerber 2.7):
    # each shape is divided once, each distinct vector assembled once, and
    # the cores are interned by it, so each distinct core is held once
    vectors = [corequotient._divide(shape, t)[0] for shape in _shapes(n)]
    interned = {v: corequotient._assemble(v, (EMPTY,) * t, t) for v in set(vectors)}
    return tuple(interned[v] for v in vectors)


# ---------------------------------------------------------------------------
# partitions


@_check("partitions", "hook_multiset_conjugation")
def check_hook_multisets(max_n: int):
    """Hooks of each shape against its conjugate's hooks, n <= 30."""
    limit = min(max_n, 30)
    for n in range(limit + 1):
        for shape, hooks in zip(_shapes(n), _hooks(n)):
            hooks = sorted(hooks)
            if len(hooks) != n or hooks != sorted(hook_lengths(conjugate(shape))):
                return _fail({"n": n}, f"failed at {shape.parts}")
    return {"max_n": limit}


@_check("partitions", "arm_leg_hook")
def check_arm_leg_hook(max_n: int):
    """arm + leg + 1 against hook_length cell by cell, n <= 14."""
    limit = min(max_n, 14)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for cell in shape.cells():
                if (arm_length(shape, cell) + leg_length(shape, cell) + 1
                        != hook_length(shape, cell)):
                    return _fail({"n": n}, f"failed at {shape.parts} {cell}")
    return {"max_n": limit}


@_check("partitions", "rim_hook_removal")
def check_rim_hook_removal(max_n: int):
    """Sizes after the rim walk against n minus the hook, n <= 14."""
    limit = min(max_n, 14)
    for n in range(limit + 1):
        for shape in _shapes(n):
            for cell in shape.cells():
                h = hook_length(shape, cell)
                smaller = remove_rim_hook(shape, cell)
                if smaller.size != n - h:
                    return _fail({"n": n}, f"bad size at {shape.parts} {cell}")
    return {"max_n": limit}


@_check("partitions", "enumeration_count")
def check_enumeration_count(max_n: int):
    """Enumerated partitions against the p series, n <= 40."""
    limit = min(max_n, 40)
    table = counting.partition_count_table(limit)
    for n in range(limit + 1):
        if sum(1 for _ in enumerate_partitions(n)) != table[n]:
            return _fail({"n": n}, "count mismatch")
    return {"max_n": limit}


# ---------------------------------------------------------------------------
# abacus


@_check("abacus", "abacus_pair_statistics")
def check_pair_statistics(max_n: int):
    """Bit-word pair spans and bit counts against hooks, arms and legs, n <= 25."""
    limit = min(max_n, 25)
    for n in range(limit + 1):
        for shape in _shapes(n):
            word = abacus.abacus_from_partition(shape)
            pairs = abacus.inversion_pairs(word)
            if len(pairs) != n:
                return _fail({"n": n}, f"pair count at {shape.parts}")
            # the leg counts the 1s strictly between the pair, the arm its 0s
            ones = list(accumulate(word.window, initial=0))
            legs = [ones[j - word.offset] - ones[i - word.offset] for i, j in pairs]
            stats = sorted((j - i, j - i - 1 - leg, leg)
                           for (i, j), leg in zip(pairs, legs))
            cells = sorted(
                (hook_length(shape, c), arm_length(shape, c), leg_length(shape, c))
                for c in shape.cells()
            )
            if stats != cells:
                return _fail({"n": n}, f"hook/arm/leg mismatch at {shape.parts}")
    return {"max_n": limit}


@_check("abacus", "abacus_swap_rim_hook")
def check_swap_is_rim_hook(max_n: int):
    """Swapping a bead pair t apart against the rim walk, n <= 20, t = 2..5."""
    limit = min(max_n, 20)
    ts = [2, 3, 4, 5]
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
            window = word.window
            for t in ts:
                # the word is 1 below its window and 0 above it, so a 0 with a
                # 1 t places on lies inside the window
                for k in range(len(window) - t):
                    if window[k] == 0 and window[k + t] == 1:
                        bits = list(window)
                        bits[k], bits[k + t] = 1, 0
                        swapped = abacus.partition_from_abacus(
                            abacus.make_word(bits, word.offset)
                        )
                        i = word.offset + k
                        expected = remove_rim_hook(shape, beads[(i, i + t)])
                        if swapped != expected:
                            return _fail({"n": n, "t": t},
                                         f"mismatch at {shape.parts} pair ({i},{i+t})")
    return {"max_n": limit, "t": ts}


@_check("abacus", "abacus_roundtrip")
def check_word_roundtrip(max_n: int):
    """The word's 1-positions against the bead positions read off the parts
    (corequotient._beads), then its read-back, shifts and runners, n <= 25."""
    limit = min(max_n, 25)
    for n in range(limit + 1):
        for shape in _shapes(n):
            word = abacus.abacus_from_partition(shape)
            ones = [word.offset + k for k, bit in enumerate(word.window) if bit]
            if ones[::-1] != _beads(shape.parts):
                return _fail({"n": n}, f"bead positions differ at {shape.parts}")
            if abacus.partition_from_abacus(word) != shape:
                return _fail({"n": n}, f"read-back failed for {shape.parts}")
            if abacus.abacus_from_partition(abacus.partition_from_abacus(word)) != word:
                return _fail({"n": n}, f"identity failed for {shape.parts}")
            for k in (-3, 1, 2):
                if abacus.partition_from_abacus(abacus.shift(word, k)) != shape:
                    return _fail({"n": n}, f"shift invariance failed for {shape.parts}")
            for t in (2, 3, 5):
                if abacus.merge_runners(abacus.split_runners(word, t)) != word:
                    return _fail({"n": n}, f"split/merge failed for {shape.parts}")
    return {"max_n": limit}


# ---------------------------------------------------------------------------
# core / quotient


@_check("corequotient", "core_properties")
def check_core_properties(max_n: int):
    """The core against the hook criterion (no hook divisible by t), n <= 25."""
    limit = min(max_n, 25)
    ts = [2, 3, 4, 5, 6]
    idempotent = set()  # (t, core) pairs already checked
    for n in range(limit + 1):
        cores = [_cores(n, t) for t in ts]
        for i, (shape, hooks) in enumerate(zip(_shapes(n), _hooks(n))):
            for t, rhos in zip(ts, cores):
                rho = rhos[i]
                if (t, rho) not in idempotent:
                    if core(rho, t) != rho:
                        return _fail({"n": n, "t": t},
                                     f"not idempotent at {shape.parts}")
                    idempotent.add((t, rho))
                if rho.size % t != n % t:
                    return _fail({"n": n, "t": t}, f"congruence fails at {shape.parts}")
                hook_free = not any(h % t == 0 for h in hooks)
                if is_core(shape, t) != hook_free or (rho == shape) != hook_free:
                    return _fail({"n": n, "t": t},
                                 f"hook criterion fails at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("corequotient", "fixed_core_counts")
def check_fixed_core_counts(max_n: int):
    """Enumerated core sizes against c_t(i) d_t(n - i), n <= 25, t = 2..5."""
    limit = min(max_n, 25)
    ts = [2, 3, 4, 5]
    for t in ts:
        cores_tab = counting.core_count_table(t, limit)
        divis_tab = counting.divisible_count_table(t, limit)
        for n in range(limit + 1):
            hist = Counter(rho.size for rho in _cores(n, t))
            for i in range(n + 1):
                if hist.get(i, 0) != divis_tab[n - i] * cores_tab[i]:
                    return _fail({"n": n, "t": t, "i": i}, "product formula mismatch")
    return {"max_n": limit, "t": ts}


@_check("corequotient", "division_bijection")
def check_division_bijection(max_n: int):
    """_divide against split_runners and justify on each runner, n <= 22, t = 2..5."""
    limit = min(max_n, 22)
    ts = [2, 3, 4, 5]
    for t in ts:
        for n in range(limit + 1):
            seen = set()
            for shape in _shapes(n):
                dc = decompose(shape, t)
                if dc.core.size + dc.divisible.size != n:
                    return _fail({"n": n, "t": t},
                                 f"size identity fails at {shape.parts}")
                if dc.divisible.size != t * sum(q.size for q in dc.quotient):
                    return _fail({"n": n, "t": t},
                                 f"quotient size fails at {shape.parts}")
                key = (dc.core, dc.divisible)
                if key in seen:
                    return _fail({"n": n, "t": t}, f"not injective at {shape.parts}")
                seen.add(key)
                if compose(dc.core, dc.quotient, t) != shape:
                    return _fail({"n": n, "t": t}, f"round trip fails at {shape.parts}")
                word = abacus.abacus_from_partition(shape)
                runners = abacus.split_runners(word, t).runners
                if corequotient._divide(shape, t) != (
                        tuple(abacus.justify(r)[1] for r in runners),
                        tuple(abacus.partition_from_abacus(r) for r in runners)):
                    return _fail({"n": n, "t": t},
                                 f"runner route differs at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("corequotient", "greedy_strip_oracle")
def check_strip_oracle(max_n: int):
    """The core against greedy rim-hook stripping, n <= 16, t = 2..5."""
    limit = min(max_n, 16)
    ts = [2, 3, 4, 5]
    for n in range(limit + 1):
        for i, shape in enumerate(_shapes(n)):
            for t in ts:
                if _cores(n, t)[i] != oracles.core_by_rim_stripping(shape, t):
                    return _fail({"n": n, "t": t}, f"mismatch at {shape.parts}")
    return {"max_n": limit, "t": ts}


# ---------------------------------------------------------------------------
# counting


@_check("counting", "triple_oracle")
def check_triple_oracle(max_n: int):
    """c_t against lattice points of f_t (n <= 30..60) and enumeration (n <= 30)."""
    gf_limit = max(min(max_n * 2, 60), 30)
    enum_limit = min(max_n, 30)
    for t in (2, 3, 4, 5, 6):
        table = counting.core_count_table(t, gf_limit)
        lattice = oracles.lattice_core_histogram(t, gf_limit)
        if tuple(table.values) != lattice:
            return _fail({"t": t}, "series vs lattice mismatch")
        for n in range(enum_limit + 1):
            brute = sum(1 for hooks in _hooks(n) if not any(h % t == 0 for h in hooks))
            if brute != table[n]:
                return _fail({"t": t, "n": n}, "series vs enumeration mismatch")
    return {"series_max_n": gf_limit, "enum_max_n": enum_limit}


@_check("counting", "core_sum_census")
def check_core_sum_census(max_n: int):
    """C_t against the distinct cores of enumerated partitions, n <= 30, t = 2..5."""
    limit = min(max_n, 30)
    ts = [2, 3, 4, 5]
    for t in ts:
        table = counting.core_sum_table(t, limit)
        for n in range(limit + 1):
            distinct = set(_cores(n, t))
            if len(distinct) != table[n]:
                return _fail({"t": t, "n": n}, "distinct-core census mismatch")
    return {"max_n": limit, "t": ts}


@_check("counting", "core_sum_difference")
def check_core_sum_difference(max_n: int):
    """C_t against dense products of Euler factors, n <= 200, t = 2..6."""
    # C is built by this recurrence, so the dense products check it too
    limit = 200
    for t in (2, 3, 4, 5, 6):
        c = counting.core_count_table(t, limit)
        big = counting.core_sum_table(t, limit)
        for n in range(limit + 1):
            prev = big[n - t] if n >= t else 0
            if c[n] != big[n] - prev:
                return _fail({"t": t, "n": n}, "difference identity fails")
        if big.values != oracles.core_sums_by_products(t, limit):
            return _fail({"t": t}, "series vs product oracle mismatch")
    return {"max_n": limit}


@_check("counting", "growth_ratio")
def check_growth_ratio(max_n: int):
    """c_t(n) against the bound 1.5 n^((t-2)/2), n <= 1600, t = 3..5."""
    # observed maxima are 2^(1/2) at t=3 and exactly 1 at t=4,5
    ts = [3, 4, 5]
    horizons = [100, 400, 1600]
    for t in ts:
        c = counting.core_count_table(t, horizons[-1])
        for horizon in horizons:
            peak = max(c[n] / n ** ((t - 2) / 2) for n in range(1, horizon + 1))
            if peak > 1.5:
                return _fail({"t": t, "N": horizon}, f"ratio {peak:.3f} exceeds bound")
    return {"t": ts, "N": horizons}


@_check("counting", "justification_form")
def check_justification_form(max_n: int):
    """f_t of each core's justification vector against its size, n <= 30, t = 2..5."""
    limit = min(max_n, 30)
    ts = [2, 3, 4, 5]
    for n in range(limit + 1):
        for t in ts:
            for shape, hooks in zip(_shapes(n), _hooks(n)):
                if any(h % t == 0 for h in hooks):
                    continue
                vec = justification_vector(shape, t)
                if sum(vec) != 0 or counting.f_t(vec, t) != n:
                    return _fail({"n": n, "t": t}, f"form value wrong at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("counting", "mod_solution_counts")
def check_mod_counts(max_n: int):
    """Residue-class solution counts of f_t against t^(t-2), t = 2..5."""
    ts = [2, 3, 4, 5]
    for t in ts:
        for residue in range(t):
            got = oracles.mod_solution_count(t, residue)
            if got != t ** (t - 2):
                return _fail({"t": t, "residue": residue},
                             f"got {got}, want {t ** (t - 2)}")
    return {"t": ts}


@_check("counting", "c3_divisor_oracle")
def check_divisor_oracle(max_n: int):
    """c_3 against divisor sums over 3n + 1 from one sieve, n <= max(max_n, 200)."""
    limit = max(max_n, 200)
    table = counting.core_count_table(3, limit)
    for n, count in enumerate(oracles.c3_divisor_counts(limit)):
        if count != table[n]:
            return _fail({"n": n}, "mismatch")
    return {"max_n": limit}


@_check("counting", "volume_identities")
def check_volume_identities(max_n: int):
    """Leading terms against lattice ball volumes, t = 2..8, and p(100) to 5%."""
    ts = range(2, 9)
    for t in ts:
        cov = oracles.lattice_covolume(t)
        if abs(cov - math.sqrt(t)) > 1e-12:
            return _fail({"t": t}, "covolume wrong")
        lead = counting.core_sum_leading_term(t, 50)
        alt = oracles.ball_volume(t, 50) / t ** 1.5
        if abs(lead - alt) > 1e-12 * max(1.0, abs(lead)):
            return _fail({"t": t}, "leading term vs ball volume mismatch")
    v2 = oracles.ball_volume(2, 10)
    if abs(v2 - 2.0 * math.sqrt(10 + 0.125)) > 1e-12:
        return _fail({"t": 2}, "V_2 closed form")
    p100 = counting.partition_count_table(100)[100]
    est = counting.asymptotic_estimates(3, 100).partition_leading
    if abs(est - p100) / p100 > 0.05:
        return _fail({"n": 100}, "partition estimate off by more than 5%")
    return {"t": f"{ts[0]}..{ts[-1]}"}


# ---------------------------------------------------------------------------
# distribution


@_check("distribution", "pmf_exhaustive")
def check_pmf_exhaustive(max_n: int):
    """Each core-size mass against enumerated partitions' cores, n <= 22, t = 2..5."""
    limit = min(max_n, 22)
    ts = [2, 3, 4, 5]
    for t in ts:
        for n in range(limit + 1):
            pmf = distribution.core_size_pmf(t, n)
            if pmf.total() != 1:
                return _fail({"t": t, "n": n}, "masses do not sum to 1")
            hist = Counter(rho.size for rho in _cores(n, t))
            total = sum(hist.values())
            for k in set(hist) | set(pmf.masses):
                if pmf.masses.get(k, Fraction(0)) != Fraction(hist.get(k, 0), total):
                    return _fail({"t": t, "n": n, "k": k}, "mass mismatch")
    return {"max_n": limit, "t": ts}


@_check("distribution", "gamma_function")
def check_gamma_function(max_n: int):
    """The gamma CDF against the exponential and erf closed forms at six points."""
    beta = math.pi / math.sqrt(6.0)
    for x in (0.25, 0.5, 1.0, 2.0, 5.0, 12.0):
        g = distribution.gamma_cdf(distribution.GammaParams(1.0, beta), x)
        if abs(g - (1.0 - math.exp(-beta * x))) > 1e-10:
            return _fail({"alpha": 1, "x": x}, "exponential closed form")
        g = distribution.gamma_cdf(distribution.GammaParams(0.5, 1.0), x)
        if abs(g - math.erf(math.sqrt(x))) > 1e-10:
            return _fail({"alpha": 0.5, "x": x}, "error-function closed form")
    params = distribution.gamma_params(5)
    for k in range(6):
        lhs = distribution.gamma_moment(params, k + 1)
        rhs = distribution.gamma_moment(params, k) * (k + params.alpha) / params.beta
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
            return _fail({"k": k}, "moment recurrence")
    return {}


@_check("distribution", "distance_trend")
def check_distance_trend(max_n: int):
    """The CDF distance to the gamma limit shrinks, t = 5, n = 20, 62, 103."""
    ns = [20, 62, 103]
    params = distribution.gamma_params(5)
    dists = [
        distribution.cdf_sup_distance(distribution.core_size_pmf(5, n), params)
        for n in ns
    ]
    ok = dists[0] > dists[1] > dists[2]
    return ({"t": 5, "n": ns}, ok,
            "distances " + ", ".join(f"{d:.6f}" for d in dists))


@_check("distribution", "expectation_trend")
def check_expectation_trend(max_n: int):
    """The sigma-series mean against the core-size law's, t = 3, n = 25, 50, 100."""
    exact100, asym100 = distribution.expected_core_size(3, 100)
    if abs(float(exact100) - asym100) / asym100 > 0.15:
        return _fail({"n": 100}, "exact mean beyond 15% of asymptote")
    ns = [25, 50, 100]
    ratios = []
    for n in ns:
        exact, asym = distribution.expected_core_size(3, n)
        # the sigma-series mean against the mean of the exact core-size law
        pmf = distribution.core_size_pmf(3, n)
        if exact != Fraction(sum(k * w for k, w in pmf.weights.items()), pmf.denominator):
            return _fail({"n": n}, "sigma-series mean differs from the core-size law's")
        ratios.append(float(exact) / asym)
    ok = all(
        abs(ratios[i + 1] - 1.0) < abs(ratios[i] - 1.0) + 0.02
        for i in range(len(ratios) - 1)
    )
    return ({"t": 3, "n": ns}, ok,
            "ratios " + ", ".join(f"{r:.5f}" for r in ratios))


@_check("distribution", "moment_trend")
def check_moment_trend(max_n: int):
    """Scaled moments approach the gamma moments, t = 3, n = 100, 400, 1600."""
    ks = [1, 2, 3]
    params = distribution.gamma_params(3)
    pmfs = [distribution.core_size_pmf(3, n) for n in (100, 400, 1600)]
    for k in ks:
        target = distribution.gamma_moment(params, k)
        diffs = [abs(distribution.scaled_moment(pmf, k) - target) for pmf in pmfs]
        if not (diffs[0] > diffs[1] > diffs[2]):
            return _fail({"t": 3, "k": k},
                         "differences " + ", ".join(f"{d:.6f}" for d in diffs))
    return {"t": 3, "k": ks}


# ---------------------------------------------------------------------------
# hook statistics


@_check("hookstats", "residue_identities")
def check_residue_identities(max_n: int):
    """Each residue census against its core's census, n <= 22, t = 2..6."""
    limit = min(max_n, 22)
    ts = [2, 3, 4, 5, 6]
    for n in range(limit + 1):
        cores = [_cores(n, t) for t in ts]
        for i, shape in enumerate(_shapes(n)):
            for t, rhos in zip(ts, cores):
                rho = rhos[i]
                counts = hookstats.residue_census(shape, t)
                core_counts = hookstats.residue_census(rho, t)
                moved = (n - rho.size) // t
                if counts[0] != moved:
                    return _fail({"n": n, "t": t}, f"residue-0 count at {shape.parts}")
                for r in range(1, t):
                    if 2 * r == t:
                        if counts[r] != moved + core_counts[r]:
                            return _fail({"n": n, "t": t, "r": r},
                                         f"half-class count at {shape.parts}")
                    elif counts[r] + counts[t - r] != (
                        2 * moved + core_counts[r] + core_counts[t - r]
                    ):
                        return _fail({"n": n, "t": t, "r": r},
                                     f"pair-class count at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("hookstats", "orbit_table")
def check_orbit_table(max_n: int):
    """Images and smoothings of (7, 3, 2) against a hand-computed table, t = 3."""
    nu, t = make_partition([7, 3, 2]), 3
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
        image = hookstats.act_on_divisible(sigma, nu, t)
        if image.parts != parts:
            return _fail({"word": word}, f"image {image.parts}, want {parts}")
        for b, cells in expected_smoothings.items():
            got = hookstats.b_smoothing(image, t, b).parts
            if got != cells:
                return _fail({"word": word, "b": b}, f"smoothing {got}, want {cells}")
    return {"nu": list(nu.parts), "t": t}


@_check("hookstats", "orbit_equidistribution")
def check_orbit_equidistribution(max_n: int):
    """Smoothing cells' diagram hooks balance over each orbit, size <= 24, t = 3."""
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
                    region = hookstats._smoothing_cells(member, t, b)
                    if region.size:
                        empty_everywhere = False
                    for cell in region.cells():
                        totals[hook_length(member, cell) % t] += 1
                nonzero = totals[1:]
                if any(x != nonzero[0] for x in nonzero):
                    return _fail({"m": m, "b": b, "orbit_of": nu.parts},
                                 f"totals {totals}")
                if empty_everywhere:
                    break
    return {"max_size": limit, "t": t}


@_check("hookstats", "action_properties")
def check_action_properties(max_n: int):
    """The quotient action against runner shifts, n <= 14, t = 2, 3."""
    limit = min(max_n, 14)
    ts = [2, 3]
    for n in range(limit + 1):
        index = {shape: i for i, shape in enumerate(_shapes(n))}
        for i, shape in enumerate(_shapes(n)):
            for t in ts:
                cores = _cores(n, t)
                # one division of shape for all t! images, the identity's first
                sigmas = list(permutations(range(t)))
                for sigma, image in zip(sigmas, hookstats._images(shape, t, sigmas)):
                    if sigma == sigmas[0] and image != shape:
                        return _fail({"n": n, "t": t}, f"identity fails at {shape.parts}")
                    # an image of size n has an index, and its core is the corpus's
                    if image not in index or cores[index[image]] != cores[i]:
                        return _fail({"n": n, "t": t},
                                     f"size/core not preserved at {shape.parts}")
                    if image != oracles.act_on_partition_via_shifts(
                        sigma, shape, t
                    ):
                        return _fail({"n": n, "t": t},
                                     f"shift route disagrees at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("hookstats", "smoothing_bounds")
def check_smoothing_bounds(max_n: int):
    """Canonical smoothings against the spread and small-hook bounds, n <= 20."""
    limit = min(max_n, 20)
    ts = [2, 3, 4, 5]
    for n in range(limit + 1):
        for i, shape in enumerate(_shapes(n)):
            for t in ts:
                # the divisible part, its quotient on balanced runners
                nu = corequotient._assemble((0,) * t, corequotient._divide(shape, t)[1], t)
                b, cells = hookstats.canonical_smoothing(shape, t)
                if b > 2.0 * math.sqrt(_cores(n, t)[i].size) + 1e-12:
                    return _fail({"n": n, "t": t},
                                 f"spread bound fails at {shape.parts}")
                uncovered = nu.size - cells.size
                small = hookstats.small_hook_count(nu, t * (b + 1))
                if uncovered > small:
                    return _fail({"n": n, "t": t},
                                 f"coverage bound fails at {shape.parts}")
    return {"max_n": limit, "t": ts}


@_check("hookstats", "small_hook_bound")
def check_small_hook_bound(max_n: int):
    """Hooks below m against the bound m sqrt(2n), n <= 30."""
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
                    return _fail({"n": n, "m": m}, f"bound fails at {shape.parts}")
    return {"max_n": limit}


@_check("hookstats", "phi_injection")
def check_phi_injection(max_n: int):
    """phi against the diagram hooks at both ends of each cell, n <= 18, t = 2..4."""
    limit = min(max_n, 18)
    ts = [2, 3, 4]
    for n in range(limit + 1):
        for shape in _shapes(n):
            for t in ts:
                nu = corequotient._assemble((0,) * t, corequotient._divide(shape, t)[1], t)
                mapping = hookstats.phi_map(shape, t)
                if len(set(mapping.values())) != len(mapping):
                    return _fail({"n": n, "t": t}, f"not injective at {shape.parts}")
                for src, dst in mapping.items():
                    if (hook_length(nu, src) % t
                            != hook_length(shape, dst) % t):
                        return _fail({"n": n, "t": t},
                                     f"residue broken at {shape.parts} {src}")
    return {"max_n": limit, "t": ts}


@_check("hookstats", "residue_trend")
def check_residue_trend(max_n: int):
    """Residue 0 of the hook law against 3 S_3(n) / (n p(n)), n = 10, 20, 40."""
    points = [n for n in (10, 20, 40) if n <= max(max_n, 20)]
    devs = []
    for n in points:
        xs = hookstats.exact_residue_distribution(3, n)
        if sum(xs) != 1:
            return _fail({"n": n}, "not normalized")
        # the cells with hook divisible by 3 number 3 S_3(n) (Bacher-Manivel)
        cells = n * counting.partition_count_table(n)[n]
        if xs[0] != Fraction(3 * counting.sigma_sum_table(3, n)[n], cells):
            return _fail({"n": n}, "residue 0 differs from 3 S_3(n) / (n p(n))")
        devs.append(max(abs(x - Fraction(1, 3)) for x in xs))
    ok = all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    if 40 in points:
        ok = ok and devs[-1] < Fraction(8, 100)
    return ({"t": 3, "n": points}, ok,
            "max deviations " + ", ".join(f"{float(d):.5f}" for d in devs))


# ---------------------------------------------------------------------------
# sampling


@_check("sampling", "sampler_table")
def check_sampler_table(max_n: int):
    """Sampler row totals against p(m) and the cell recurrence, m <= 40..100."""
    limit = min(max(max_n, 40), 100)
    table = sampling.build_sampler(limit)
    p = counting.partition_count_table(limit)
    for m in range(limit + 1):
        if table.count(m, m) != p[m]:
            return _fail({"m": m}, "row total wrong")
        # cells past m/4 come from Euler's identity, so the recurrence
        # crosses the stored quarter and the derived rest of each row
        for k in range(1, m + 1):
            if table.count(m, k) != table.count(m, k - 1) + table.count(m - k, k):
                return _fail({"m": m, "k": k}, "recurrence fails")
    return {"max_n": limit}


@_check("sampling", "unrank_bijection")
def check_unrank_bijection(max_n: int):
    """Unranked partitions against enumeration, n <= 10."""
    limit = 10
    for n in range(limit + 1):
        table = sampling.build_sampler(n)
        seen = {sampling.unrank_partition(table, r) for r in range(table.total)}
        if seen != set(_shapes(n)):
            return _fail({"n": n}, "rank map is not a bijection")
    return {"max_n": limit}


@_check("sampling", "sampler_frequencies")
def check_sampler_frequencies(max_n: int, seed: int, samples: int):
    """Drawn frequencies against 1/p(8) within six standard errors, n = 8."""
    n = 8
    table = sampling.build_sampler(n)
    # p(8) = 22 distinct ranks: each is unranked once, however often drawn
    ranks = Counter(rank for rank, in sampling.index_draws(seed, samples, table.total))
    counts = Counter()
    for rank, drawn in ranks.items():
        counts[sampling.unrank_partition(table, rank).parts] += drawn
    share = 1.0 / table.total
    worst = max(abs(counts.get(shape.parts, 0) / samples - share) for shape in _shapes(n))
    # six binomial standard errors of 1/p(8) at this many samples
    bound = 6.0 * math.sqrt(share * (1.0 - share) / samples)
    return ({"n": n, "samples": samples, "seed": seed},
            worst <= bound, f"max frequency deviation {worst:.5f}")


# ---------------------------------------------------------------------------
# running


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
    max_n = _require_int(max_n, "max_n", 0)
    if max_n > counting.SERIES_MAX_N:
        raise ValueError(f"verify is capped at max_n={counting.SERIES_MAX_N} "
                         f"(the counting series cap); got max_n={max_n}")
    samples = _require_int(samples, "samples", 1)
    seed = _require_int(seed, "seed")
    report = VerificationReport(suite=name, master_seed=seed)
    start = time.perf_counter()
    for fn in checks:
        if fn is check_sampler_frequencies:
            report.cases.append(fn(max_n, seed, samples))
        else:
            report.cases.append(fn(max_n))
    report.elapsed_ms = int((time.perf_counter() - start) * 1000)
    return report
