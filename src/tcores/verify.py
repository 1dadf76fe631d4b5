"""Desk-scale verification suite: brute-force checks of every finite-n
identity the library relies on, runnable from the CLI.

Each case checks one identity, bound or trend at a stated scale and reports
a CaseResult; a suite passes only if every case does.  Most cases judge a
production code path against an independent route (exhaustive enumeration,
a route in `oracles`, a second formula, a closed form or a hand-computed
table), an identity it must satisfy, or a bound.  A few check the second
routes themselves: the bit-word abacus against bead positions and the rim
walk, the residue counts of f_t against t^(t-2), the lattice covolume
against sqrt(t).  The trend cases check that exact laws move toward their
gamma limits.  An exhaustive sweep is
one private predicate that judges a single n (and t) under its stated cap and
t list; one runner sweeps it up to min(max_n, cap), and `point` runs a single
point of it, so a unit test checks the identity through the same body.
"""
from __future__ import annotations

import functools
import json
import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import accumulate, permutations

from . import abacus, corequotient, counting, distribution, hookstats, oracles, sampling
from .corequotient import _beads, compose, core, decompose, is_core, justification_vector
from .oracles import arm_length, hook_length, leg_length, remove_rim_hook
from .partitions import (
    EMPTY,
    Cell,
    PartitionShape,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    _require_int,
    make_partition,
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


# sweep case name -> (its predicate, cap, t list or None)
_SWEEPS: dict[str, tuple] = {}


def _sweep(suite: str, name: str, cap: int, ts: range | None = None):
    """Register the predicate below as the sweep case `name` of `suite`, and
    bind its name to the case's check(max_n).  The predicate judges one point,
    `point(n, t)` for each t of `ts` or `point(n)` without a t list, and
    returns None or (the failing row's extra keys, detail); the check runs it
    at n = 0..min(max_n, cap) and fails at the first row {"n", "t", **extra}."""
    def register(predicate):
        _SWEEPS[name] = predicate, cap, ts
        rows = [{}] if ts is None else [{"t": t} for t in ts]

        def sweep(max_n: int):
            limit = min(max_n, cap)
            for n in range(limit + 1):
                for row in rows:
                    failure = predicate(n, **row)
                    if failure is not None:
                        extra, detail = failure
                        return _fail({"n": n, **row, **extra}, detail)
            return {"max_n": limit} if ts is None else {"max_n": limit, "t": list(ts)}

        return _check(suite, name)(functools.update_wrapper(sweep, predicate))

    return register


def point(name: str, n: int, t: int | None = None):
    """The predicate of the sweep case `name` at n (and t): None or (the
    failing row's extra keys, detail), with n held to its cap, t to its list."""
    if name not in _SWEEPS:
        raise ValueError(f"unknown sweep case {name!r}; choose from {sorted(_SWEEPS)}")
    predicate, cap, ts = _SWEEPS[name]
    n = _require_int(n, "n", 0, cap)
    if ts is not None:
        return predicate(n, _require_int(t, "t", ts[0], ts[-1]))
    if t is not None:
        raise ValueError(f"{name} has no t list, got t={t!r}")
    return predicate(n)


# ---------------------------------------------------------------------------
# the shared corpus
#
# Many cases sweep the same partitions, their words, t-cores and divisible
# parts.  Each is built once per process, so no point rebuilds what another
# point or case already has; the case caps bound it all to n <= 30 and t <= 6
# (about 17 MB; the words take 2.5 MB, the divisible parts' tuples 0.1 MB).


@functools.cache
def _shapes(n: int) -> tuple[PartitionShape, ...]:
    return tuple(enumerate_partitions(n))


@functools.cache
def _index(n: int) -> dict[PartitionShape, int]:
    return {shape: i for i, shape in enumerate(_shapes(n))}


@functools.cache
def _hooks(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(hook_lengths(shape) for shape in _shapes(n))


@functools.cache
def _words(n: int) -> tuple[abacus.AbacusWord, ...]:
    return tuple(abacus.abacus_from_partition(shape) for shape in _shapes(n))


@functools.cache
def _cores(n: int, t: int) -> tuple[PartitionShape, ...]:
    # only each shape's positions are read; a t-core is fixed by that vector
    # (James and Kerber 2.7), so each distinct vector is assembled once and
    # the cores are interned by it
    vectors = [corequotient._positions(shape, t) for shape in _shapes(n)]
    interned = {v: corequotient._assemble(v, (EMPTY,) * t, t) for v in set(vectors)}
    return tuple(interned[v] for v in vectors)


@functools.cache
def _divisibles(n: int, t: int) -> tuple[PartitionShape, ...]:
    # smoothing_bounds and phi_injection read divisible parts.  Each shape is
    # divided here, as _cores reads positions only, and each part is
    # assembled and interned as the corpus's own shape of its size
    parts = (corequotient._assemble((0,) * t, corequotient._divide(shape, t)[1], t)
             for shape in _shapes(n))
    return tuple(_shapes(nu.size)[_index(nu.size)[nu]] for nu in parts)


# ---------------------------------------------------------------------------
# partitions


@_sweep("partitions", "hook_multiset_conjugation", 30)
def check_hook_multisets(n: int):
    """Hooks of each shape against its conjugate's hooks, n <= 30."""
    for shape, hooks in zip(_shapes(n), _hooks(n)):
        hooks = sorted(hooks)
        if len(hooks) != n or hooks != sorted(hook_lengths(conjugate(shape))):
            return {}, f"failed at {shape.parts}"


@_sweep("partitions", "arm_leg_hook", 14)
def check_arm_leg_hook(n: int):
    """The arm and leg scans plus 1 against hook_lengths cell by cell, n <= 14."""
    for shape, hooks in zip(_shapes(n), _hooks(n)):
        for cell, hook in zip(shape.cells(), hooks):
            if arm_length(shape, cell) + leg_length(shape, cell) + 1 != hook:
                return {}, f"failed at {shape.parts} {cell}"


@_sweep("partitions", "rim_hook_removal", 14)
def check_rim_hook_removal(n: int):
    """Sizes after the rim walk against n minus hook_lengths' hook, n <= 14."""
    for shape, hooks in zip(_shapes(n), _hooks(n)):
        for cell, hook in zip(shape.cells(), hooks):
            if remove_rim_hook(shape, cell).size != n - hook:
                return {}, f"bad size at {shape.parts} {cell}"


@_sweep("partitions", "enumeration_count", 40)
def check_enumeration_count(n: int):
    """Enumerated partitions against the p series, n <= 40."""
    if sum(1 for _ in enumerate_partitions(n)) != counting.partition_count_table(n)[n]:
        return {}, "count mismatch"


# ---------------------------------------------------------------------------
# abacus


@_sweep("abacus", "abacus_pair_statistics", 25)
def check_pair_statistics(n: int):
    """Bit-word pair spans and bit counts against hook_lengths and arms, n <= 25."""
    for shape, word, hooks in zip(_shapes(n), _words(n), _hooks(n)):
        pairs = abacus.inversion_pairs(word)
        if len(pairs) != n:
            return {}, f"pair count at {shape.parts}"
        # the leg counts the 1s strictly between the pair, the arm its 0s
        ones = list(accumulate(word.window, initial=0))
        legs = [ones[j - word.offset] - ones[i - word.offset] for i, j in pairs]
        stats = sorted((j - i, j - i - 1 - leg, leg) for (i, j), leg in zip(pairs, legs))
        # row-major like the hooks, the arm of (r, c) is width - c
        arms = [width - c for width in shape.parts for c in range(1, width + 1)]
        cells = sorted((h, arm, h - 1 - arm) for h, arm in zip(hooks, arms))
        if stats != cells:
            return {}, f"hook/arm/leg mismatch at {shape.parts}"


@_sweep("abacus", "abacus_swap_rim_hook", 20, range(2, 6))
def check_swap_is_rim_hook(n: int, t: int):
    """Swapping a bead pair t apart against the rim walk, n <= 20, t = 2..5."""
    for shape, word, hooks in zip(_shapes(n), _words(n), _hooks(n)):
        # a bead and the gap h below it are the cell of the bead's row with
        # hook h; the hooks run row by row, row r's from starts[r]
        beads = _beads(shape.parts)
        starts = list(accumulate(shape.parts, initial=0))
        window = word.window
        # the word is 1 below its window and 0 above it, so a 0 with a 1 t
        # places on lies inside the window
        for k in range(len(window) - t):
            if window[k] == 0 and window[k + t] == 1:
                bits = list(window)
                bits[k], bits[k + t] = 1, 0
                swapped = abacus.partition_from_abacus(abacus.make_word(bits, word.offset))
                i = word.offset + k
                r = beads.index(i + t)
                c = hooks.index(t, starts[r], starts[r + 1]) - starts[r]
                if swapped != remove_rim_hook(shape, Cell(r + 1, c + 1)):
                    return {}, f"mismatch at {shape.parts} pair ({i},{i+t})"


@_sweep("abacus", "abacus_roundtrip", 25)
def check_word_roundtrip(n: int):
    """The word's 1-positions against the bead positions read off the parts
    (corequotient._beads), then its read-back, shifts and runners, n <= 25."""
    for shape, word in zip(_shapes(n), _words(n)):
        ones = [word.offset + k for k, bit in enumerate(word.window) if bit]
        if ones[::-1] != _beads(shape.parts):
            return {}, f"bead positions differ at {shape.parts}"
        if abacus.partition_from_abacus(word) != shape:
            return {}, f"read-back failed for {shape.parts}"
        if abacus.abacus_from_partition(abacus.partition_from_abacus(word)) != word:
            return {}, f"identity failed for {shape.parts}"
        for k in (-3, 1, 2):
            if abacus.partition_from_abacus(abacus.shift(word, k)) != shape:
                return {}, f"shift invariance failed for {shape.parts}"
        for t in (2, 3, 5):
            if abacus.merge_runners(abacus.split_runners(word, t)) != word:
                return {}, f"split/merge failed for {shape.parts}"


# ---------------------------------------------------------------------------
# core / quotient


@_sweep("corequotient", "core_properties", 25, range(2, 7))
def check_core_properties(n: int, t: int):
    """The core against the hook criterion (no hook divisible by t), n <= 25."""
    for rho in dict.fromkeys(_cores(n, t)):  # each distinct core once
        if core(rho, t) != rho:
            return {}, f"not idempotent at {rho.parts}"
    for shape, hooks, rho in zip(_shapes(n), _hooks(n), _cores(n, t)):
        if rho.size % t != n % t:
            return {}, f"congruence fails at {shape.parts}"
        hook_free = not any(h % t == 0 for h in hooks)
        if is_core(shape, t) != hook_free or (rho == shape) != hook_free:
            return {}, f"hook criterion fails at {shape.parts}"


@_sweep("corequotient", "fixed_core_counts", 25, range(2, 6))
def check_fixed_core_counts(n: int, t: int):
    """Enumerated core sizes against c_t(i) d_t(n - i), n <= 25, t = 2..5."""
    hist = Counter(rho.size for rho in _cores(n, t))
    cores = counting.core_count_table(t, n)
    divisibles = counting.divisible_count_table(t, n)
    for i in range(n + 1):
        if hist.get(i, 0) != divisibles[n - i] * cores[i]:
            return {"i": i}, "product formula mismatch"


@_sweep("corequotient", "division_bijection", 22, range(2, 6))
def check_division_bijection(n: int, t: int):
    """_divide against split_runners and justify on each runner, n <= 22, t = 2..5."""
    seen = set()
    for shape, word in zip(_shapes(n), _words(n)):
        dc = decompose(shape, t)
        if dc.core.size + dc.divisible.size != n:
            return {}, f"size identity fails at {shape.parts}"
        if dc.divisible.size != t * sum(q.size for q in dc.quotient):
            return {}, f"quotient size fails at {shape.parts}"
        key = (dc.core, dc.divisible)
        if key in seen:
            return {}, f"not injective at {shape.parts}"
        seen.add(key)
        if compose(dc.core, dc.quotient, t) != shape:
            return {}, f"round trip fails at {shape.parts}"
        runners = abacus.split_runners(word, t).runners
        if corequotient._divide(shape, t) != (
                tuple(abacus.justify(r)[1] for r in runners),
                tuple(abacus.partition_from_abacus(r) for r in runners)):
            return {}, f"runner route differs at {shape.parts}"


@_sweep("corequotient", "greedy_strip_oracle", 16, range(2, 6))
def check_strip_oracle(n: int, t: int):
    """The core against greedy rim-hook stripping, n <= 16, t = 2..5."""
    for shape, rho in zip(_shapes(n), _cores(n, t)):
        if rho != oracles.core_by_rim_stripping(shape, t):
            return {}, f"mismatch at {shape.parts}"


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


@_sweep("counting", "core_sum_census", 30, range(2, 6))
def check_core_sum_census(n: int, t: int):
    """C_t against the distinct cores of enumerated partitions, n <= 30, t = 2..5."""
    if len(set(_cores(n, t))) != counting.core_sum_table(t, n)[n]:
        return {}, "distinct-core census mismatch"


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


@_sweep("counting", "justification_form", 30, range(2, 6))
def check_justification_form(n: int, t: int):
    """f_t of each core's justification vector against its size, n <= 30, t = 2..5."""
    for shape, hooks in zip(_shapes(n), _hooks(n)):
        if any(h % t == 0 for h in hooks):
            continue
        vec = justification_vector(shape, t)
        if sum(vec) != 0 or counting.f_t(vec, t) != n:
            return {}, f"form value wrong at {shape.parts}"


@_check("counting", "mod_solution_counts")
def check_mod_counts(max_n: int):
    """Residue-class solution counts of f_t against t^(t-2), t = 2..5."""
    ts = [2, 3, 4, 5]
    for t in ts:
        for residue, got in enumerate(oracles.mod_solution_counts(t)):
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


@_sweep("distribution", "pmf_exhaustive", 22, range(2, 6))
def check_pmf_exhaustive(n: int, t: int):
    """Each core-size mass against enumerated partitions' cores, n <= 22, t = 2..5."""
    pmf = distribution.core_size_pmf(t, n)
    if pmf.total() != 1:
        return {}, "masses do not sum to 1"
    hist = Counter(rho.size for rho in _cores(n, t))
    total = sum(hist.values())
    for k in set(hist) | set(pmf.masses):
        if pmf.masses.get(k, Fraction(0)) != Fraction(hist.get(k, 0), total):
            return {"k": k}, "mass mismatch"


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


@_sweep("hookstats", "residue_identities", 22, range(2, 7))
def check_residue_identities(n: int, t: int):
    """Each residue census against its core's census, n <= 22, t = 2..6."""
    for shape, rho in zip(_shapes(n), _cores(n, t)):
        counts = hookstats.residue_census(shape, t)
        core_counts = hookstats.residue_census(rho, t)
        moved = (n - rho.size) // t
        if counts[0] != moved:
            return {}, f"residue-0 count at {shape.parts}"
        for r in range(1, t):
            if 2 * r == t:
                if counts[r] != moved + core_counts[r]:
                    return {"r": r}, f"half-class count at {shape.parts}"
            elif counts[r] + counts[t - r] != (
                2 * moved + core_counts[r] + core_counts[t - r]
            ):
                return {"r": r}, f"pair-class count at {shape.parts}"


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


@_sweep("hookstats", "action_properties", 14, range(2, 4))
def check_action_properties(n: int, t: int):
    """The quotient action against runner shifts, n <= 14, t = 2, 3."""
    index, cores = _index(n), _cores(n, t)
    sigmas = list(permutations(range(t)))
    for shape, rho in zip(_shapes(n), cores):
        # one division of shape for all t! images, the identity's first, and
        # one runner split for the shift route's
        images = hookstats._images(corequotient._divide(shape, t), t, sigmas)
        shifted = oracles.images_via_shifts(shape, t, sigmas)
        for sigma, image, moved in zip(sigmas, images, shifted):
            if sigma == sigmas[0] and image != shape:
                return {}, f"identity fails at {shape.parts}"
            # an image of size n has an index, and its core is the corpus's
            if image not in index or cores[index[image]] != rho:
                return {}, f"size/core not preserved at {shape.parts}"
            if image != moved:
                return {}, f"shift route disagrees at {shape.parts}"


@_sweep("hookstats", "smoothing_bounds", 20, range(2, 6))
def check_smoothing_bounds(n: int, t: int):
    """Canonical smoothings against the spread and small-hook bounds, n <= 20."""
    for shape, rho, nu in zip(_shapes(n), _cores(n, t), _divisibles(n, t)):
        b, cells = hookstats.canonical_smoothing(shape, t)
        if b > 2.0 * math.sqrt(rho.size) + 1e-12:
            return {}, f"spread bound fails at {shape.parts}"
        # equality can occur (the single-column ribbons, for one), so only
        # the non-strict form of the coverage bound holds
        if nu.size - cells.size > hookstats.small_hook_count(nu, t * (b + 1)):
            return {}, f"coverage bound fails at {shape.parts}"


@_sweep("hookstats", "small_hook_bound", 30)
def check_small_hook_bound(n: int):
    """Hooks below m against the bound m sqrt(2n), n <= 30, and
    small_hook_count against the sorted hooks at each shape's largest hook."""
    root = math.sqrt(2.0 * n)
    for shape, hooks in zip(_shapes(n), _hooks(n)):
        hooks = sorted(hooks)
        for m in range(1, n + 1):
            if not bisect_left(hooks, m) < m * root:
                return {"m": m}, f"bound fails at {shape.parts}"
        # below the largest hook lie the hooks before its first copy, not it
        top = max(hooks, default=0)
        if hookstats.small_hook_count(shape, top) != bisect_left(hooks, top):
            return {"m": top}, f"small_hook_count differs at {shape.parts}"


@_sweep("hookstats", "phi_injection", 18, range(2, 5))
def check_phi_injection(n: int, t: int):
    """phi against the diagram hooks at both ends of each cell, n <= 18, t = 2..4."""
    for shape, nu in zip(_shapes(n), _divisibles(n, t)):
        mapping = hookstats.phi_map(shape, t)
        if len(set(mapping.values())) != len(mapping):
            return {}, f"not injective at {shape.parts}"
        for src, dst in mapping.items():
            if hook_length(nu, src) % t != hook_length(shape, dst) % t:
                return {}, f"residue broken at {shape.parts} {src}"


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
        # from m = 16 on, cells past m/4 come from Euler's identity, so the
        # recurrence crosses the stored quarter and the derived rest of a row
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
