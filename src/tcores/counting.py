"""Exact counting engines: p(n), t-core counts, t-divisible counts, their
running sums, the divisor-weighted sums behind the expected core size, the
quadratic form behind core sizes, and leading-order estimates.

The five integer series share one engine built on the sparse Euler factor
E(x) = prod (1 - x^k) (see below).  Each power E^j and 1/E^j is kept once,
for every t, and c, C and S as one list per (kind, t), as are
distribution's exact means E[core size] (kind "mean"); all of them only
grow, so a request extends them from where they stopped and is served as a
prefix, under one module lock.  d_t is spread out of P^t on each request.
"""
from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .partitions import _require_int, _require_t

# every series is refused beyond this n: each table holds n + 1 big integers,
# so time and memory grow with it; the cost at the cap is in README's caps table
SERIES_MAX_N = 50_000


@dataclass(frozen=True)
class SeriesTable:
    """Coefficients 0..max_n of one counting sequence.

    kind is one of "p" (partitions), "c" (t-cores), "d" (t-divisible),
    "C" (distinct cores among partitions of n) or "S" (the sums
    S_t(n) = sum_{j>=1} sigma(j) p(n - tj)); t is None for "p".
    """

    kind: str
    t: int | None
    values: tuple[int, ...]

    @property
    def max_n(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# the series engine
#
# Euler's pentagonal theorem makes E(x) = prod_{k>=1} (1 - x^k) sparse:
# E(x) = sum over all integers k of (-1)^k x^{k(3k-1)/2}.  With P = 1/E:
#   p    = P, by the pentagonal recurrence (one sparse division),
#   c_t  = P * E(x^t)^t (Garvan-Kim-Stanton): E^t on the grid m = n/t, then
#          one sparse division by E(x), so every intermediate coefficient
#          stays a small integer,
#   d_t  = P(x^t)^t, so d_t(t*m) = [x^m] P^t,
#   C_t(n) = C_t(n-t) + c_t(n),
#   S_t  = P * (-y E'(y)) / E(y) with y = x^t, since sum_j sigma(j) y^j is
#          -y E'(y) / E(y); so E(x^t) * S = P * (-y E'(y)), and each new
#          coefficient is one sparse pass over the pentagonal terms g <= n/t:
#          S(n) = -sum_g sign_g * (g * p(n - tg) + S(n - tg)).
# The powers E^j and P^j do not depend on t, so each is kept once and shared
# by every t: E^{j+1} is one sparse product of E^j by E, P^{j+1} one sparse
# division of P^j by E.  Every list grows in place, so a longer request
# resumes where the last one stopped and a shorter one is served as a prefix.

_LOCK = threading.Lock()
_E_POWERS: list[list[int]] = []               # E^j at index j - 1
_P_POWERS: list[list[int]] = []               # P^j = E^-j at index j - 1
_SERIES: dict[tuple[str, int], list] = {}      # (kind, t) -> c, C, S or mean


def clear_tables() -> None:
    """Drop every grown series; the next request rebuilds from scratch."""
    with _LOCK:
        _E_POWERS.clear()
        _P_POWERS.clear()
        _SERIES.clear()


def _pentagonal_terms(limit: int) -> list[tuple[int, int]]:
    """(g, sign) for the terms sign * x^g of E(x) with 0 < g <= limit, in
    increasing g."""
    terms = []
    k = 1
    while True:
        sign = -1 if k % 2 else 1
        g = k * (3 * k - 1) // 2
        if g > limit:
            return terms
        terms.append((g, sign))
        if g + k <= limit:
            terms.append((g + k, sign))
        k += 1


def _multiply_grow(out: list[int], src: list[int], hi: int) -> None:
    """Extend out = src * E(x) through index hi."""
    lo = len(out)
    if lo > hi:
        return
    new = src[lo:hi + 1]
    for g, sign in _pentagonal_terms(hi):
        start = max(lo, g)
        tail = new[start - lo:]
        segment = src[start - g:hi + 1 - g]
        new[start - lo:] = map(operator.sub if sign < 0 else operator.add, tail, segment)
    out.extend(new)


def _divide_grow(q: list[int], src: list[int] | None, hi: int, step: int = 1) -> None:
    """Extend q = src(x^step) / E(x) through index hi; src None is the zero
    series, for a q seeded with its leading terms."""
    if len(q) > hi:
        return
    terms = _pentagonal_terms(hi)
    for m in range(len(q), hi + 1):
        total = src[m // step] if src is not None and m % step == 0 else 0
        for g, sign in terms:
            if g > m:
                break
            if sign < 0:
                total += q[m - g]
            else:
                total -= q[m - g]
        q.append(total)


def _power(j: int, hi: int) -> list[int]:
    """E^j through index hi for j != 0, so P^-j for j < 0; grows the powers
    of the same sign from 1 up to |j|, each from the one before."""
    powers = _E_POWERS if j > 0 else _P_POWERS
    while len(powers) < abs(j):
        powers.append([])
    first = powers[0]
    if j < 0:
        if not first:
            first.append(1)
        _divide_grow(first, None, hi)
    elif len(first) <= hi:
        coefficients = {0: 1, **dict(_pentagonal_terms(hi))}
        first.extend(coefficients.get(n, 0) for n in range(len(first), hi + 1))
    grow = _multiply_grow if j > 0 else _divide_grow
    for previous, power in zip(powers, powers[1:abs(j)]):
        grow(power, previous, hi)
    return powers[abs(j) - 1]


def _core_store(t: int, hi: int) -> list[int]:
    out = _SERIES.setdefault(("c", t), [])
    _divide_grow(out, _power(t, hi // t), hi, t)
    return out


def _divisible_store(t: int, hi: int) -> list[int]:
    out = [0] * (hi + 1)
    out[::t] = _power(-t, hi // t)[:hi // t + 1]
    return out


def _core_sum_store(t: int, hi: int) -> list[int]:
    out = _SERIES.setdefault(("C", t), [])
    c = _core_store(t, hi)
    for n in range(len(out), hi + 1):
        out.append(c[n] + out[n - t] if n >= t else c[n])
    return out


def _sigma_sum_store(t: int, hi: int) -> list[int]:
    p = _power(-1, hi)
    out = _SERIES.setdefault(("S", t), [])
    terms = _pentagonal_terms(hi // t)
    for n in range(len(out), hi + 1):
        total = 0
        for g, sign in terms:
            m = n - t * g
            if m < 0:
                break
            if sign < 0:
                total += g * p[m] + out[m]
            else:
                total -= g * p[m] + out[m]
        out.append(total)
    return out


def _require_max_n(max_n: int, low: int = 0) -> int:
    max_n = _require_int(max_n, "max_n", low)
    if max_n > SERIES_MAX_N:
        raise ValueError(
            f"the counting series are capped at n={SERIES_MAX_N}; got n={max_n}")
    return max_n


def _serve(kind: str, t: int | None, max_n: int, store) -> SeriesTable:
    t = None if kind == "p" else _require_t(t)
    max_n = _require_max_n(max_n)
    with _LOCK:
        values = store(max_n) if t is None else store(t, max_n)
        return SeriesTable(kind, t, tuple(values[:max_n + 1]))


def partition_count_table(max_n: int) -> SeriesTable:
    """p(0..max_n) by the pentagonal-number recurrence."""
    return _serve("p", None, max_n, partial(_power, -1))


def core_count_table(t: int, max_n: int) -> SeriesTable:
    """c_t(0..max_n): coefficients of the product of (1-x^{tk})^t / (1-x^k)."""
    return _serve("c", t, max_n, _core_store)


def divisible_count_table(t: int, max_n: int) -> SeriesTable:
    """d_t(0..max_n): coefficients of the product of 1/(1-x^{tk})^t."""
    return _serve("d", t, max_n, _divisible_store)


def core_sum_table(t: int, max_n: int) -> SeriesTable:
    """C_t(0..max_n) where C_t(n) = C_t(n-t) + c_t(n)."""
    return _serve("C", t, max_n, _core_sum_store)


def sigma_sum_table(t: int, max_n: int) -> SeriesTable:
    """S_t(0..max_n) where S_t(n) = sum_{j>=1} sigma(j) p(n - tj).

    Over all partitions of n, the cells whose hook length is divisible by t
    number t * S_t(n) (Bacher-Manivel), so the mean t-quotient size is
    t * S_t(n) / p(n).
    """
    return _serve("S", t, max_n, _sigma_sum_store)


def core_sum(t: int, n: int) -> int:
    """Number of distinct t-cores arising from partitions of n."""
    n = _require_int(n, "n", 0)
    return core_sum_table(t, n)[n]


def f_t(p: Sequence[int], t: int) -> int:
    """The quadratic form (t/2) * sum(p_i^2) + sum(i * p_i).

    On integer vectors with zero coordinate sum the value is a nonnegative
    integer, and it equals the size of the t-core whose runner justification
    positions are p.
    """
    t = _require_t(t)
    p = tuple([_require_int(x, "each coordinate of p") for x in p])
    if len(p) != t:
        raise ValueError(f"expected a vector of length {t}, got {len(p)}")
    if sum(p) != 0:
        raise ValueError(f"coordinates must sum to zero, got sum {sum(p)}")
    twice = t * sum(x * x for x in p)
    assert twice % 2 == 0
    return twice // 2 + sum(i * x for i, x in enumerate(p))


@dataclass(frozen=True)
class AsymptoticEstimates:
    """Leading-order values for plot overlays; no error-term modeling.

    divisible_leading is None when t does not divide n (the count is zero
    there and the smooth formula does not apply).
    """

    t: int
    n: int
    partition_leading: float
    divisible_leading: float | None
    core_sum_leading: float


def core_sum_leading_term(t: int, n: int) -> float:
    """Leading term of the distinct-core count C_t(n)."""
    t = _require_t(t)
    n = _require_int(n, "n", 0)
    return (
        (2.0 * math.pi) ** ((t - 1) / 2.0)
        / (t ** ((t + 2) / 2.0) * math.gamma((t + 1) / 2.0))
        * (n + (t * t - 1) / 24.0) ** ((t - 1) / 2.0)
    )


def asymptotic_estimates(t: int, n: int) -> AsymptoticEstimates:
    t = _require_t(t)
    n = _require_int(n, "n", 1)
    growth = math.exp(math.pi * math.sqrt(2.0 * n / 3.0))
    p_lead = growth / (4.0 * n * math.sqrt(3.0))
    if n % t == 0:
        d_lead = (
            t ** ((t + 2) / 2.0)
            * growth
            / (2 ** ((3 * t + 5) / 4.0) * 3 ** ((t + 1) / 4.0) * n ** ((t + 3) / 4.0))
        )
    else:
        d_lead = None
    return AsymptoticEstimates(t, n, p_lead, d_lead, core_sum_leading_term(t, n))
