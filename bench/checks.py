"""Output checks that do not use the code under test.

Every check parses one request's CSV stdout and compares it with facts the
benchmark computes itself (its own pentagonal-number table for p(n), the
closed-form hook-residue law) or with identities the output must satisfy.
``check(argv, text)`` returns None when the output passes, else a reason.
"""
from __future__ import annotations

import math
from fractions import Fraction

_P = [1]


def partition_counts(n: int) -> list[int]:
    """p(0..n) by Euler's pentagonal-number recurrence, grown on demand."""
    while len(_P) <= n:
        m = len(_P)
        total, k = 0, 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _P[m - g]
            if g + k <= m:
                total += sign * _P[m - g - k]
            k += 1
        _P.append(total)
    return _P


def hook_residue_law(t: int, n: int) -> list[Fraction]:
    """P(hook length = i mod t) for a uniform cell of a uniform partition of
    n: the number of cells with hook k, summed over all partitions of n, is
    k * sum_{j>=1} p(n - jk)."""
    p = partition_counts(n)
    totals = [0] * t
    for k in range(1, n + 1):
        totals[k % t] += k * sum(p[n - j] for j in range(k, n + 1, k))
    return [Fraction(c, n * p[n]) for c in totals]


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _option(argv: list[str], flag: str, default: str | None = None) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _int_list(text: str) -> list[int]:
    return sorted({int(x) for x in text.split(",")})


def _table(text: str, columns: list[str], maxsplit: int = -1) -> list[list[str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == ",".join(columns), f"header {lines[:1]}")
    rows = [line.split(",", maxsplit) for line in lines[1:]]
    _require(all(len(r) == len(columns) for r in rows), "ragged rows")
    return rows


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _parts(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split()]


def _is_partition(parts: list[int], n: int | None = None) -> bool:
    return (all(p > 0 for p in parts)
            and all(a >= b for a, b in zip(parts, parts[1:]))
            and (n is None or sum(parts) == n))


def _contains(outer: list[int], inner: list[int]) -> bool:
    return len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer))


def _check_counts(argv):
    def run(text):
        t, max_n = int(_option(argv, "--t")), int(_option(argv, "--max-n"))
        rows = _table(text, ["n", "p", "c_t", "d_t", "C_t"])
        _require([int(r[0]) for r in rows] == list(range(max_n + 1)), "n column")
        p = partition_counts(max_n)
        c = [int(r[2]) for r in rows]
        d = [int(r[3]) for r in rows]
        big_c = [int(r[4]) for r in rows]
        for n, r in enumerate(rows):
            _require(int(r[1]) == p[n], f"p({n})")
            _require(big_c[n] - (big_c[n - t] if n >= t else 0) == c[n],
                     f"C_t({n}) - C_t({n - t}) != c_t({n})")
            _require(n % t == 0 or d[n] == 0, f"d_t({n}) != 0")
            # p = c_t * d_t as generating functions (core and quotient)
            conv = sum(c[k] * d[n - k] for k in range(n % t, n + 1, t))
            _require(conv == p[n], f"sum c_t(k) d_t(n-k) != p({n})")
    return run


def _check_pmf(argv):
    def run(text):
        t, n = int(_option(argv, "--t")), int(_option(argv, "--n"))
        rows = _table(text, ["k", "c_t", "d_t_rest", "mass", "mass_float"])
        p_n = partition_counts(n)[n]
        total = Fraction(0)
        ks = [int(r[0]) for r in rows]
        _require(ks == sorted(set(ks)) and all(k % t == n % t and 0 <= k <= n
                                               for k in ks), "support")
        for k, cores, rest, mass, mass_float in rows:
            mass = Fraction(mass)
            _require(mass * p_n == int(cores) * int(rest), f"mass at k={k}")
            _require(float(mass) == float(mass_float), f"mass_float at k={k}")
            total += mass
        _require(total == 1, "masses do not sum to 1")
    return run


def _gamma_moment(t: int, k: int) -> float:
    alpha, beta = (t - 1) / 2.0, math.pi / math.sqrt(6.0)
    return math.exp(math.lgamma(k + alpha) - math.lgamma(alpha)) / beta**k


def _check_moments(argv):
    def run(text):
        t, ns = int(_option(argv, "--t")), _int_list(_option(argv, "--n"))
        max_k = int(_option(argv, "--max-k", "3"))
        rows = _table(text, ["n", "k", "scaled_moment", "gamma_moment"])
        _require([(int(r[0]), int(r[1])) for r in rows]
                 == [(n, k) for n in ns for k in range(1, max_k + 1)], "row keys")
        for i, n in enumerate(ns):
            block = rows[i * max_k:(i + 1) * max_k]
            scaled = [float(r[2]) for r in block]
            for k, r in enumerate(block, start=1):
                limit = _gamma_moment(t, k)
                _require(_close(float(r[3]), limit, 1e-9), f"gamma moment k={k}")
                # the exact law converges to the gamma law like 1/sqrt(n)
                _require(n < 100 or abs(scaled[k - 1] / limit - 1) < 0.5,
                         f"scaled moment k={k} far from its limit")
            # Lyapunov: the k-th root of the k-th moment grows with k
            roots = [m ** (1 / k) for k, m in enumerate(scaled, start=1)]
            _require(all(m > 0 for m in scaled)
                     and all(a <= b * (1 + 1e-12) for a, b in zip(roots, roots[1:])),
                     f"moments at n={n} violate Lyapunov")
    return run


def _check_figure2(argv):
    def run(text):
        t, max_n = int(_option(argv, "--t")), int(_option(argv, "--max-n"))
        rows = _table(text, ["n", "expected_exact", "asymptote"])
        _require([int(r[0]) for r in rows] == list(range(1, max_n + 1)), "n column")
        p = partition_counts(max_n)
        for n, exact, asym in ((int(a), Fraction(b), float(c)) for a, b, c in rows):
            _require((exact * p[n]).denominator == 1, f"E at n={n} is not k/p(n)")
            _require(exact == n if n < t else 0 <= exact <= n, f"E at n={n}")
            _require(_close(asym, (t - 1) * math.sqrt(6.0 * n) / (2.0 * math.pi),
                            1e-9), f"asymptote at n={n}")
    return run


def _check_figure1(argv):
    t = int(_option(argv, "--t", "5"))
    ns = _int_list(_option(argv, "--n", "20,62,103"))

    def cdf(text):
        rows = _table(text, ["x", *(f"cdf_n{n}" for n in ns), "gamma_cdf"])
        _require(bool(rows), "no rows")
        for j in range(1, len(ns) + 2):
            column = [float(r[j]) for r in rows]
            _require(all(0.0 <= v <= 1.0 for v in column), f"column {j} leaves [0, 1]")
            _require(all(a <= b for a, b in zip(column, column[1:])),
                     f"column {j} decreases")

    def density(text):
        rows = _table(text, ["n", "k", "x", "mass", "density"])
        totals = dict.fromkeys(ns, Fraction(0))
        for n, k, x, mass, dens in rows:
            n, k, mass = int(n), int(k), Fraction(mass)
            _require(n in totals and k % t == n % t and 0 <= k <= n, f"point {n},{k}")
            _require((mass * partition_counts(n)[n]).denominator == 1, f"mass {n},{k}")
            scale = math.sqrt(n) if n else 1.0
            _require(_close(float(x), k / scale) and
                     _close(float(dens), float(mass) * scale), f"x/density {n},{k}")
            totals[n] += mass
        _require(all(v == 1 for v in totals.values()), "masses do not sum to 1")

    return density if _option(argv, "--view", "cdf") == "density" else cdf


def _check_hooks(argv):
    t, n = int(_option(argv, "--t")), int(_option(argv, "--n"))

    def exact(text):
        rows = _table(text, ["residue", "probability", "probability_float"])
        law = hook_residue_law(t, n)
        _require([int(r[0]) for r in rows] == list(range(t)), "residues")
        for (i, prob, flt), want in zip(rows, law):
            _require(Fraction(prob) == want, f"P({i}) differs from the closed form")
            _require(float(flt) == float(want), f"float P({i})")

    def sampled(text):
        samples, seed = _option(argv, "--samples"), _option(argv, "--seed")
        rows = _table(text, ["residue", "estimate", "standard_error", "samples", "seed"])
        law = hook_residue_law(t, n)
        _require([int(r[0]) for r in rows] == list(range(t)), "residues")
        estimates = [float(r[1]) for r in rows]
        _require(abs(sum(estimates) - 1.0) < 1e-9, "estimates do not sum to 1")
        s = int(samples)
        for (i, est, err, got_samples, got_seed), want in zip(rows, law):
            est, want = float(est), float(want)
            _require((got_samples, got_seed) == (samples, seed), "echoed arguments")
            _require(_close(float(err), math.sqrt(est * (1 - est) / s), 1e-9),
                     f"standard error of residue {i}")
            # six standard errors of the exact law: a false alarm is ~1e-9
            _require(abs(est - want) <= 6 * math.sqrt(want * (1 - want) / s),
                     f"estimate of residue {i} is {est}, the law gives {want:.6f}")

    return sampled if _option(argv, "--mode", "exact") == "sample" else exact


def _check_sample(argv):
    def run(text):
        n, count = int(_option(argv, "--n")), int(_option(argv, "--count", "10"))
        rows = _table(text, ["index", "partition"])
        _require([int(r[0]) for r in rows] == list(range(count)), "indices")
        for i, parts in rows:
            _require(_is_partition(_parts(parts), n), f"row {i} is not a partition of {n}")
    return run


def _check_orbit(argv):
    def run(text):
        t = int(_option(argv, "--t", "3"))
        nu = [int(x) for x in _option(argv, "--nu").split(",")]
        max_b = int(_option(argv, "--max-b", str(t - 1)))
        rows = _table(text, ["sigma", "sigma_nu", *(f"C^{b}" for b in range(max_b + 1))])
        words = [r[0] for r in rows]
        _require(len(set(words)) == len(words) == math.factorial(t)
                 and all(sorted(w) == [str(d) for d in range(1, t + 1)] for w in words),
                 "sigma column is not every permutation")
        for word, image, *smoothings in rows:
            outer = _parts(image)
            _require(_is_partition(outer, sum(nu)), f"{word}: size not preserved")
            _require(outer == nu or word != "".join(map(str, range(1, t + 1))),
                     "identity moved nu")
            for cells in map(_parts, smoothings):
                _require(_is_partition(cells) and _contains(outer, cells),
                         f"{word}: smoothings not nested")
                outer = cells
    return run


def _check_verify(argv):
    def run(text):
        rows = _table(text, ["case", "passed", "detail"], maxsplit=2)
        _require(bool(rows), "no cases")
        failed = [r[0] for r in rows if r[1] != "true"]
        _require(not failed, f"failed cases {failed}")
    return run


_CHECKS = {
    "counts": _check_counts, "pmf": _check_pmf, "moments": _check_moments,
    "figure1": _check_figure1, "figure2": _check_figure2, "hooks": _check_hooks,
    "sample": _check_sample, "orbit": _check_orbit, "verify": _check_verify,
}


def check(argv: list[str], text: str) -> str | None:
    """None when the stdout of ``tcores <argv>`` is right, else why not."""
    try:
        _CHECKS[argv[0]](argv)(text)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc!r}"
    return None
