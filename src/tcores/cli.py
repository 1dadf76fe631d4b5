"""Command-line front end: exact tables, distribution comparisons, hook
censuses, orbit displays, sampling runs, and the verification suite.

Numbers are emitted losslessly: integers verbatim, rationals as num/den,
reals with 17 significant digits.  Identical arguments and seed produce
byte-identical output for the data subcommands.
"""
from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
from fractions import Fraction
from typing import IO, Sequence

from . import counting, distribution, hookstats, sampling, verify
from .partitions import MAX_T, _require_t, make_partition
from .verify import SCHEMA_VERSION

# orbit lists all t! permutations, a row each; the cost at the cap is in
# README's caps table
ORBIT_MAX_T = 7

# orbit prints a b-smoothing column for each b = 0..max_b; the cost at the
# cap is in README's caps table
ORBIT_MAX_B = 300

# figure1's CDF grid has round(grid_max / grid_step) + 1 rows and a column per
# n value; the cost at the cap is in README's caps table
FIGURE1_MAX_CELLS = 300_000

# draws per request: hooks --mode sample --samples, verify --samples and
# sample --count; each draw unranks a partition, a sampled hook only down to
# the drawn cell's column; the cost at the cap is in README's caps table
MAX_DRAWS = 100_000


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# CSV rows go out in blocks of at most _CSV_BLOCK, one write each
_CSV_BLOCK = 256

# a row holds scalars only, so the compact encoder with the item separator of
# depth 2 writes its items as json.dumps(payload, indent=2) does
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _emit(out: IO[str], args, columns: list[str], line: str, rows) -> None:
    """Write the header, then the rows as they come, in args.format.  A row
    is a tuple of ints, strs and floats; its command renders a rational
    with _rational and a boolean as true or false.  CSV goes out in blocks
    of _CSV_BLOCK rows, one write each, every row as line % row: line is the
    row's %-format, one spec per column, %s for an int or a str and %.17g
    for a real.  A row whose length is not the header's is refused.  JSON
    goes out row by row, byte for byte json.dumps(payload, indent=2) of the
    whole payload, with args.command as its command."""
    if args.format == "csv":
        out.write(",".join(columns) + "\n")
        line += "\n"
        rows = iter(rows)
        while block := list(itertools.islice(rows, _CSV_BLOCK)):
            if set(map(len, block)) != {len(columns)}:
                raise ValueError(f"a CSV row must have {len(columns)} values, one per column")
            out.write("".join([line % row for row in block]))
        return
    head = json.dumps(
        {"schema_version": SCHEMA_VERSION, "command": args.command, "columns": columns},
        indent=2)
    out.write(head[:-2] + ',\n  "rows": [')
    empty = True
    for row in rows:
        items = _ROW_ENCODER.encode(row)[1:-1]
        out.write(("\n    [\n      " if empty else ",\n    [\n      ") + items + "\n    ]")
        empty = False
    out.write("]\n}\n" if empty else "\n  ]\n}\n")


def _render_parts(parts: tuple[int, ...]) -> str:
    return " ".join([str(p) for p in parts]) if parts else "-"


# Argument types: each flag's bound is declared once, on its type, so a bad
# value is refused while parsing, before any work and any --output file
def _checked(convert, form: str, accept=lambda value: True):
    """An argparse type: convert(text) if accept takes the value, else one
    error naming the expected form."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


def _bounded(low: int, high: float = math.inf):
    """An integer from low to high."""
    form = f"an integer from {low} to {high}" if high < math.inf else f"an integer of at least {low}"
    return _checked(int, form, lambda value: low <= value <= high)


def _modulus(high: int = MAX_T):
    """A modulus t that partitions._require_t takes, at most high."""
    def accept(t: int) -> bool:
        try:
            _require_t(t)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return t <= high
    return _checked(int, f"an integer t of at most {high}", accept)


def _int_list(low: int):
    """A nonempty comma-separated list of integers from low up, sorted and
    without repeats."""
    return _checked(lambda text: sorted({int(x) for x in text.split(",") if x.strip()}),
                    f"a comma-separated list of integers of at least {low}",
                    lambda ns: ns and ns[0] >= low)


def _parts(text: str) -> list[int]:
    return [] if text.strip() in ("", "-") else [int(x) for x in text.split(",")]


# each counts --series letter: its column and its table of (t, max_n); the
# lambdas read counting when called, so a function rebound there (as the
# bench tracer rebinds each one) is the one used
_COUNT_SERIES = {
    "p": ("p", lambda t, max_n: counting.partition_count_table(max_n)),
    "c": ("c_t", lambda t, max_n: counting.core_count_table(t, max_n)),
    "d": ("d_t", lambda t, max_n: counting.divisible_count_table(t, max_n)),
    "C": ("C_t", lambda t, max_n: counting.core_sum_table(t, max_n)),
}


def _cmd_counts(args, out) -> int:
    if args.t is None and args.series != ["p"]:
        raise ValueError("--t is required for the c, d and C series")
    series = [_COUNT_SERIES[s] for s in args.series]
    tables = [table(args.t, args.max_n).values for _, table in series]
    columns = ["n", *(column for column, _ in series)]
    _emit(out, args, columns, ",".join(["%s"] * len(columns)), zip(range(args.max_n + 1), *tables))
    return 0


def _cmd_pmf(args, out) -> int:
    pmf = distribution.core_size_pmf(args.t, args.n)
    cores = counting.core_count_table(args.t, args.n)
    divis = counting.divisible_count_table(args.t, args.n)
    rows = [
        (k, cores[k], divis[args.n - k], _rational(mass), float(mass))
        for k, mass in sorted(pmf.masses.items())
    ]
    _emit(out, args, ["k", "c_t", "d_t_rest", "mass", "mass_float"], "%s,%s,%s,%s,%.17g", rows)
    return 0


def _cmd_moments(args, out) -> int:
    params = distribution.gamma_params(args.t)
    rows = []
    for n in args.n:
        pmf = distribution.core_size_pmf(args.t, n)
        for k in range(1, args.max_k + 1):
            try:
                rows.append((
                    n, k,
                    distribution.scaled_moment(pmf, k),
                    distribution.gamma_moment(params, k),
                ))
            except OverflowError:
                raise ValueError(f"--max-k {args.max_k} is too large: the moments "
                                 f"of order {k} at n={n} do not fit a float") from None
    _emit(out, args, ["n", "k", "scaled_moment", "gamma_moment"], "%s,%s,%.17g,%.17g", rows)
    return 0


def _cdf_on_grid(pmf, xs: list[float]) -> list[float]:
    """P(Y <= x sqrt(n)) as a float at each x of an ascending grid."""
    scale = math.sqrt(pmf.n) if pmf.n else 1.0
    points = sorted(pmf.weights.items())
    out, cumulative, i = [], 0, 0
    for x in xs:
        while i < len(points) and points[i][0] <= x * scale:
            cumulative += points[i][1]
            i += 1
        # int / int rounds correctly, like float() of the exact mass
        out.append(cumulative / pmf.denominator)
    return out


def _cmd_figure1(args, out) -> int:
    params = distribution.gamma_params(args.t)
    if args.view == "cdf":
        steps = args.grid_max / args.grid_step       # inf if it overflows
        max_rows = FIGURE1_MAX_CELLS // len(args.n)
        if not steps < max_rows - 0.5:              # round(steps) + 1 rows
            raise ValueError(
                f"the figure1 grid takes at most {FIGURE1_MAX_CELLS} cells, "
                f"{max_rows} rows for {len(args.n)} n values, got --grid-max "
                f"{args.grid_max} over --grid-step {args.grid_step}")
        xs = [s * args.grid_step for s in range(round(steps) + 1)]
        cdfs = [_cdf_on_grid(distribution.core_size_pmf(args.t, n), xs) for n in args.n]
        columns = ["x", *(f"cdf_n{n}" for n in args.n), "gamma_cdf"]
        line = ",".join(["%.17g"] * len(columns))
        rows = (
            (x, *(cdf[i] for cdf in cdfs), distribution.gamma_cdf(params, x))
            for i, x in enumerate(xs)
        )
    else:
        columns = ["n", "k", "x", "mass", "density"]
        line = "%s,%s,%.17g,%s,%.17g"
        rows = []
        for n in args.n:
            pmf = distribution.core_size_pmf(args.t, n)
            for k, x, mass, density in distribution.scaled_pmf_points(pmf):
                rows.append((n, k, x, _rational(mass), density))
    _emit(out, args, columns, line, rows)
    return 0


def _cmd_figure2(args, out) -> int:
    means = distribution.expected_core_sizes(args.t, args.max_n)
    rows = ((n, _rational(exact), asym) for n, (exact, asym) in enumerate(means, start=1))
    _emit(out, args, ["n", "expected_exact", "asymptote"], "%s,%s,%.17g", rows)
    return 0


def _cmd_hooks(args, out) -> int:
    if args.mode == "exact":
        xs = hookstats.exact_residue_distribution(args.t, args.n)
        columns = ["residue", "probability", "probability_float"]
        line = "%s,%s,%.17g"
        rows = [(i, _rational(x), float(x)) for i, x in enumerate(xs)]
    else:
        estimates, errors = hookstats.sampled_residue_distribution(
            args.t, args.n, args.samples, args.seed
        )
        columns = ["residue", "estimate", "standard_error", "samples", "seed"]
        line = "%s,%.17g,%.17g,%s,%s"
        rows = [
            (i, est, err, args.samples, args.seed)
            for i, (est, err) in enumerate(zip(estimates, errors))
        ]
    _emit(out, args, columns, line, rows)
    return 0


def _cmd_orbit(args, out) -> int:
    nu = make_partition(args.nu)
    max_b = args.max_b if args.max_b is not None else args.t - 1
    # the action moves bead pairs between runners without changing their
    # column spread, so each b-smoothing (b >= 0) is the same on the whole
    # orbit: take it once, from nu, checked t-divisible before any output
    divided = hookstats._require_divisible(nu, args.t)
    smoothings = [_render_parts(hookstats._smoothing_cells(nu, args.t, b).parts)
                  for b in range(max_b + 1)]
    columns = ["sigma", "sigma_nu", *(f"C^{b}" for b in range(max_b + 1))]
    words = ["".join(map(str, w)) for w in itertools.permutations(range(1, args.t + 1))]
    # every row's image comes from the division that checked nu, one at a time
    images = hookstats._images(
        divided, args.t, map(hookstats.permutation_from_word, words))
    rows = ((word, _render_parts(image.parts), *smoothings)
            for word, image in zip(words, images))
    _emit(out, args, columns, ",".join(["%s"] * len(columns)), rows)
    return 0


def _cmd_sample(args, out) -> int:
    table = sampling.build_sampler(args.n)
    rows = (
        (i, _render_parts(sampling.unrank_partition(table, rank).parts))
        for i, (rank,) in enumerate(sampling.index_draws(args.seed, args.count, table.total))
    )
    _emit(out, args, ["index", "partition"], "%s,%s", rows)
    return 0


def _cmd_verify(args, out) -> int:
    report = verify.run_suite(
        args.suite, max_n=args.max_n, seed=args.seed, samples=args.samples
    )
    if args.format == "json":
        out.write(report.to_json() + "\n")
    else:
        _emit(out, args, ["case", "passed", "detail"], "%s,%s,%s",
              [(c.name, "true" if c.passed else "false", c.detail) for c in report.cases])
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """Refuses bad input in one stderr line; the subcommand parsers share it."""

    def error(self, message: str):
        self.exit(2, f"tcores: error: {' '.join(message.splitlines())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = _Parser(
        prog="tcores",
        description="Exact t-core combinatorics: tables, distributions, "
        "hook statistics, sampling, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    modulus, draws, seed = _modulus(), _bounded(1, MAX_DRAWS), _bounded(0, 2**64 - 1)

    def add_common(p, fmt="csv"):
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--output", default=None, help="path; default stdout")

    p = sub.add_parser("counts", help="emit count tables")
    p.add_argument("--t", type=modulus, default=None)
    p.add_argument("--max-n", type=_bounded(0), required=True)
    p.add_argument("--series", default=list(_COUNT_SERIES), type=_checked(
        lambda text: [s.strip() for s in text.split(",") if s.strip()],
        f"a subset of {','.join(_COUNT_SERIES)}, each once",
        lambda ss: 0 < len(ss) == len(_COUNT_SERIES.keys() & ss)))
    add_common(p)
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser("pmf", help="exact core-size law for one n")
    p.add_argument("--t", type=modulus, required=True)
    p.add_argument("--n", type=_bounded(0), required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_pmf)

    p = sub.add_parser("moments", help="scaled moments against the gamma limit")
    p.add_argument("--t", type=modulus, required=True)
    p.add_argument("--n", type=_int_list(1), required=True)
    p.add_argument("--max-k", type=_bounded(1), default=3)
    add_common(p)
    p.set_defaults(fn=_cmd_moments)

    p = sub.add_parser("figure1", help="CDF comparison grid / density bars")
    p.add_argument("--t", type=modulus, default=5)
    p.add_argument("--n", type=_int_list(0), default=[20, 62, 103])
    p.add_argument("--view", choices=("cdf", "density"), default="cdf")
    p.add_argument("--grid-max", default=4.0, type=_checked(
        float, "a finite real of at least 0", lambda x: 0 <= x < math.inf))
    p.add_argument("--grid-step", default=0.05, type=_checked(
        float, "a finite real above 0", lambda x: 0 < x < math.inf))
    add_common(p)
    p.set_defaults(fn=_cmd_figure1)

    p = sub.add_parser("figure2", help="average core size against its asymptote")
    p.add_argument("--t", type=modulus, default=3)
    p.add_argument("--max-n", type=_bounded(1), default=100)
    add_common(p)
    p.set_defaults(fn=_cmd_figure2)

    p = sub.add_parser("hooks", help="hook-residue distribution, exact or sampled")
    p.add_argument("--t", type=modulus, required=True)
    p.add_argument("--n", type=_bounded(1), required=True)
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    p.add_argument("--samples", type=draws, default=100000)
    p.add_argument("--seed", type=seed, default=12345)
    add_common(p)
    p.set_defaults(fn=_cmd_hooks)

    p = sub.add_parser("orbit", help="quotient-permutation orbit and smoothings")
    p.add_argument("--t", type=_modulus(ORBIT_MAX_T), default=3, help=f"2..{ORBIT_MAX_T}")
    p.add_argument("--nu", required=True, help="comma-separated parts of a t-divisible partition",
                   type=_checked(_parts, "comma-separated integer parts, or - for none"))
    p.add_argument("--max-b", type=_bounded(0, ORBIT_MAX_B), default=None)
    add_common(p)
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("sample", help="deterministic uniform random partitions")
    p.add_argument("--n", type=_bounded(0), required=True)
    p.add_argument("--count", type=draws, default=10)
    p.add_argument("--seed", type=seed, default=12345)
    add_common(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("--suite", choices=verify.suite_names(), default="all")
    p.add_argument("--max-n", type=_bounded(0), default=22)
    p.add_argument("--seed", type=seed, default=12345)
    p.add_argument("--samples", type=draws, default=20000)
    add_common(p, "json")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _run_to_file(args) -> int:
    """Run the command into a temporary file beside --output and move it into
    place only when the command completes (exit code 0, or a verify report
    with 1), so a refused or failed command leaves an existing file as it
    was."""
    try:
        mode = os.stat(args.output).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if mode is not None and not stat.S_ISREG(mode):
        # a device or a pipe, such as /dev/null: nothing to keep, and not a
        # file to replace
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            return args.fn(args, handle)
    target = os.path.realpath(args.output)
    partial = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(partial, "x", encoding="utf-8", newline="") as handle:
            code = args.fn(args, handle)
        if mode is not None:
            os.chmod(partial, stat.S_IMODE(mode))
        os.replace(partial, target)
        return code
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def run(argv: Sequence[str]) -> int:
    """Dispatch a command line; exit code 0 on success, 1 on verification
    failure, 2 on usage errors and on an --output that cannot be written."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.output:
            return _run_to_file(args)
        return args.fn(args, sys.stdout)
    except ValueError as exc:
        message = str(exc)
    except BrokenPipeError:
        raise
    except OSError as exc:
        message = f"cannot write --output {args.output}: {exc.strerror or exc}"
    print(f"tcores: error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    """The console entry point.  A reader that closes stdout early (| head)
    ends the command quietly with exit code 141, as a shell reports SIGPIPE."""
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
