import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tcores import counting, hookstats
from tcores.cli import MAX_DRAWS, ORBIT_MAX_B, ORBIT_MAX_T, _CSV_TEXT, _emit, run
from tcores.corequotient import core
from tcores.counting import SERIES_MAX_N
from tcores.hookstats import act_on_divisible, b_smoothing, permutation_from_word
from tcores.partitions import (
    EMPTY, MAX_T, PartitionShape, enumerate_partitions, make_partition)
from tcores.sampling import SAMPLER_MAX_N


def run_capture(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def test_counts_csv_shape(capsys):
    code, out = run_capture(
        capsys, "counts", "--t", "3", "--max-n", "100", "--series", "p,c,d,C"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p,c_t,d_t,C_t"
    assert len(lines) == 102
    assert lines[1] == "0,1,1,1,1"
    assert lines[-1].startswith("100,190569292,")


def test_counts_series_subset(capsys):
    code, out = run_capture(capsys, "counts", "--max-n", "5", "--series", "p")
    assert code == 0
    assert out.splitlines()[0] == "n,p"


def test_counts_json_schema(capsys):
    code, out = run_capture(
        capsys, "counts", "--t", "2", "--max-n", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["columns"][0] == "n"
    assert payload["rows"][0] == [0, 1, 1, 1, 1]


def test_counts_rejects_bad_series(capsys):
    assert run(["counts", "--max-n", "5", "--series", "p,z"]) == 2


def test_counts_rejects_small_t(capsys):
    assert run(["counts", "--t", "1", "--max-n", "5", "--series", "c"]) == 2


def test_counts_requires_t_for_core_series(capsys):
    assert run(["counts", "--max-n", "5", "--series", "c"]) == 2
    assert run(["counts", "--max-n", "5", "--series", "p"]) == 0


def test_usage_errors_exit_2():
    assert run(["nonsense"]) == 2
    assert run(["pmf", "--t", "3"]) == 2           # missing --n
    assert run(["counts", "--max-n", "not-an-int"]) == 2
    assert run(["--help"]) == 0


def test_pmf_golden(capsys):
    code, out = run_capture(capsys, "pmf", "--t", "3", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "k,c_t,d_t_rest,mass,mass_float",
        "1,1,3,3/5,0.59999999999999998",
        "4,2,1,2/5,0.40000000000000002",
    ]


def test_pmf_rationals_reparse(capsys):
    code, out = run_capture(capsys, "pmf", "--t", "4", "--n", "17")
    masses = []
    for line in out.strip().splitlines()[1:]:
        fields = line.split(",")
        masses.append(Fraction(fields[3]))
        assert float(fields[4]) == float(Fraction(fields[3]))
    assert sum(masses) == 1


def test_moments_columns(capsys):
    code, out = run_capture(
        capsys, "moments", "--t", "3", "--n", "25,50", "--max-k", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,scaled_moment,gamma_moment"
    assert len(lines) == 5
    for line in lines[1:]:
        n, k, scaled, limit = line.split(",")
        assert float(scaled) > 0 and float(limit) > 0


def test_figure1_cdf_grid(capsys):
    code, out = run_capture(
        capsys, "figure1", "--t", "5", "--n", "20,62", "--grid-max", "2",
        "--grid-step", "0.5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,cdf_n20,cdf_n62,gamma_cdf"
    assert len(lines) == 6
    last = [float(v) for v in lines[-1].split(",")]
    columns = list(zip(*(list(map(float, ln.split(","))) for ln in lines[1:])))
    for col in columns:
        assert list(col) == sorted(col)  # CDFs are nondecreasing
    assert last[0] == 2.0


def test_figure1_density_view(capsys):
    code, out = run_capture(
        capsys, "figure1", "--t", "5", "--n", "20", "--view", "density"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,x,mass,density"
    ks = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert all(k % 5 == 0 for k in ks)


def test_figure2_output(capsys):
    code, out = run_capture(capsys, "figure2", "--t", "3", "--max-n", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,expected_exact,asymptote"
    assert len(lines) == 101
    first = lines[1].split(",")
    assert first[0] == "1" and Fraction(first[1]) == 1
    # every rational re-parses and every float round-trips
    for line in lines[1:]:
        _, exact, asym = line.split(",")
        Fraction(exact)
        assert float(asym) == float(format(float(asym), ".17g"))


def test_hooks_exact_golden(capsys):
    code, out = run_capture(capsys, "hooks", "--t", "2", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "residue,probability,probability_float",
        "0,1/2,0.5",
        "1,1/2,0.5",
    ]


def test_hooks_exact_beyond_enumeration_scale(capsys):
    code, out = run_capture(capsys, "hooks", "--t", "5", "--n", "51")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(5))
    assert sum(Fraction(row[1]) for row in rows) == 1


def test_hooks_sampled_columns(capsys):
    code, out = run_capture(
        capsys, "hooks", "--t", "3", "--n", "15", "--mode", "sample",
        "--samples", "400", "--seed", "5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "residue,estimate,standard_error,samples,seed"
    assert len(lines) == 4
    assert abs(sum(float(ln.split(",")[1]) for ln in lines[1:]) - 1.0) < 1e-12


def test_orbit_reproduces_worked_table(capsys):
    code, out = run_capture(capsys, "orbit", "--t", "3", "--nu", "7,3,2")
    assert code == 0
    assert out.splitlines() == [
        "sigma,sigma_nu,C^0,C^1,C^2",
        "123,7 3 2,7 2,4,2",
        "132,7 4 1,7 2,4,2",
        "213,8 2 2,7 2,4,2",
        "231,8 4,7 2,4,2",
        "312,9 2 1,7 2,4,2",
        "321,9 3,7 2,4,2",
    ]


def test_orbit_rejects_non_divisible(capsys):
    assert run(["orbit", "--t", "3", "--nu", "1"]) == 2


def _render(shape) -> str:
    return " ".join(map(str, shape.parts)) or "-"


@pytest.mark.parametrize("t", [2, 3, 4])
def test_orbit_rows_match_action_and_smoothing(capsys, t):
    # each image is smoothed on its own here, not read off nu
    for m in range(0, 13, t):
        for nu in enumerate_partitions(m):
            if core(nu, t) != EMPTY:
                continue
            code, out = run_capture(capsys, "orbit", "--t", str(t), "--nu",
                                    ",".join(map(str, nu.parts)) or "-",
                                    "--max-b", str(2 * t))
            assert code == 0
            words = ["".join(map(str, w)) for w in permutations(range(1, t + 1))]
            expected = []
            for word in words:
                image = act_on_divisible(permutation_from_word(word), nu, t)
                expected.append(",".join([word, _render(image), *(
                    _render(hookstats._smoothing_cells(image, t, b))
                    for b in range(2 * t + 1))]))
            assert out.splitlines()[1:] == expected


def test_orbit_takes_max_b_up_to_the_cap(capsys):
    code, out = run_capture(capsys, "orbit", "--t", "7", "--nu", "7",
                            "--max-b", str(ORBIT_MAX_B))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5041
    assert lines[0].split(",")[-1] == f"C^{ORBIT_MAX_B}"
    nu = make_partition([7])
    smoothings = [_render(b_smoothing(nu, 7, b)) for b in range(ORBIT_MAX_B + 1)]
    for line in lines[1:]:
        assert line.split(",")[2:] == smoothings


@pytest.mark.parametrize("max_b", [0, 1, 5])
def test_orbit_divides_nu_once_per_request(capsys, monkeypatch, max_b):
    # once, to check nu and for all 24 rows at t = 4, whatever --max-b is
    divide, calls = hookstats._divide, []
    monkeypatch.setattr(hookstats, "_divide",
                        lambda shape, t: calls.append(shape) or divide(shape, t))
    code, out = run_capture(capsys, "orbit", "--t", "4", "--nu", "6,5,3,2",
                            "--max-b", str(max_b))
    assert code == 0 and len(out.splitlines()) == 25
    assert len(calls) == 1


def test_sample_deterministic_bytes(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["sample", "--n", "12", "--count", "40", "--seed", "99"]
    assert run(args + ["--output", str(first)]) == 0
    assert run(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == "index,partition"
    assert len(lines) == 41
    for line in lines[1:]:
        parts = [int(x) for x in line.split(",")[1].split()]
        assert sum(parts) == 12


def test_sample_different_seeds_differ(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["sample", "--n", "30", "--count", "30", "--seed", "1",
                "--output", str(a)]) == 0
    assert run(["sample", "--n", "30", "--count", "30", "--seed", "2",
                "--output", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_seed_takes_the_64_bit_range(capsys):
    # the sampler reduces a seed mod 2^64, so the flag takes exactly 0..2^64 - 1
    code, top = run_capture(capsys, "sample", "--n", "30", "--count", "3",
                            "--seed", str(2**64 - 1))
    assert code == 0
    _, zero = run_capture(capsys, "sample", "--n", "30", "--count", "3", "--seed", "0")
    assert top != zero


def test_draws_build_no_generator(capsys, monkeypatch):
    # every draw reseeds its thread's generator; none builds a random.Random
    built = []

    class Counted(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counted)
    assert run("sample --n 30 --count 20".split()) == 0
    assert run("hooks --t 3 --n 30 --mode sample --samples 20".split()) == 0
    assert run("verify --suite sampling --max-n 5 --samples 50".split()) == 0
    assert capsys.readouterr().err == ""
    assert built == []


def test_sampled_hooks_build_no_partition(capsys, monkeypatch):
    # a sampled hook descends only to the drawn cell's column; a sample row
    # is one whole partition
    built = []
    init = PartitionShape.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PartitionShape, "__init__", counted)
    assert run("hooks --t 3 --n 30 --mode sample --samples 200".split()) == 0
    assert built == []
    assert run("sample --n 30 --count 20".split()) == 0
    assert len(built) == 20
    capsys.readouterr()


def test_verify_suite_json(capsys):
    code, out = run_capture(
        capsys, "verify", "--suite", "partitions", "--max-n", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert all(case["passed"] for case in payload["cases"])
    assert payload["suite"] == "partitions"
    assert isinstance(payload["elapsed_ms"], int)


def test_verify_suite_csv(capsys):
    code, out = run_capture(
        capsys, "verify", "--suite", "sampling", "--max-n", "8",
        "--samples", "2000", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,passed,detail"
    assert all(",true," in line for line in lines[1:])


@pytest.mark.parametrize("argv", [
    "counts --t 3 --max-n -1 --series c",
    "counts --t 3 --max-n -1 --series d",
    "counts --t 3 --max-n 5 --series c,c",
    "verify --max-n -3",
    "verify --suite unknown",
    "verify --suite sampling --max-n 3 --samples 0",
    "figure1 --grid-step 0",
    "figure1 --grid-step -0.1",
    "sample --n 5 --count -3",
    "figure2 --max-n -5",
    "moments --t 3 --n 0",
    "moments --t 3 --n 5 --max-k 0",
    "moments --t 3 --n 100 --max-k 158",
    "moments --t 3 --n 1 --max-k 171",
    "orbit --t 12 --nu 1",
    "orbit --t 8 --nu 1",
    "orbit --t 3 --nu 3 --max-b -1",
    f"orbit --t 3 --nu 3 --max-b {ORBIT_MAX_B + 1}",
    f"sample --n {SAMPLER_MAX_N + 1}",
    f"hooks --t 3 --n {SAMPLER_MAX_N + 1} --mode sample --samples 5",
    f"hooks --t 3 --n {SERIES_MAX_N + 1}",
    f"counts --series p --max-n {SERIES_MAX_N + 1}",
    f"pmf --t 3 --n {SERIES_MAX_N + 1}",
    f"figure2 --t 3 --max-n {SERIES_MAX_N + 1}",
    f"verify --max-n {SERIES_MAX_N + 1}",
    f"hooks --t 3 --n 5 --mode sample --samples {MAX_DRAWS + 1}",
    f"sample --n 5 --count {MAX_DRAWS + 1}",
    f"verify --suite sampling --max-n 3 --samples {MAX_DRAWS + 1}",
    "figure1 --grid-max 1e9 --grid-step 1e-9",
    "figure1 --grid-max 1e300 --grid-step 1e-300",
    "figure1 --t 2 --n 1,2,3,4 --grid-max 4 --grid-step 0.00005",
    f"counts --t {MAX_T + 1} --max-n 10",
    f"hooks --t {MAX_T + 1} --n 5",
    "counts --max-n 3 --series p --output /nonexistent-directory/out.csv",
    "counts --max-n 3 --series p --output .",
    "counts --max-n 3 --series p --output /dev/null/out.csv",
    "nonsense",
    "pmf --t 3",
    "counts --max-n x",
    "moments --t 3 --n 5,b",
    "orbit --t 3 --nu 3,a",
    "counts --max-n 3 --bogus 1",
    "counts --t 1 --max-n 3 --series p",
    "hooks --t 3 --n 5 --samples 0",
    "pmf --t 3 --n -1",
    "hooks --t 3 --n 0",
    "sample --n -1",
    "figure1 --n -5",
    "sample --n 30 --count 3 --seed -1",
    f"sample --n 30 --count 3 --seed {2**64}",
    "hooks --t 3 --n 5 --mode sample --samples 5 --seed -1",
    f"verify --suite sampling --max-n 3 --samples 5 --seed {2**64}",
])
def test_bad_input_is_refused_in_one_line(capsys, argv):
    assert run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tcores: error: ")


def test_figure2_cap_is_refused_before_any_pmf(capsys, monkeypatch):
    # figure2 reads its means off the sigma-series: a refused --max-n must
    # not grow it
    def fail(t, hi):
        raise AssertionError(f"S_{t} was grown to n={hi}")

    monkeypatch.setattr(counting, "_sigma_sum_store", fail)
    assert run(["figure2", "--t", "3", "--max-n", str(SERIES_MAX_N + 1)]) == 2
    assert str(SERIES_MAX_N) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "counts --max-n 5 --series x",
    f"counts --max-n {SERIES_MAX_N + 1} --series p",
    f"figure2 --t 3 --max-n {SERIES_MAX_N + 1}",
    f"sample --n 5 --count {MAX_DRAWS + 1}",
])
def test_refused_command_keeps_an_existing_output(tmp_path, capsys, argv):
    target = tmp_path / "out.csv"
    target.write_bytes(b"kept\r\nbytes")
    assert run([*argv.split(), "--output", str(target)]) == 2
    assert target.read_bytes() == b"kept\r\nbytes"
    assert capsys.readouterr().err.startswith("tcores: error: ")
    assert run(["counts", "--max-n", "2", "--series", "p", "--output", str(target)]) == 0
    assert target.read_text() == "n,p\n0,1\n1,1\n2,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("argv", [
    ["counts", "--max-n", "20000", "--series", "p"],
    ["sample", "--n", "300", "--count", str(MAX_DRAWS)],
])
def test_reader_closing_early_ends_quietly(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", "from tcores.cli import main; main()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"n,p" if argv[0] == "counts" else b"index,partition")
    assert code == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    "counts --t 3 --max-n 20",
    "pmf --t 3 --n 11",
    "moments --t 3 --n 25,50 --max-k 2",
    "figure1 --t 5 --n 20,62 --grid-max 1 --grid-step 0.25",
    "figure1 --t 5 --n 20 --view density",
    "figure2 --t 3 --max-n 12",
    "hooks --t 3 --n 9",
    "hooks --t 3 --n 9 --mode sample --samples 50",
    "orbit --t 3 --nu 7,3,2",
    "sample --n 12 --count 3",
])
def test_json_rows_stream_as_one_payload(capsys, argv):
    code, out = run_capture(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def _emitted(fmt: str, columns: list[str], rows) -> str:
    out = io.StringIO()
    _emit(out, SimpleNamespace(format=fmt, command="x"), columns, iter(rows))
    return out.getvalue()


@pytest.mark.parametrize("rows", [[], [[1, Fraction(1, 3), 0.1, True, "a\nb"]]])
def test_emit_writes_json_dumps_bytes(rows):
    payload = {"schema_version": 1, "command": "x", "columns": ["a", "b"],
               "rows": [[1, "1/3", 0.1, True, "a\nb"]] if rows else []}
    assert _emitted("json", ["a", "b"], rows) == json.dumps(payload, indent=2) + "\n"


def test_emit_writes_each_value_type_as_before():
    columns = list("abcdefg")
    row = [7, True, Fraction(-2, 6), 0.1, -0.0, math.inf, "a b"]
    assert _emitted("csv", columns, [row]) == (
        "a,b,c,d,e,f,g\n7,true,-1/3,0.10000000000000001,-0,inf,a b\n")
    assert _emitted("json", columns, [row]) == (
        '{\n  "schema_version": 1,\n  "command": "x",\n  "columns": [\n    "a",\n'
        '    "b",\n    "c",\n    "d",\n    "e",\n    "f",\n    "g"\n  ],\n  "rows": [\n'
        '    [\n      7,\n      true,\n      "-1/3",\n      0.1,\n      -0.0,\n'
        '      Infinity,\n      "a b"\n    ]\n  ]\n}\n')


# every value type a CSV row can hold, with the floats and ints that take
# the %-spec path at its edges
_CSV_VALUES = (
    st.integers() | st.integers(-2**300, 2**300),
    st.booleans(),
    st.fractions(),
    st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0]),
    st.text(),
)


def _csv_reference(columns, rows) -> str:
    return "".join(",".join([_CSV_TEXT[type(v)](v) for v in row]) + "\n"
                   for row in [columns, *rows])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 15, 16, 255, 256, 257, 513]), st.data())
def test_csv_blocks_write_each_value_as_its_csv_text(count, data):
    # one pool of values per column, cycled down the rows; the last column
    # switches from its pool to values of any type at a row that may fall
    # inside a block
    pools = data.draw(st.lists(st.sampled_from(_CSV_VALUES).flatmap(
        lambda values: st.lists(values, min_size=1, max_size=3)), min_size=1, max_size=4))
    switch = data.draw(st.integers(0, max(count - 1, 0)))
    late = data.draw(st.lists(st.one_of(*_CSV_VALUES), min_size=1, max_size=3))
    rows = [[pool[i % len(pool)] for pool in pools]
            + [late[i % len(late)] if i >= switch else pools[0][0]] for i in range(count)]
    columns = [f"c{j}" for j in range(len(pools) + 1)]
    assert _emitted("csv", columns, rows) == _csv_reference(columns, rows)


@pytest.mark.parametrize("count, switch", [
    (513, 0), (513, 100), (513, 255), (513, 256), (513, 300), (15, 7), (16, 7)])
def test_csv_column_that_changes_type_keeps_each_value_text(count, switch):
    rows = [[i, 0.1 * i, 10**40 + i if i < switch else Fraction(i, 7),
             "s" if i < switch else (i % 2 == 0), -0.0 if i % 3 else math.nan]
            for i in range(count)]
    columns = list("abcde")
    assert _emitted("csv", columns, rows) == _csv_reference(columns, rows)


@pytest.mark.parametrize("rows", [
    [[1, 2], [3]],                      # short row in the first block
    [[1, 2]] * 300 + [[1, 2, 3]],       # long row in the second block
    [[1]] * 3,                          # every row shorter than the header
])
def test_csv_refuses_a_row_of_another_length(rows):
    with pytest.raises(ValueError, match="must have 2 values"):
        _emitted("csv", ["a", "b"], rows)


@given(st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3))
def test_emit_writes_json_dumps_bytes_of_any_float(rows):
    payload = {"schema_version": 1, "command": "x", "columns": ["a", "b"], "rows": rows}
    assert _emitted("json", ["a", "b"], rows) == json.dumps(payload, indent=2) + "\n"


def test_parser_is_reused_across_calls(capsys):
    argv = ["counts", "--t", "3", "--max-n", "30"]
    assert run(argv) == 0
    first = capsys.readouterr()
    assert run(["sample", "--n", "5", "--count", "0"]) == 2
    refused = capsys.readouterr()
    assert run(argv) == 0
    second = capsys.readouterr()
    assert first.out and second.out == first.out
    assert first.err == second.err == ""
    assert refused.out == ""
    assert len(refused.err.splitlines()) == 1


def _fuzz_argv():
    """A subcommand with small arguments, valid and invalid; the options that
    set the cost (verify's --suite and --max-n, the --samples counts) are
    always given."""
    small = st.integers(-3, 12).map(str)
    draws = st.one_of(st.integers(-3, 300), st.just(MAX_DRAWS + 1)).map(str)
    listed = st.lists(st.integers(-3, 12), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    choices = {
        "counts": {"--t": small, "--max-n": small,
                   "--series": st.sampled_from(["p", "c,d", "p,c,d,C", "C,C", "x", ""])},
        "pmf": {"--t": small, "--n": small},
        "moments": {"--t": small, "--n": listed,
                    "--max-k": st.one_of(small, st.just("200"))},
        "figure1": {"--t": small, "--n": listed,
                    "--view": st.sampled_from(["cdf", "density"]),
                    "--grid-max": st.floats(-1.0, 1e12).map(repr),
                    "--grid-step": st.sampled_from(["0", "-0.5", "nan", "inf", "1e-12", "0.25"])},
        "figure2": {"--t": small, "--max-n": small},
        "hooks": {"--t": small, "--n": small, "--seed": small,
                  "--mode": st.sampled_from(["exact", "sample"])},
        "orbit": {"--t": st.sampled_from(["-1", "1", "2", "3", "4", str(ORBIT_MAX_T + 1)]),
                  "--nu": listed,
                  "--max-b": st.one_of(small, st.just(str(ORBIT_MAX_B)),
                                       st.just(str(ORBIT_MAX_B + 1)))},
        "sample": {"--n": small, "--count": draws, "--seed": small},
        "verify": {"--seed": small},
    }
    always = {
        "hooks": {"--samples": draws},
        "verify": {"--suite": st.sampled_from(["partitions", "abacus", "counting",
                                               "distribution", "sampling", "bogus"]),
                   "--max-n": st.integers(-3, 8).map(str),
                   "--samples": draws},
    }

    @st.composite
    def argv(draw):
        name = draw(st.sampled_from(sorted(choices)))
        flags = draw(st.lists(st.sampled_from(sorted(choices[name])), unique=True))
        words = [name]
        for flag, value in [*((f, choices[name][f]) for f in flags),
                            *always.get(name, {}).items()]:
            words += [flag, draw(value)]
        return words

    return argv()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_argv())
# the draw cap on a small n (the strategies try the cap + 1)
@example(["hooks", "--t", "3", "--n", "2", "--mode", "sample", "--samples", str(MAX_DRAWS)])
def test_fuzzed_command_lines_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] == "verify"
    if code == 2:
        assert out.getvalue() == ""
