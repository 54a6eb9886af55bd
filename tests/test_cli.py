import argparse
import csv
import io
import json
import math
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import eigvalsh_tridiagonal

from zeroflow import (
    GrowthSchedule,
    ZeroCoagulation,
    displaced_oscillator_spectrum,
    displaced_recurrence,
    load_tabulated,
    run_flows,
    tabulated_recurrence,
)
from zeroflow import cli, flows
from zeroflow.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_displaced(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "3", "--tol", "1e-10",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    xs = [float(r["xi"]) for r in rows]
    np.testing.assert_allclose(xs, [-0.04, 0.96, 1.96], atol=1e-9)
    assert all(r["converged"] == "true" for r in rows)


def test_spectrum_rabi_ten_rows(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "rabi", "--kappa", "0.2", "--delta", "0.4",
        "--parity", "+", "--levels", "10", "--tol", "1e-8",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    assert [int(r["l"]) for r in rows] == list(range(1, 11))


def test_spectrum_kappa_zero_is_config_error(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "rabi", "--kappa", "0", "--delta", "0.4",
        "--levels", "2",
    )
    assert code == 1
    assert "kappa" in err


def test_spectrum_json_round_trip(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.5",
        "--levels", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert len(payload["levels"]) == 4
    got = [lv["xi"] for lv in payload["levels"]]
    np.testing.assert_allclose(got, [-0.25, 0.75, 1.75, 2.75], atol=1e-7)


def test_spectrum_output_is_deterministic(capsys):
    args = (
        "spectrum", "--model", "rabi", "--kappa", "0.3", "--delta", "0.7",
        "--levels", "6", "--tol", "1e-9",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_spectrum_partial_budget_exits_2(capsys, tmp_path):
    # at degree 8 the displaced kappa = 1 flows are 6e-5 to 3e-2 above their
    # levels, so nothing can be certified within the default tol 1e-8
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "1",
        "--levels", "3", "--schedule", "6,8",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["converged"] == "false" for r in rows)
    error = np.array([float(r["xi"]) for r in rows]) - displaced_oscillator_spectrum(1.0, 3)
    assert np.max(error) > 1e-8


def test_spectrum_partial_json_is_strict(capsys):
    # a partial result is still strict json: no non-standard NaN token
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "1",
        "--levels", "3", "--schedule", "8", "--format", "json",
    )
    assert code == 2

    def reject(token):
        raise ValueError(f"non-standard json constant {token}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["complete"] is False
    error = np.array([lv["xi"] for lv in payload["levels"]]) - displaced_oscillator_spectrum(1.0, 3)
    assert np.max(error) > payload["tolerance"]


def test_spectrum_partial_csv_keeps_nan(capsys):
    # a partial csv flags every open level and prints finite numbers only
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "1",
        "--levels", "3", "--schedule", "8",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["converged"] for r in rows] == ["false", "false", "false"]
    assert "nan" not in out
    error = np.array([float(r["xi"]) for r in rows]) - displaced_oscillator_spectrum(1.0, 3)
    assert np.max(error) > 1e-8


def test_flow_trace_csv(capsys):
    code, out, err = run_cli(
        capsys,
        "flow", "--model", "displaced", "--kappa", "0.2", "--level", "1",
        "--schedule", "2,4,8,16", "--tol", "1e-6",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    xs = [float(r["x"]) for r in rows]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert abs(xs[-1] + 0.04) < 1e-6


def test_flow_partial_budget_exits_2(capsys):
    code, out, err = run_cli(
        capsys,
        "flow", "--model", "displaced", "--kappa", "1", "--level", "1",
        "--schedule", "8",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["x"]) - (-1.0) > 1e-8  # the ground state is -kappa**2


def test_cf_compare_empty_range(capsys):
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.2",
        "--x-min", "-5.0", "--x-max", "-1.0", "--points", "1000",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows == []


def test_cf_compare_low_levels_detected(capsys):
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "-0.5", "--x-max", "2.5", "--points", "20000",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["true_levels"] == 3
    assert payload["detected_levels"] == 3  # low levels are all visible


def test_cf_compare_counts_zeros_not_poles(capsys):
    # F = -1/E falls through each zero (+ to -) and jumps from - to + at each
    # pole; counting the poles as well gave 1, 2, 2, 2, 2, 0, 0, 0, 0 here
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "-0.3", "--x-max", "8", "--points", "20001",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["f_sign_changes"]) for r in rows] == [1, 1, 1, 1, 1, 0, 0, 0, 0]
    assert [r["detected"] for r in rows] == ["true"] * 5 + ["false"] * 4


def test_cf_compare_memory_does_not_grow_with_points(capsys):
    # the scan reads its grid point by point through indices, so ten
    # million points (an 80 MB array as np.linspace) trace about 2 MB
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            capsys,
            "cf-compare", "--model", "displaced", "--kappa", "0.5",
            "--x-min", "-0.3", "--x-max", "100", "--points", "10000001", "--format", "json",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["true_levels"] == 101
    assert peak < 8 * 2**20


def test_cf_compare_takes_schedule_flags(capsys):
    base = (
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "-0.3", "--x-max", "5", "--format", "json",
    )
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out)["true_levels"] == 6  # k - 0.25 for k = 0..5
    # the default schedule grows from the frozen count's first rows, 32 for
    # these six levels; naming it changes nothing
    rec = displaced_recurrence(0.5)
    steps = flows._steps(rec, 6)
    assert steps.ends.size == 0 and steps.top == 32
    default = ",".join(map(str, GrowthSchedule(32).degrees()))
    assert run_cli(capsys, *base, "--schedule", default)[:2] == (0, out)
    # at degrees 7 and 8 the sixth flow is still 0.4 and 0.13 above k - 0.25:
    # partial results
    exact = np.arange(6) - 0.25
    for schedule in ("7", "7,8"):
        code, short, _ = run_cli(capsys, *base, "--schedule", schedule)
        assert code == 2
        xi = np.array([row["xi"] for row in json.loads(short)["intervals"]])
        assert np.max(xi - exact[: xi.size]) > 1e-8


def test_cf_compare_default_depth_fits_the_table(capsys, tmp_path):
    # total + 60 would pass the end of the 25-entry table; the default depth
    # stops at the table length, which an explicit --depth 25 reproduces
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"c": list(range(25)), "lam": [0.3] * 24}))
    argv = (
        "cf-compare", "--model", "tabulated", "--table", str(path),
        "--x-min", "-1", "--x-max", "10", "--points", "2001", "--schedule", "11,12",
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 2  # at degree 12 the ninth to eleventh flows are 5e-5 to 3e-2 high
    assert err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    # the Sturm count puts eleven zeros below 10 at degree 25; the eleventh
    # rounds to 10.0, and its flow at degree 12 lies above 10
    rec = tabulated_recurrence(load_tabulated(path))
    expect = run_flows(rec, 11, schedule=[11, 12])
    assert [float(r["xi"]) for r in rows] == expect.xi[:10].tolist()
    c, lam = rec.coeff_arrays(25)
    exact = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, 9))
    assert np.max(expect.xi[:10] - exact) > 1e-8
    assert run_cli(capsys, *argv, "--depth", "25") == (code, out, err)


def _refuse_run_flows(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("run_flows called on a refused request")

    monkeypatch.setattr(cli, "run_flows", refused)


@pytest.mark.parametrize("depth", ["0", "-3"])
@pytest.mark.parametrize("x_range", [("-10", "-5"), ("-0.5", "2.5")], ids=["no-level", "levels"])
def test_cf_compare_rejects_depth_below_one_before_solving(capsys, monkeypatch, depth, x_range):
    # no level lies below -5, three lie below 2.5: either way --depth is
    # refused before any flow is solved
    _refuse_run_flows(monkeypatch)
    x_min, x_max = x_range
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", x_min, "--x-max", x_max, "--depth", depth, "--points", "11",
    )
    assert (code, out, err) == (1, "", "error: --depth must be >= 1\n")


def test_cf_compare_rejects_depth_past_the_table(capsys, monkeypatch, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"c": list(range(30)), "lam": [0.3] * 29}))
    _refuse_run_flows(monkeypatch)
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "tabulated", "--table", str(path),
        "--x-min", "-1", "--x-max", "10", "--depth", "100",
    )
    assert (code, out, err) == (1, "", "error: --depth 100 exceeds the table length 30\n")


def test_cf_compare_counts_the_trap_tables_deep_level(capsys, tmp_path):
    # a deep site at index 200: growing n until the count repeats stopped
    # before the site and reported 11 levels below 10.5.  The default first
    # degree lies past the site; the schedule from 32 climbs to it
    c = np.arange(400.0)
    c[200] = -5.0
    path = tmp_path / "trap.json"
    path.write_text(json.dumps({"c": c.tolist(), "lam": [0.04] * 399}))
    eig = eigvalsh_tridiagonal(c, np.full(399, 0.2))
    for schedule in ((), ("--schedule", "32,48,72,108,162,243")):
        code, out, err = run_cli(
            capsys,
            "cf-compare", "--model", "tabulated", "--table", str(path),
            "--x-min", "-6", "--x-max", "10.5", "--points", "2001", "--format", "json",
            *schedule,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["true_levels"] == np.count_nonzero(eig < 10.5) == 12
        xi = [row["xi"] for row in payload["intervals"]]
        np.testing.assert_allclose(xi, eig[:12], rtol=0, atol=1e-8)


_LAYOUTS = {
    "spectrum": (
        ("spectrum", "--model", "displaced", "--kappa", "1", "--levels", "3", "--schedule", "8"),
        ("model", "tolerance", "omega", "complete"),
        "levels",
        {"l": "int", "xi": "float", "n_converged": "int", "converged": "bool"},
    ),
    "flow": (
        ("flow", "--model", "displaced", "--kappa", "0.2", "--level", "1",
         "--schedule", "2,4,8,16"),
        ("model", "l", "converged", "xi"),
        "history",
        {"n": "int", "x": "float"},
    ),
    "cf-compare": (
        ("cf-compare", "--model", "displaced", "--kappa", "0.5", "--x-min", "-0.3",
         "--x-max", "5", "--points", "2001"),
        ("model", "x_min", "x_max", "points", "true_levels", "detected_levels"),
        "intervals",
        {"interval": "int", "x_lo": "float", "x_hi": "float", "xi": "float",
         "f_sign_changes": "int", "true_levels": "int", "detected": "bool"},
    ),
}


@pytest.mark.parametrize("command", sorted(_LAYOUTS))
def test_output_layout(capsys, command):
    argv, header, key, columns = _LAYOUTS[command]
    code, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    assert lines[0] == ",".join(columns)
    assert len(lines) > 1
    cells = []
    for line in lines[1:]:
        for kind, cell in zip(columns.values(), line.split(",")):
            if kind == "int":
                assert cell.isdigit()
            elif kind == "float":  # 17 significant digits
                assert cell == format(float(cell), ".17g")
            else:
                assert cell in ("true", "false")
            cells.append(cell)
    assert "nan" not in cells
    if command == "spectrum":  # one degree too short: nothing converged
        assert "false" in cells
        xi = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.max(xi - displaced_oscillator_spectrum(1.0, 3)) > 1e-8
    if command == "cf-compare":
        assert "true" in cells

    _, out_json, _ = run_cli(capsys, *argv, "--format", "json")

    def reject(token):
        raise ValueError(f"non-standard json constant {token}")

    payload = json.loads(out_json, parse_constant=reject)
    assert list(payload) == [*header, key]
    assert [list(row) for row in payload[key]] == [list(columns)] * (len(lines) - 1)
    for line, row in zip(lines[1:], payload[key]):
        for cell, value in zip(line.split(","), row.values()):
            assert value is None if cell == "nan" else cell in (str(value), format(value, ".17g"), str(value).lower())


def test_classify_rabi_case_a(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--alpha", "0", "--beta", "-1", "--a", "5", "--b", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "in_class": True,
        "case_label": "a",
        "dominant_excluded": True,
        "detail": payload["detail"],
    }


def test_classify_missing_roots_is_error(capsys):
    # negative rationals need the = spelling so argparse keeps them as values
    code, out, err = run_cli(
        capsys, "classify", "--alpha=-1/2", "--beta=-1", "--a", "1", "--b", "1"
    )
    assert code == 1
    assert "t1" in err


def test_usage_error_exits_1_not_2(capsys):
    code = main(["spectrum", "--model", "nonsense", "--levels", "2"])
    capsys.readouterr()
    assert code == 1


_SOLVER_COMMANDS = {
    "spectrum": ("spectrum", "--model", "displaced", "--kappa", "0.2", "--levels", "2"),
    "flow": ("flow", "--model", "displaced", "--kappa", "0.2", "--level", "2"),
    "cf-compare": (
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "-0.3", "--x-max", "2", "--points", "201",
    ),
}


@pytest.mark.parametrize("command", sorted(_SOLVER_COMMANDS))
@pytest.mark.parametrize("flag", [("--n-start", "30"), ("--growth", "2"), ("--n-max", "100")])
def test_removed_cutoff_flags_are_usage_errors(capsys, command, flag):
    # --schedule is the only cut-off flag
    code, out, err = run_cli(capsys, *_SOLVER_COMMANDS[command], *flag)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


@pytest.mark.parametrize("command", sorted(_SOLVER_COMMANDS))
@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run_cli(capsys, *_SOLVER_COMMANDS[command], f"--tol={tol}")
    assert (code, out) == (1, "")
    assert err == "error: --tol must be finite and > 0\n"


def test_tol_below_the_double_spacing_exits_1(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "displaced", "--kappa", "100", "--levels", "3", "--tol", "1e-13")
    assert (code, out) == (1, "")
    assert err.startswith("error: tol=1e-13 is below the double spacing") and err.count("\n") == 1
    assert "np.spacing(x)" in err


@pytest.mark.parametrize("command", sorted(_SOLVER_COMMANDS))
@pytest.mark.parametrize("omega", ["inf", "nan", "0", "-1"])
def test_omega_must_be_finite_and_positive(capsys, command, omega):
    # at inf the levels were printed as -inf and inf with exit 0
    code, out, err = run_cli(capsys, *_SOLVER_COMMANDS[command], f"--omega={omega}")
    assert (code, out) == (1, "")
    assert err == "error: --omega must be finite and > 0\n"


@pytest.mark.parametrize(
    "flags, name",
    [
        (("--model", "rabi", "--kappa", "inf"), "kappa"),
        (("--model", "rabi", "--kappa", "0.5", "--delta", "inf"), "delta"),
        (("--model", "rabi", "--kappa", "0.5", "--delta", "nan"), "delta"),
        (("--model", "rabi", "--kappa", "0.5", "--delta=-inf"), "delta"),
        (("--model", "displaced", "--kappa", "inf"), "kappa"),
    ],
)
def test_model_parameters_must_be_finite(capsys, flags, name):
    # the Rabi ones used to fail later, as a bad coefficient array naming no flag
    code, out, err = run_cli(capsys, "spectrum", *flags, "--levels", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {name} must be finite, got ") and err.count("\n") == 1


@pytest.mark.parametrize("schedule", ["5,", "", "x", "3,2"])
def test_bad_schedule_is_one_line_usage_error(capsys, schedule):
    code, out, err = run_cli(capsys, *_SOLVER_COMMANDS["spectrum"], "--schedule", schedule)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("bounds", [("-0.3", "inf"), ("-inf", "2"), ("nan", "2"), ("-0.3", "nan")])
def test_cf_compare_rejects_non_finite_range(capsys, bounds):
    # at inf the int64 dominance index would wrap to -2^63, and a count
    # over zero rows would print an empty table with exit 0
    x_min, x_max = bounds
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        f"--x-min={x_min}", f"--x-max={x_max}",
    )
    assert (code, out) == (1, "")
    assert err == "error: --x-min and --x-max must be finite\n"


def test_cf_compare_past_the_dominance_range_is_a_numerical_fault(capsys):
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "0", "--x-max", "1e19",
    )
    assert (code, out) == (3, "")
    assert "int64" in err


def test_cf_compare_past_the_int64_row_limit_is_a_numerical_fault(capsys, small_coeff_arrays):
    # the index at 8e16 fits int64, the rows of its frozen count would not:
    # refused on the index, before any row is computed
    code, out, err = run_cli(
        capsys,
        "cf-compare", "--model", "displaced", "--kappa", "0.5",
        "--x-min", "0", "--x-max", "8e16", "--points", "10",
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "past the row limit 4194304" in err


def _readme_cli_commands():
    block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(cmd)[1:] for cmd in block.replace("\\\n", " ").splitlines() if cmd.strip()]


@pytest.mark.parametrize("command", sorted(_SOLVER_COMMANDS))
def test_override_is_an_unknown_flag(capsys, command):
    # the class verdict gates nothing, so there is nothing to override
    code, out, err = run_cli(capsys, *_SOLVER_COMMANDS[command], "--override")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --override" in err


def test_emit_rows_writes_non_finite_numbers_as_nan_and_null(capsys):
    rows = [(1, math.nan, True), (2, math.inf, False), (3, -math.inf, False), (4, 0.5, True)]
    for fmt in ("csv", "json"):
        cli._emit_rows(argparse.Namespace(format=fmt, out=None), {"h": 1}, "rows", ("i", "v", "b"), rows)
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out == "i,v,b\n1,nan,true\n2,inf,false\n3,-inf,false\n4,0.5,true\n"
        else:

            def reject(token):
                raise ValueError(f"non-standard json constant {token}")

            payload = json.loads(out, parse_constant=reject)
            assert payload["h"] == 1
            assert [row["v"] for row in payload["rows"]] == [None, None, None, 0.5]
            assert [row["b"] for row in payload["rows"]] == [True, False, False, True]


@pytest.mark.parametrize("argv", _readme_cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_examples_parse(argv):
    # a flag removed from the parser must not live on in the README
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_readme_spectrum_columns_match_the_csv_header(capsys):
    listed = README.read_text().split("* `spectrum` emits one row per level: `", 1)[1]
    listed = " ".join(listed.split("`", 1)[0].split()).split(", ")
    code, out, _ = run_cli(capsys, *_SOLVER_COMMANDS["spectrum"])
    assert code == 0
    assert out.splitlines()[0].split(",") == listed


def test_classify_spectrum_quadratic_csv(capsys, tmp_path):
    path = tmp_path / "quadratic.csv"
    path.write_text("".join(f"{(n - 1) ** 2}\n" for n in range(1, 9)))
    code, out, err = run_cli(capsys, "classify-spectrum", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-10
    assert payload["family"] in ("linear", "quadratic")
    forced = run_cli(capsys, "classify-spectrum", str(path), "--family", "quadratic")
    assert forced[0] == 0
    quad = json.loads(forced[1])
    assert quad["params"]["u2"] == pytest.approx(1.0, abs=1e-10)


def test_classify_spectrum_too_few_levels(capsys, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    code, out, err = run_cli(capsys, "classify-spectrum", str(path), "--family", "q-quadratic")
    assert code == 1
    assert "levels" in err


@pytest.mark.parametrize(
    "text",
    ['{"levels":[{"xi":null}]}', '{"levels":[{"l":1}]}', '{"levels":[1,2,3,4]}', "l,xi\n1\n"],
    ids=["null-xi", "missing-xi", "bare-numbers", "short-row"],
)
def test_classify_spectrum_malformed_file_is_error(capsys, tmp_path, text):
    path = tmp_path / "levels"
    path.write_text(text)
    code, out, err = run_cli(capsys, "classify-spectrum", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert str(path) in err
    assert "Traceback" not in err


def test_classify_spectrum_round_trips_spectrum_output(capsys, tmp_path):
    for fmt in ("csv", "json"):
        out_path = tmp_path / f"spectrum.{fmt}"
        code, _, _ = run_cli(
            capsys,
            "spectrum", "--model", "displaced", "--kappa", "0.2",
            "--levels", "6", "--tol", "1e-10",
            "--format", fmt, "--out", str(out_path),
        )
        assert code == 0
        code, out, err = run_cli(capsys, "classify-spectrum", str(out_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] < 1e-9
        assert payload["levels_used"] == 6


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "levels.csv"
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "2", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("l,xi,")


def test_numerical_fault_exits_3(capsys, monkeypatch):
    def coagulate(*args, **kwargs):
        raise ZeroCoagulation("adjacent zeros at n=30 closer than 4x tolerance")

    monkeypatch.setattr(cli, "run_flows", coagulate)
    code, out, err = run_cli(
        capsys, "spectrum", "--model", "displaced", "--kappa", "0.2", "--levels", "2"
    )
    assert code == 3
    assert out == ""
    assert "adjacent zeros" in err


def test_short_table_default_schedule_matches_api(capsys, tmp_path):
    # the CLI's default schedule is run_flows's: on this 25-entry table its
    # first degree, the table length, certifies every level
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"c": list(range(25)), "lam": [0.3] * 24}))
    argv = ("spectrum", "--model", "tabulated", "--table", str(path), "--levels", "10")
    rec = tabulated_recurrence(load_tabulated(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["xi"]) for r in rows] == run_flows(rec, 10).xi.tolist()
    assert all(r["converged"] == "true" for r in rows)
    # a list schedule is clamped the same way: 30 becomes a last step at 25,
    # where the levels still open at degree 12 certify
    c, lam = rec.coeff_arrays(25)
    exact = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, 9))
    code, out, err = run_cli(capsys, *argv, "--schedule", "11,12,30")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    expect = run_flows(rec, 10, schedule=[11, 12, 30])
    assert [float(r["xi"]) for r in rows] == expect.xi.tolist()
    assert [r["n_converged"] for r in rows[7:]] == ["25"] * 3
    assert all(r["converged"] == "true" for r in rows)
    np.testing.assert_allclose(expect.xi, exact, atol=1e-8)
    # a list that ends within the table stops there, short of its eigenvalues
    code, out, err = run_cli(capsys, *argv, "--schedule", "11,12")
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [float(r["xi"]) for r in rows] == run_flows(rec, 10, schedule=[11, 12]).xi.tolist()
    assert all(r["converged"] == "false" for r in rows[7:])
    assert np.max(np.array([float(r["xi"]) for r in rows]) - exact) > 1e-8


def test_tabulated_model_via_cli(capsys, tmp_path):
    path = tmp_path / "tab.json"
    c = list(range(40))
    lam = [0.04 * k for k in range(1, 40)]
    path.write_text(json.dumps({"description": "head", "c": c, "lam": lam}))
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "tabulated", "--table", str(path),
        "--levels", "2", "--tol", "1e-8",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    np.testing.assert_allclose(
        [float(r["xi"]) for r in rows], [-0.04, 0.96], atol=1e-7
    )


def test_missing_table_flag_is_config_error(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--model", "tabulated", "--levels", "2"
    )
    assert code == 1
    assert "table" in err


def test_omega_rescales_output(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "2", "--omega", "2.0",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    np.testing.assert_allclose([float(r["xi"]) for r in rows], [-0.08, 1.92], atol=1e-8)
