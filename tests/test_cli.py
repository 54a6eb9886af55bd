import csv
import io
import json

import numpy as np
import pytest

from zeroflow.cli import main


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
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "3", "--schedule", "23,30",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["converged"] == "false" for r in rows)


def test_spectrum_partial_json_is_strict(capsys):
    # a level with fewer than two schedule points has no decrement: the json
    # must say null, not the non-standard NaN token
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "3", "--schedule", "30", "--format", "json",
    )
    assert code == 2

    def reject(token):
        raise ValueError(f"non-standard json constant {token}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["complete"] is False
    assert [lv["last_decrement"] for lv in payload["levels"]] == [None, None, None]


def test_spectrum_partial_csv_keeps_nan(capsys):
    code, out, err = run_cli(
        capsys,
        "spectrum", "--model", "displaced", "--kappa", "0.2",
        "--levels", "3", "--schedule", "30",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["last_decrement"] for r in rows] == ["nan", "nan", "nan"]


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
        "flow", "--model", "displaced", "--kappa", "0.2", "--level", "1",
        "--schedule", "12",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1


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


def test_threads_env_is_validated(capsys, monkeypatch):
    monkeypatch.setenv("ZEROFLOW_THREADS", "junk")
    code, out, err = run_cli(
        capsys, "spectrum", "--model", "displaced", "--kappa", "0.2", "--levels", "2"
    )
    assert code == 1
    assert "ZEROFLOW_THREADS" in err
    monkeypatch.setenv("ZEROFLOW_THREADS", "4")
    code, out, err = run_cli(
        capsys, "spectrum", "--model", "displaced", "--kappa", "0.2", "--levels", "2"
    )
    assert code == 0


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
