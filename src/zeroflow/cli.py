"""Command-line front end.

Subcommands:

    spectrum          converged levels of a model (csv or json)
    flow              single zero-flow trace (n, x_{n,l}) for plotting
    cf-compare        zero crossings (+ to -) of the quantization function F
                      on a grid versus the true level count per interval
    classify          growth-exponent membership test (case a-d)
    classify-spectrum lattice-family fit of a spectrum file

The computing subcommands pass the argparse values straight on: _recurrence
validates the flags and builds the model, _schedule hands --schedule (or
None, for run_flows's default schedule) to the flows module, which alone
clamps cut-offs to a tabulated model's length (cf-compare's default --depth
is clamped the same way), and _emit_rows writes every csv or json result.
cf-compare's sign scan (measure._sign_flips) evaluates F only in the cells
of a Sturm-count subgrid that hold a zero of P_depth, with bitwise the
flips of a scan of every grid point, at about depth * sqrt(points * zeros)
cost.  Its grid is a measure._Linspace, which computes the points of
np.linspace(x_min, x_max, points) by index as the scan reads them, so the
memory of the scan grows with sqrt(points * zeros) too, not with --points.

Exit codes: 0 success, 1 usage/config error, 2 partial result (budget hit
before convergence), 3 numerical fault (NonMonotoneFlow, ZeroCoagulation,
Divergent, PrecisionExhausted).  Outputs are deterministic: identical
configurations produce byte-identical files.  CSV numbers carry 17
significant digits and JSON uses shortest round-trip floats, so either
format reparses losslessly; a non-finite number would be nan in csv and null
in json, never json's non-standard NaN token.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import classify
from .errors import (
    Divergent,
    NonMonotoneFlow,
    ParseError,
    PrecisionExhausted,
    ZeroCoagulation,
    ZeroflowError,
)
from .flows import flow_trace, run_flows
from .lattice import FAMILIES, best_lattice_fit, fit_lattice
from .measure import _Linspace, _sign_flips
from .models import (
    RabiParams,
    displaced_recurrence,
    load_tabulated,
    rabi_recurrence,
    tabulated_recurrence,
)
from .recurrence import MonicRecurrence, RecurrenceAsymptotics, _frozen_counts

_DEFAULT_POINTS = 200_001


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ZeroflowError(message)


def _recurrence(args, *checks: tuple[bool, str]) -> MonicRecurrence:
    """The model named by the flags, after the shared model and solver flags
    and then the subcommand's own (condition, message) checks are validated."""
    _require(0.0 < args.tol < math.inf, "--tol must be finite and > 0")
    _require(0.0 < args.omega < math.inf, "--omega must be finite and > 0")
    if args.model == "tabulated":
        _require(args.table is not None, "--table is required for the tabulated model")
    else:
        _require(args.kappa is not None, f"--kappa is required for the {args.model} model")
    if args.model == "displaced":
        _require(args.kappa > 0.0, "kappa must be > 0 to build the displaced recurrence")
    for cond, message in checks:
        _require(cond, message)
    if args.model == "rabi":
        return rabi_recurrence(RabiParams(kappa=args.kappa, delta=args.delta, parity=args.parity))
    if args.model == "displaced":
        return displaced_recurrence(args.kappa)
    return tabulated_recurrence(load_tabulated(args.table))


def _schedule(args) -> list[int] | None:
    """The --schedule degrees, or None for the default schedule."""
    if args.schedule is None:
        return None
    try:
        return [int(tok) for tok in args.schedule.split(",")]
    except ValueError:
        raise ZeroflowError(f"--schedule must be comma-separated integers, got {args.schedule!r}")


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, header: dict, key: str, columns: tuple[str, ...], rows) -> None:
    """csv: the column names, then one line per row, floats with 17
    significant digits and bools as true/false.  json: the header keys, then
    the rows as objects under `key`, with a non-finite float as null."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ("true" if v else "false") if isinstance(v, bool)
                else format(v, ".17g") if isinstance(v, float)
                else v
                for v in row
            )
        _emit(args, buf.getvalue())
        return
    body = [
        {c: None if isinstance(v, float) and not math.isfinite(v) else v for c, v in zip(columns, row)}
        for row in rows
    ]
    _emit(args, json.dumps({**header, key: body}, indent=2) + "\n")


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    rec = _recurrence(args, (args.levels >= 1, "--levels must be >= 1"))
    result = run_flows(rec, args.levels, tol=args.tol, schedule=_schedule(args))
    omega = args.omega
    header = {
        "model": result.model_descriptor,
        "tolerance": result.tolerance,
        "omega": omega,
        "complete": result.complete,
    }
    rows = [(lv.l, lv.xi * omega, lv.n_converged, lv.converged) for lv in result.levels]
    columns = ("l", "xi", "n_converged", "converged")
    _emit_rows(args, header, "levels", columns, rows)
    return 0 if result.complete else 2


# -- flow --------------------------------------------------------------------


def cmd_flow(args) -> int:
    rec = _recurrence(args, (args.level >= 1, "--level must be >= 1"))
    trace = flow_trace(rec, args.level, _schedule(args), tol=args.tol)
    omega = args.omega
    header = {
        "model": rec.description,
        "l": trace.l,
        "converged": trace.converged,
        "xi": None if trace.xi is None else trace.xi * omega,
    }
    rows = [(n, x * omega) for n, x in trace.history]
    _emit_rows(args, header, "history", ("n", "x"), rows)
    return 0 if trace.converged else 2


# -- cf-compare --------------------------------------------------------------


def cmd_cf_compare(args) -> int:
    rec = _recurrence(
        args,
        (np.isfinite([args.x_min, args.x_max]).all(), "--x-min and --x-max must be finite"),
        (args.x_max > args.x_min, "--x-max must exceed --x-min"),
        (args.points >= 2, "--points must be >= 2"),
        (args.depth is None or args.depth >= 1, "--depth must be >= 1"),
    )
    _require(
        args.depth is None or rec.n_cap is None or args.depth <= rec.n_cap,
        f"--depth {args.depth} exceeds the table length {rec.n_cap}",
    )
    # the count of spectral points below x_max: the Sturm count frozen at
    # degree infinity, which every CLI model has
    total = int(_frozen_counts(rec, np.array([args.x_max]))[0])
    rows = []
    complete = True
    if total > 0:
        result = run_flows(rec, total, tol=args.tol, schedule=_schedule(args))
        complete = result.complete
        xi = result.xi
        inside = xi[(xi >= args.x_min) & (xi < args.x_max)]
        depth = args.depth
        if depth is None:
            depth = total + 60 if rec.n_cap is None else min(total + 60, rec.n_cap)

        # F = -1/E falls through each zero (+ to -) and jumps from - to + at
        # each pole, so only + to - changes mark levels
        flip_pos = _sign_flips(rec, _Linspace(args.x_min, args.x_max, args.points), depth)

        # one interval per true level, split at midpoints between levels
        bounds = [args.x_min]
        for a, b in zip(inside, inside[1:]):
            bounds.append(0.5 * (a + b))
        bounds.append(args.x_max)
        for k, level in enumerate(inside):
            lo, hi = bounds[k], bounds[k + 1]
            changes = int(np.count_nonzero((flip_pos >= lo) & (flip_pos < hi)))
            rows.append((k + 1, lo, hi, float(level), changes, 1, changes > 0))

    header = {
        "model": rec.description,
        "x_min": args.x_min,
        "x_max": args.x_max,
        "points": args.points,
        "true_levels": len(rows),
        "detected_levels": sum(1 for r in rows if r[-1]),
    }
    columns = ("interval", "x_lo", "x_hi", "xi", "f_sign_changes", "true_levels", "detected")
    _emit_rows(args, header, "intervals", columns, rows)
    return 0 if complete else 2


# -- classify ----------------------------------------------------------------


def cmd_classify(args) -> int:
    asym = RecurrenceAsymptotics(
        alpha=args.alpha, beta=args.beta, a=args.a, b=args.b, t1=args.t1, t2=args.t2
    )
    report = classify(asym)
    payload = {
        "in_class": report.in_class,
        "case_label": report.case_label,
        "dominant_excluded": report.dominant_excluded,
        "detail": report.detail,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


# -- classify-spectrum -------------------------------------------------------


def _read_spectrum(path: str) -> np.ndarray:
    """Accept cmd_spectrum output (csv with an 'xi' column or json with a
    'levels' list) or a bare one-column csv of energies."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    try:
        if stripped.startswith("{") or stripped.startswith("["):
            payload = json.loads(text)
            if isinstance(payload, dict):
                levels = payload.get("levels")
                _require(isinstance(levels, list), f"{path}: json has no 'levels' list")
                return np.array([float(lv["xi"]) for lv in levels])
            return np.array([float(v) for v in payload])
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        _require(bool(rows), f"{path}: empty spectrum file")
        header = rows[0]
        if "xi" in header:
            col = header.index("xi")
            return np.array([float(r[col]) for r in rows[1:]])
        return np.array([float(r[0]) for r in rows])
    except (TypeError, KeyError, IndexError, ValueError) as exc:
        # a level that is missing, null, not a number, or a row too short
        raise ParseError(f"{path}: not a spectrum file ({type(exc).__name__}: {exc})") from exc


def cmd_classify_spectrum(args) -> int:
    spectrum = np.sort(_read_spectrum(args.path))
    fit = fit_lattice(spectrum, args.family) if args.family else best_lattice_fit(spectrum)
    payload = {
        "family": fit.family,
        "params": fit.params,
        "residual": fit.residual,
        "levels_used": fit.levels_used,
    }
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return 0


# -- parser ------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("rabi", "displaced", "tabulated"), required=True)
    p.add_argument("--kappa", type=float, help="coupling kappa = g/omega (rabi, displaced)")
    p.add_argument("--delta", type=float, default=0.0, help="splitting delta = mu/omega (rabi)")
    p.add_argument("--parity", choices=("+", "-"), default="+", help="parity subspace (rabi)")
    p.add_argument("--table", help="path to a tabulated-model json file")
    p.add_argument("--omega", type=float, default=1.0, help="multiply output energies by omega")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="enclosure width, finite and > 0: a converged level lies in [xi - tol, xi], "
        "up to the bisection resolution of xi (2**-50 * max(1, |xi|))",
    )
    p.add_argument(
        "--schedule",
        default=None,
        help="comma-separated increasing cut-off degrees (default: growth by 1.5 from the "
        "rows the frozen count first runs over at the top level, which usually certify every "
        "level, so a flow trace has one row; name degrees to follow a flow across them)",
    )


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroflow",
        description="Point spectra of tridiagonal bosonic models from flows of polynomial zeros.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="converged energy levels")
    _add_model_flags(p)
    p.add_argument("--levels", type=int, required=True, help="number of levels to converge")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("flow", help="trace one zero flow across cut-offs")
    _add_model_flags(p)
    p.add_argument("--level", type=int, required=True, help="flow index l (1-based)")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("cf-compare", help="continued-fraction sign scan vs true levels")
    _add_model_flags(p)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--points", type=int, default=_DEFAULT_POINTS, help="grid points")
    p.add_argument("--depth", type=int, default=None, help="continued-fraction depth")
    _add_solver_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_cf_compare)

    p = sub.add_parser("classify", help="growth-exponent class membership")
    p.add_argument(
        "--alpha", required=True, help="exponent of a_n, exact rational (write --alpha=-1/2)"
    )
    p.add_argument(
        "--beta", required=True, help="exponent of b_n, exact rational (write --beta=-1)"
    )
    p.add_argument("--a", type=float, required=True, help="prefactor of a_n")
    p.add_argument("--b", type=float, required=True, help="prefactor of b_n")
    p.add_argument("--t1", type=float, default=None, help="larger-|.| characteristic root")
    p.add_argument("--t2", type=float, default=None, help="smaller-|.| characteristic root")
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("classify-spectrum", help="lattice-family fit of a spectrum file")
    p.add_argument("path", help="spectrum file (csv with xi column, bare csv, or json)")
    p.add_argument("--family", choices=FAMILIES, default=None, help="force one family")
    _add_output_flags(p)
    p.set_defaults(func=cmd_classify_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for partial results
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (NonMonotoneFlow, ZeroCoagulation, Divergent, PrecisionExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ZeroflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
