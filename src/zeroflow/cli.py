"""Command-line front end.

Subcommands:

    spectrum          converged levels of a model (csv or json)
    flow              single zero-flow trace (n, x_{n,l}) for plotting
    cf-compare        sign changes of the quantization function F on a grid
                      versus the true level count per interval
    classify          growth-exponent membership test (case a-d)
    classify-spectrum lattice-family fit of a spectrum file

Exit codes: 0 success, 1 usage/config error, 2 partial result (budget hit
before convergence).  Outputs are deterministic: identical configurations
produce byte-identical files.  CSV numbers carry 17 significant digits and
JSON uses shortest round-trip floats, so either format reparses losslessly.

The environment variable ZEROFLOW_THREADS caps worker parallelism; the
current kernels are vectorized in-process on one worker, so any positive
cap is honored as-is (it is validated, never silently ignored).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .classifier import classify
from .errors import ZeroflowError
from .flows import GrowthSchedule, flow_trace, run_flows
from .lattice import FAMILIES, best_lattice_fit, fit_lattice
from .measure import _eval_F_many
from .models import (
    RabiParams,
    displaced_recurrence,
    load_tabulated,
    rabi_recurrence,
    tabulated_recurrence,
)
from .recurrence import MonicRecurrence, RecurrenceAsymptotics, count_zeros_below

_DEFAULT_POINTS = 200_001


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ZeroflowError(message)


def _check_threads_env() -> None:
    raw = os.environ.get("ZEROFLOW_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ZeroflowError(f"ZEROFLOW_THREADS must be a positive integer, got {raw!r}")
    _require(cap >= 1, f"ZEROFLOW_THREADS must be >= 1, got {cap}")


@dataclass(frozen=True)
class RunConfig:
    """Validated solver configuration shared by the computing subcommands.

    Core paths take no random seed: identical configs give identical bytes.
    """

    model: str
    kappa: Optional[float]
    delta: float
    parity: str
    table: Optional[str]
    omega: float
    tol: float
    n_start: Optional[int]
    growth: float
    n_max: int
    schedule: Optional[tuple[int, ...]]
    fmt: str
    out: Optional[str]
    override: bool

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        schedule = None
        if getattr(args, "schedule", None) is not None:
            try:
                schedule = tuple(int(tok) for tok in args.schedule.split(","))
            except ValueError:
                raise ZeroflowError(f"--schedule must be comma-separated integers, got {args.schedule!r}")
        cfg = cls(
            model=args.model,
            kappa=args.kappa,
            delta=args.delta,
            parity=args.parity,
            table=args.table,
            omega=args.omega,
            tol=args.tol,
            n_start=args.n_start,
            growth=args.growth,
            n_max=args.n_max,
            schedule=schedule,
            fmt=args.format,
            out=args.out,
            override=args.override,
        )
        _require(cfg.tol > 0.0, "--tol must be > 0")
        _require(cfg.growth > 1.0, "--growth must be > 1")
        _require(cfg.n_max >= 1, "--n-max must be >= 1")
        _require(cfg.omega > 0.0, "--omega must be > 0")
        if cfg.model == "rabi":
            _require(cfg.kappa is not None, "--kappa is required for the rabi model")
        elif cfg.model == "displaced":
            _require(cfg.kappa is not None, "--kappa is required for the displaced model")
            _require(cfg.kappa > 0.0, "kappa must be > 0 to build the displaced recurrence")
        else:
            _require(cfg.table is not None, "--table is required for the tabulated model")
        return cfg

    def recurrence(self) -> MonicRecurrence:
        if self.model == "rabi":
            return rabi_recurrence(RabiParams(kappa=self.kappa, delta=self.delta, parity=self.parity))
        if self.model == "displaced":
            return displaced_recurrence(self.kappa)
        return tabulated_recurrence(load_tabulated(self.table))

    def schedule_for(self, n_levels: int):
        if self.schedule is not None:
            return list(self.schedule)
        n_start = self.n_start if self.n_start is not None else n_levels + 20
        _require(
            n_start >= n_levels, f"--n-start must be >= the requested levels ({n_levels}), got {n_start}"
        )
        return GrowthSchedule(n_start=n_start, growth=self.growth, n_max=self.n_max)

    def emit(self, text: str) -> None:
        if self.out:
            Path(self.out).write_text(text)
        else:
            sys.stdout.write(text)


# -- spectrum ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    cfg = RunConfig.from_args(args)
    _require(args.levels >= 1, "--levels must be >= 1")
    rec = cfg.recurrence()
    result = run_flows(
        rec,
        args.levels,
        tol=cfg.tol,
        schedule=cfg.schedule_for(args.levels),
        override=cfg.override,
    )
    omega = cfg.omega

    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["l", "xi", "n_converged", "last_decrement", "converged"])
        for lv in result.levels:
            writer.writerow(
                [
                    lv.l,
                    _fmt(lv.xi * omega),
                    lv.n_converged,
                    _fmt(lv.last_decrement * omega) if math.isfinite(lv.last_decrement) else "nan",
                    "true" if lv.converged else "false",
                ]
            )
        cfg.emit(buf.getvalue())
    else:
        payload = {
            "model": result.model_descriptor,
            "tolerance": result.tolerance,
            "omega": omega,
            "complete": result.complete,
            "levels": [
                {
                    "l": lv.l,
                    "xi": lv.xi * omega,
                    "n_converged": lv.n_converged,
                    "last_decrement": (
                        lv.last_decrement * omega if math.isfinite(lv.last_decrement) else None
                    ),
                    "converged": lv.converged,
                }
                for lv in result.levels
            ],
        }
        cfg.emit(json.dumps(payload, indent=2) + "\n")
    return 0 if result.complete else 2


# -- flow --------------------------------------------------------------------


def cmd_flow(args) -> int:
    cfg = RunConfig.from_args(args)
    _require(args.level >= 1, "--level must be >= 1")
    rec = cfg.recurrence()
    trace = flow_trace(
        rec, args.level, cfg.schedule_for(args.level), tol=cfg.tol, override=cfg.override
    )
    omega = cfg.omega

    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "x"])
        for n, x in trace.history:
            writer.writerow([n, _fmt(x * omega)])
        cfg.emit(buf.getvalue())
    else:
        payload = {
            "model": rec.description,
            "l": trace.l,
            "converged": trace.converged,
            "xi": None if trace.xi is None else trace.xi * omega,
            "history": [{"n": n, "x": x * omega} for n, x in trace.history],
        }
        cfg.emit(json.dumps(payload, indent=2) + "\n")
    return 0 if trace.converged else 2


# -- cf-compare --------------------------------------------------------------


def _stable_level_count(rec: MonicRecurrence, x_max: float) -> int:
    """Number of spectral points below x_max: the Sturm count at degree n is
    nondecreasing in n and reaches the true count once the relevant flows
    have crossed x_max, so grow n until the count repeats."""
    n = 64
    prev = -1
    while True:
        if rec.n_cap is not None and n > rec.n_cap:
            n = rec.n_cap
        cnt = count_zeros_below(rec, x_max, n)
        if cnt == prev or (rec.n_cap is not None and n >= rec.n_cap):
            return cnt
        prev = cnt
        n = int(math.ceil(1.5 * n))


def cmd_cf_compare(args) -> int:
    cfg = RunConfig.from_args(args)
    _require(args.x_max > args.x_min, "--x-max must exceed --x-min")
    _require(args.points >= 2, "--points must be >= 2")
    rec = cfg.recurrence()

    total = _stable_level_count(rec, args.x_max)
    rows = []
    complete = True
    if total > 0:
        result = run_flows(rec, total, tol=cfg.tol, override=cfg.override)
        complete = result.complete
        xi = result.xi
        inside = xi[(xi >= args.x_min) & (xi < args.x_max)]
        depth = args.depth if args.depth is not None else total + 60
        _require(depth >= 1, "--depth must be >= 1")

        grid = np.linspace(args.x_min, args.x_max, args.points)
        f_vals = _eval_F_many(rec, grid, depth)
        sign = np.sign(f_vals)
        ok = sign != 0
        flips = (sign[:-1] != sign[1:]) & ok[:-1] & ok[1:]
        flip_pos = grid[:-1][flips]

        # one interval per true level, split at midpoints between levels
        bounds = [args.x_min]
        for a, b in zip(inside, inside[1:]):
            bounds.append(0.5 * (a + b))
        bounds.append(args.x_max)
        for k, level in enumerate(inside):
            lo, hi = bounds[k], bounds[k + 1]
            changes = int(np.count_nonzero((flip_pos >= lo) & (flip_pos < hi)))
            rows.append(
                {
                    "interval": k + 1,
                    "x_lo": lo,
                    "x_hi": hi,
                    "xi": float(level),
                    "f_sign_changes": changes,
                    "true_levels": 1,
                    "detected": changes > 0,
                }
            )

    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["interval", "x_lo", "x_hi", "xi", "f_sign_changes", "true_levels", "detected"]
        )
        for r in rows:
            writer.writerow(
                [
                    r["interval"],
                    _fmt(r["x_lo"]),
                    _fmt(r["x_hi"]),
                    _fmt(r["xi"]),
                    r["f_sign_changes"],
                    r["true_levels"],
                    "true" if r["detected"] else "false",
                ]
            )
        cfg.emit(buf.getvalue())
    else:
        payload = {
            "model": rec.description,
            "x_min": args.x_min,
            "x_max": args.x_max,
            "points": args.points,
            "true_levels": len(rows),
            "detected_levels": sum(1 for r in rows if r["detected"]),
            "intervals": rows,
        }
        cfg.emit(json.dumps(payload, indent=2) + "\n")
    return 0 if complete else 2


# -- classify ----------------------------------------------------------------


def _emit_plain(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


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
    _emit_plain(args, json.dumps(payload, indent=2) + "\n")
    return 0


# -- classify-spectrum -------------------------------------------------------


def _read_spectrum(path: str) -> np.ndarray:
    """Accept cmd_spectrum output (csv with an 'xi' column or json with a
    'levels' list) or a bare one-column csv of energies."""
    text = Path(path).read_text()
    stripped = text.lstrip()
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
    try:
        return np.array([float(r[0]) for r in rows])
    except ValueError as exc:
        raise ZeroflowError(f"{path}: not a spectrum csv ({exc})")


def cmd_classify_spectrum(args) -> int:
    spectrum = np.sort(_read_spectrum(args.path))
    fit = fit_lattice(spectrum, args.family) if args.family else best_lattice_fit(spectrum)
    payload = {
        "family": fit.family,
        "params": fit.params,
        "residual": fit.residual,
        "levels_used": fit.levels_used,
    }
    _emit_plain(args, json.dumps(payload, indent=2) + "\n")
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
    p.add_argument("--tol", type=float, default=1e-8, help="absolute convergence tolerance")
    p.add_argument(
        "--override",
        action="store_true",
        help="run even if the class-membership test is negative",
    )
    p.add_argument("--n-start", type=int, default=None, help="initial cut-off degree")
    p.add_argument("--growth", type=float, default=1.5, help="cut-off growth factor")
    p.add_argument("--n-max", type=int, default=250_000, help="cut-off budget")
    p.add_argument(
        "--schedule", default=None, help="explicit comma-separated cut-off degrees (overrides)"
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
        _check_threads_env()
        return args.func(args)
    except (ZeroflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
