"""Distance of a computed spectrum from the exactly solvable lattice shapes.

An exactly solvable model in this recurrence class has its spectrum on one of
four lattice families in the level index n = 1..K:

    linear        u1*n + u0
    quadratic     u2*n**2 + u1*n + u0
    linear-q      u1*q**n + u0             (0 < q < 1)
    q-quadratic   u2*q**(-n) + u1*q**n + u0

The linear families are the u2 = 0 constraints of the other two.  Polynomial
families solve a linear least-squares problem; q families run a bounded
search for q (coarse log-grid scan, then golden section) with the linear
solve inside.  The reported residual is the plain RMS deviation over all
supplied levels; no normalization is applied, so residuals from different
spectra are comparable only at the same energy scale.

Any origin shift of the level index is absorbed by the u parameters (a
rescaling of u1, u2 for the q families), so fixing n to start at 1 loses no
generality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateFit, TooFewLevels

__all__ = ["LatticeFit", "FAMILIES", "fit_lattice", "best_lattice_fit", "solvability_distance"]

FAMILIES = ("linear", "quadratic", "linear-q", "q-quadratic")

_Q_EDGE = 1e-6           # q confined to (1e-6, 1 - 1e-6)
_SCAN_POINTS = 257
_GOLDEN_TOL = 1e-14
_RANK_RTOL = 1e-13


@dataclass(frozen=True)
class LatticeFit:
    family: str
    u0: float
    u1: float
    u2: float
    q: Optional[float]
    residual: float
    levels_used: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.q is not None and not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be >= 0")

    @property
    def params(self) -> dict:
        out = {"u0": self.u0, "u1": self.u1, "u2": self.u2}
        if self.q is not None:
            out["q"] = self.q
        return out


def _design_poly(n: np.ndarray, quadratic: bool) -> np.ndarray:
    cols = [np.ones_like(n), n]
    if quadratic:
        cols.append(n * n)
    return np.column_stack(cols)


def _design_q(n: np.ndarray, q: float, quadratic: bool) -> np.ndarray:
    # q**(-n) may overflow to inf; rms_at rejects a non-finite design
    with np.errstate(over="ignore"):
        cols = [np.ones_like(n), q**n]
        if quadratic:
            cols.append(q ** (-n))
    return np.column_stack(cols)


def _solve(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Column-scaled least squares; returns (coeffs, rms, rank_ratio).

    Columns are scaled by their max magnitude (the q**(-n) column can span
    hundreds of orders, and an L2 norm of it would overflow)."""
    scale = np.max(np.abs(design), axis=0)
    scale[scale == 0.0] = 1.0
    coef, _, _, sv = np.linalg.lstsq(design / scale, y, rcond=None)
    coef = coef / scale
    res = design @ coef - y
    rms = float(np.sqrt(np.mean(res * res)))
    rank_ratio = float(sv[-1] / sv[0]) if sv.size and sv[0] > 0.0 else 0.0
    return coef, rms, rank_ratio


def fit_lattice(spectrum: Sequence[float], family: str) -> LatticeFit:
    """Least-squares fit of one lattice family to a sorted spectrum."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    y = np.asarray(spectrum, dtype=float)
    if y.ndim != 1:
        raise ValueError("spectrum must be a flat sequence")
    if y.size < 4:
        raise TooFewLevels(f"need at least 4 levels, got {y.size}")
    if np.any(np.diff(y) < 0):
        raise ValueError("spectrum must be sorted ascending")
    n = np.arange(1, y.size + 1, dtype=float)

    if family in ("linear", "quadratic"):
        design = _design_poly(n, quadratic=family == "quadratic")
        coef, rms, rank_ratio = _solve(design, y)
        if rank_ratio < _RANK_RTOL:
            raise DegenerateFit(f"{family} design matrix is numerically rank-deficient")
        u0, u1 = float(coef[0]), float(coef[1])
        u2 = float(coef[2]) if family == "quadratic" else 0.0
        return LatticeFit(family, u0, u1, u2, None, rms, y.size)

    quadratic = family == "q-quadratic"

    def rms_at(logq: float) -> float:
        design = _design_q(n, math.exp(logq), quadratic)
        if not np.all(np.isfinite(design)):
            return math.inf  # q**(-n) overflowed: reject this q
        _, rms, _ = _solve(design, y)
        return rms

    lo, hi = math.log(_Q_EDGE), math.log(1.0 - _Q_EDGE)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    vals = np.array([rms_at(t) for t in grid])
    k = int(np.argmin(vals))
    bl = grid[max(k - 1, 0)]
    bh = grid[min(k + 1, _SCAN_POINTS - 1)]
    logq = _golden_min(rms_at, bl, bh)
    q = math.exp(logq)

    design = _design_q(n, q, quadratic)
    coef, rms, rank_ratio = _solve(design, y)
    if rank_ratio < _RANK_RTOL:
        raise DegenerateFit(f"{family} design matrix is numerically rank-deficient at q={q:g}")
    u0, u1 = float(coef[0]), float(coef[1])
    u2 = float(coef[2]) if quadratic else 0.0
    return LatticeFit(family, u0, u1, u2, q, rms, y.size)


def _golden_min(f, lo: float, hi: float, tol: float = _GOLDEN_TOL) -> float:
    """Golden-section minimum of f on [lo, hi]; robust for the V-shaped
    residual profiles of exact-fit data."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(256):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def best_lattice_fit(spectrum: Sequence[float]) -> LatticeFit:
    """Minimum-residual fit over all four families.  A family whose design
    degenerates numerically is skipped; only if all four fail is the
    degeneracy reraised."""
    best: Optional[LatticeFit] = None
    failures = []
    for family in FAMILIES:
        try:
            fit = fit_lattice(spectrum, family)
        except DegenerateFit as exc:
            failures.append(str(exc))
            continue
        if best is None or fit.residual < best.residual:
            best = fit
    if best is None:
        raise DegenerateFit("; ".join(failures))
    return best


def solvability_distance(spectrum: Sequence[float]) -> tuple[str, float]:
    """Best family over all four and its residual: a raw 'distance from exact
    solvability' for the supplied levels."""
    best = best_lattice_fit(spectrum)
    return best.family, best.residual
