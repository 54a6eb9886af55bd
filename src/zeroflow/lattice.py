"""Distance of a computed spectrum from the exactly solvable lattice shapes.

An exactly solvable model in this recurrence class has its spectrum on one of
four lattice families in the level index n = 1..K:

    linear        u1*n + u0
    quadratic     u2*n**2 + u1*n + u0
    linear-q      u1*q**n + u0             (0 < q < 1)
    q-quadratic   u2*q**(-n) + u1*q**n + u0

The linear families are the u2 = 0 constraints of the other two.  Polynomial
families solve a linear least-squares problem.  For fixed q the q families
are linear too, so their search for q evaluates the RMS residual on a whole
grid of log q at once (_rms_profile): a coarse 257-point grid over
q in (1e-6, 1 - 1e-6), then 33-point grids nested on the two steps around
each minimum until the bracket is 1e-14 wide in log q.  The coefficients and
residual at the chosen q come from the same least-squares solve as the
polynomial families.  The reported residual is the plain RMS deviation over
all supplied levels; no normalization is applied, so residuals from
different spectra are comparable only at the same energy scale.

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
_SCAN_POINTS = 257       # coarse log q grid
_ZOOM_POINTS = 33        # each finer grid spans the two steps around the last minimum
_BRACKET_TOL = 1e-14     # relative bracket width in log q at which the zoom stops
_PROFILE_ELEMENTS = 2**13  # grid points x levels per block of _rms_profile
_RANK_RTOL = 1e-13
# best_lattice_fit ties: exact lattices fit to a few eps * max|y| in every
# family that contains them, and near q = 1 the q-family coefficients cancel
# (+-4e7 on a spectrum of size 50), which moves a residual by ~1e-9 of itself
_TIE_RTOL = 1e-8
_TIE_ATOL = 1e-13


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
    # q**(-n) may overflow to inf; _rms_profile rejects such a q
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
    if not np.all(np.isfinite(y)):
        raise ValueError("spectrum must be finite")
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
    lo, hi = math.log(_Q_EDGE), math.log(1.0 - _Q_EDGE)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    for _ in range(64):
        k = int(np.argmin(_rms_profile(grid, y, quadratic)))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        if hi - lo <= _BRACKET_TOL * (1.0 + abs(lo) + abs(hi)):
            break
        grid = np.linspace(lo, hi, _ZOOM_POINTS)
    q = math.exp((lo + hi) / 2.0)

    design = _design_q(n, q, quadratic)
    coef, rms, rank_ratio = _solve(design, y)
    if rank_ratio < _RANK_RTOL:
        raise DegenerateFit(f"{family} design matrix is numerically rank-deficient at q={q:g}")
    u0, u1 = float(coef[0]), float(coef[1])
    u2 = float(coef[2]) if quadratic else 0.0
    return LatticeFit(family, u0, u1, u2, q, rms, y.size)


def _rms_profile(logq: np.ndarray, y: np.ndarray, quadratic: bool) -> np.ndarray:
    """RMS residual of the q-family least-squares fit at every log q of a grid.

    For fixed q the fit is linear (variable projection, Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 1973), so one pass serves the whole grid.  Row
    g holds the columns q**n and q**(-n) scaled by their maxima, which are
    exp((n - 1) log q) and its reversal exp((K - n) log q): neither can
    overflow.  The ones column is projected out by centring, then the q
    columns and y go through modified Gram-Schmidt with a second pass, which
    is stable for least squares (Bjorck, BIT 7, 1967).  A q at which
    q**(-K) overflows, where _design_q cannot be solved, gives inf.
    """
    size = y.size
    out = np.empty(logq.size)
    rows = max(1, _PROFILE_ELEMENTS // size)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for s in range(0, logq.size, rows):
            t = logq[s : s + rows]
            u = np.exp(np.multiply.outer(t, np.arange(size, dtype=float)))
            basis = []
            for col in ([u, u[:, ::-1]] if quadratic else [u]) + [np.broadcast_to(y, u.shape)]:
                w = np.array(col)
                for _ in range(2):
                    w -= w.mean(axis=1, keepdims=True)
                    for b in basis:
                        w -= np.einsum("ij,ij->i", b, w)[:, None] * b
                norm = np.sqrt(np.einsum("ij,ij->i", w, w))[:, None]
                w /= np.where(norm > 0.0, norm, np.inf)
                basis.append(w)
            rms = norm[:, 0] / math.sqrt(size)  # of what y leaves outside the span
            if quadratic:
                rms[~np.isfinite(np.exp(t) ** -float(size))] = math.inf
            out[s : s + rows] = rms
    return out


def best_lattice_fit(spectrum: Sequence[float]) -> LatticeFit:
    """Minimum-residual fit over all four families.  Residuals that agree
    to within rounding tie, and a tie goes to the earliest (simplest) family
    in FAMILIES.  A family whose design degenerates numerically is skipped;
    only if all four fail is the degeneracy reraised."""
    fits = []
    failures = []
    for family in FAMILIES:
        try:
            fits.append(fit_lattice(spectrum, family))
        except DegenerateFit as exc:
            failures.append(str(exc))
    if not fits:
        raise DegenerateFit("; ".join(failures))
    least = min(fit.residual for fit in fits)
    scale = float(np.max(np.abs(np.asarray(spectrum, dtype=float))))
    cut = least * (1.0 + _TIE_RTOL) + _TIE_ATOL * scale
    return next(fit for fit in fits if fit.residual <= cut)


def solvability_distance(spectrum: Sequence[float]) -> tuple[str, float]:
    """Best family over all four and its residual: a raw 'distance from exact
    solvability' for the supplied levels."""
    best = best_lattice_fit(spectrum)
    return best.family, best.residual
