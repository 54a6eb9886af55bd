"""Distance of a computed spectrum from the exactly solvable lattice shapes.

An exactly solvable model in this recurrence class has its spectrum on one of
four lattice families in the level index n = 1..K:

    linear        u1*n + u0
    quadratic     u2*n**2 + u1*n + u0
    linear-q      u1*q**n + u0             (0 < q < 1)
    q-quadratic   u2*q**(-n) + u1*q**n + u0

The linear families are the u2 = 0 constraints of the other two.  For fixed
q every family is a linear least-squares problem, and one routine
(_least_squares) solves all four: centred modified Gram-Schmidt on columns
scaled to max 1, back-substitution on its R factor for the coefficients, and
R's diagonal for the rank check.  A polynomial fit is one solve.  A q family
evaluates the RMS residual on a whole grid of log q at once: a coarse
257-point grid over q in (1e-6, 1 - 1e-6), then 33-point grids nested on the
two steps around each minimum until the bracket is 1e-14 wide in log q; the
coefficients come from the R of the grid point with the least residual.
The reported residual is the plain RMS deviation over all supplied levels;
no normalization is applied, so residuals from different spectra are
comparable only at the same energy scale.

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
_PROFILE_ELEMENTS = 2**13  # grid points x levels per block of _least_squares
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
    size = y.size
    # dividing by the power of two just above max|y| is exact, and keeps the
    # MGS norms of a spectrum near the double range from overflowing
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(y))))[1])
    y = y / scale
    quadratic = family in ("quadratic", "q-quadratic")

    grid, k = None, 0
    if family in ("linear", "quadratic"):
        rms, r = _least_squares(None, y, quadratic)
    else:
        lo, hi = math.log(_Q_EDGE), math.log(1.0 - _Q_EDGE)
        grid = np.linspace(lo, hi, _SCAN_POINTS)
        for _ in range(64):
            rms, r = _least_squares(grid, y, quadratic)
            k = int(np.argmin(rms))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
            if hi - lo <= _BRACKET_TOL * (1.0 + abs(lo) + abs(hi)):
                break
            grid = np.linspace(lo, hi, _ZOOM_POINTS)

    r = r[:, :, k].tolist()
    m = len(r) - 1  # unknowns: u0 and one or two column coefficients
    if min(r[j][j] for j in range(1, m)) < _RANK_RTOL * math.sqrt(size):
        at = "" if grid is None else f" at q={math.exp(grid[k]):g}"
        raise DegenerateFit(f"{family} design matrix is numerically rank-deficient{at}")
    u = [0.0, 0.0, 0.0]
    for i in reversed(range(m)):
        u[i] = (r[i][m] - sum(r[i][j] * u[j] for j in range(i + 1, m))) / r[i][i]
    if grid is None:
        q, u1, u2 = None, u[1] / size, u[2] / size**2
    else:
        t = float(grid[k])
        q, u1, u2 = math.exp(t), u[1] * math.exp(-t), u[2] * math.exp(size * t)
    return LatticeFit(family, u[0] * scale, u1 * scale, u2 * scale, q, float(rms[k]) * scale, size)


def _least_squares(
    logq: Optional[np.ndarray], y: np.ndarray, quadratic: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of y on 1 and one or two columns scaled to max 1:
    one per log q of a grid, or for logq None one of the polynomial columns
    n/K and (n/K)**2.

    For fixed q the q fit is linear (variable projection, Golub & Pereyra,
    SIAM J. Numer. Anal. 10, 1973), so one pass serves the whole grid.  The
    q columns, q**n and q**(-n) over their maxima, are exp((n - 1) log q)
    and its reversal exp((K - n) log q): neither can overflow.  Centring
    removes the ones column, then the columns and y go through modified
    Gram-Schmidt with a second sweep (Bjorck, BIT 7, 1967).

    Returns the RMS residual of each row (inf for a q-quadratic q at which
    q**(-K) overflows) and R[:, :, g], the triangular factor of
    [1, columns, y]: means in row 0, first-sweep projections above the
    diagonal, final norms on it.  As every column has max 1,
    min R[j, j] / sqrt(K) stands in for sigma_min / sigma_max.
    """
    size = y.size
    rows = 1 if logq is None else logq.size
    cols = 2 if quadratic else 1
    r = np.zeros((cols + 2, cols + 2, rows))
    r[0, 0] = 1.0
    block = max(1, _PROFILE_ELEMENTS // size)
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for s in range(0, rows, block):
            rb = r[:, :, s : s + block]
            if logq is None:
                x = np.arange(1, size + 1, dtype=float)[None, :] / size
                design = [x, x * x]
            else:
                x = np.exp(np.multiply.outer(logq[s : s + block], np.arange(size, dtype=float)))
                design = [x, x[:, ::-1]]
            basis = []
            for j, col in enumerate(design[:cols] + [np.broadcast_to(y, x.shape)], 1):
                w = np.array(col)
                for sweep in range(2):
                    proj = [w.sum(axis=1) / size]  # np.mean, bitwise, with less overhead
                    w -= proj[0][:, None]
                    for b in basis:
                        proj.append(np.einsum("ij,ij->i", b, w))
                        w -= proj[-1][:, None] * b
                    if sweep == 0:
                        rb[:j, j] = proj
                rb[j, j] = np.sqrt(np.einsum("ij,ij->i", w, w))
                if j <= cols:
                    w /= np.where(rb[j, j] > 0.0, rb[j, j], np.inf)[:, None]
                    basis.append(w)
        rms = r[-1, -1] / math.sqrt(size)
        if quadratic and logq is not None:
            rms[~np.isfinite(np.exp(logq) ** -float(size))] = math.inf
    return rms, r


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
