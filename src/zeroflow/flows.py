"""Spectrum as fixed points of monotone flows of polynomial zeros.

For a monic OPS the zeros interlace across degree,

    x_{n+1,l} < x_{n,l} < x_{n+1,l+1},

so for fixed l the sequence x_{n,l} decreases strictly in n and converges to
a limit xi_l <= x_{n,l}; the set of limits is the point spectrum.  The
solver computes the first `count` zeros of P_n on brackets of the pivot-form
Sturm count, which is monotone in x in floating point (each zero is
individually bracketed, so no zero can be skipped silently), and drives n
upward along a growth schedule.  By default the schedule starts at the
rows the frozen count below first runs over at the top level: the first
multiple of 16 at least 16 rows past the dominance index there, so most
requests solve one degree; it grows by 1.5 from there where those rows
fall short.  For 128 levels or more that degree is a step function N(x)
of x, the same rule taken at most count // 64 times under the top level,
so that each point is counted at its own degree (recurrence._pivot_sweep's
per-point stops) and a level is the point where the count of P_{N(x)}
below x steps; the growth schedule grows each step.  No default degree
depends on tol.  A flow stops at the first degree where the Sturm count
frozen at degree infinity (recurrence._frozen_counts: exact at a table's
length, or past a model's dominance index) finds at most l - 1 spectral
points below x_{n,l} - tol, which proves xi_l in [x_{n,l} - tol, x_{n,l}].
That is the only stop rule, so a model with neither a table length nor a
dominance index is refused.  Every degree is
solved cold, from the Gershgorin bracket.  Brackets shrink by multisection,
few brackets taking many probes per batched count (Lo, Philippe & Sameh,
SIAM J. Sci. Stat. Comput. 8, 1987).  A solve multisects the one bracket
all its zeros share, spreading a wide batch of probes below the Gershgorin
end of the leading count + 1 rows and then over the cells between probed
points that still hold two or more zeros, until each zero is alone in its
cell; it then takes safeguarded Newton steps, with
the log-derivative from the same forward sweep as the count, and from the
second step on steps to the pole of a pole-plus-constant fit of the last
two.  The sweep runs each point over a window of rows from below its
turning point, so that log-derivative is that of the window's polynomial,
P_n / P_{k0-1} in effect, which has the zeros of P_n near the point
(recurrence._pivot_sweep).  Every polished zero is re-counted half a
tolerance on either side, where that side is not already proven by its
bracket's counts; one that fails counts a geometric ladder past that side
in one sweep and goes back to multisection from the rungs that bracket it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import NonMonotoneFlow, ZeroCoagulation
from .recurrence import (
    MonicRecurrence,
    _dominance_rows,
    _first_rows,
    _frozen_counts,
    _require_frozen_count,
    _sturm_counts,
    _sturm_newton,
    _zero_bounds,
)

__all__ = [
    "GrowthSchedule",
    "ZeroTableau",
    "ZeroFlow",
    "LevelResult",
    "SpectrumResult",
    "zeros_of",
    "run_flows",
    "flow_trace",
]

# The bracket search halts when the bracket is narrower than 2**-50 absolutely, or
# relatively for |x| > 1.
_BISECT_TOL = 2.0**-50
# How many bisection tolerances two zeros must be apart to count as simple.
_SIMPLE_FACTOR = 4.0
# Probes per pass over all active brackets: the Sturm kernel's cost per step
# is nearly flat up to this batch, so few brackets get many probes each.
_PROBE_BATCH = 256
# Newton sweeps per polished zero; one still moving after them multisects.
_NEWTON_SWEEPS = 16
_DEFAULT_N_MAX = 250_000
# Factor by which a growth schedule raises the cut-off from one degree to the next.
_GROWTH = 1.5


def _bisect_tol(x: np.ndarray) -> np.ndarray:
    return _BISECT_TOL * np.maximum(1.0, np.abs(x))


@dataclass(frozen=True)
class GrowthSchedule:
    """Geometric cut-off schedule n_0, ceil(1.5 n_0), ... capped at n_max."""

    n_start: int
    n_max: int = _DEFAULT_N_MAX

    def __post_init__(self):
        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if self.n_max < self.n_start:
            raise ValueError("n_max must be >= n_start")

    def degrees(self) -> Iterable[int]:
        n = self.n_start
        yield n
        while n < self.n_max:
            # a step that would reach n_max spends the remaining budget at once
            n = min(math.ceil(_GROWTH * n), self.n_max)
            yield n


ScheduleLike = Union[GrowthSchedule, Sequence[int]]


# A default solve of `count` levels has one degree per _STEP_LEVELS levels,
# at most: count // _STEP_LEVELS steps, so fewer than 2 * _STEP_LEVELS levels
# take one degree.
_STEP_LEVELS = 64


@dataclass(frozen=True, eq=False)
class _Steps:
    """A degree N(x) that never decreases in x: degrees[0] up to and at
    ends[0], degrees[i] on (ends[i - 1], ends[i]], and degrees[-1] above
    ends[-1].  A solve at N counts the zeros of P_{N(x)} below each x."""

    ends: np.ndarray
    degrees: np.ndarray

    @property
    def top(self) -> int:
        return int(self.degrees[-1])

    def at(self, xs: np.ndarray) -> np.ndarray:
        return self.degrees[np.searchsorted(self.ends, xs, side="left")]


def _steps(rec: MonicRecurrence, count: int) -> Union[int, _Steps]:
    """The default degree of a solve of `count` levels: one degree under
    2 * _STEP_LEVELS levels, else a step function N(x) of count //
    _STEP_LEVELS steps.  Step j ends at x_j, the upper Gershgorin end of
    the first k_j = _STEP_LEVELS * j rows, which bounds the levels 1 .. k_j
    (the top step, or the one degree, at k = count).  Its degree is the rows
    the frozen count first runs over at x_j (recurrence._first_rows), at
    least k_j, raised to the step before's and capped at n_cap and at
    max(_DEFAULT_N_MAX, count).  C(x) = count of P_{N(x)} below x is
    monotone, as the count of one degree is: the count is monotone in x,
    and a longer sweep only adds pivots."""
    pieces = count // _STEP_LEVELS
    levels = np.append(_STEP_LEVELS * np.arange(1, pieces), count)
    c, lam = rec.coeff_arrays(count)
    ends = np.maximum.accumulate([_zero_bounds(c[:k], lam[:k])[1] for k in levels])
    degrees = np.maximum.accumulate(np.maximum(levels, _first_rows(_dominance_rows(rec, ends))))
    degrees = np.minimum(degrees, min(rec.n_cap or math.inf, max(_DEFAULT_N_MAX, count)))
    if pieces < 2:
        return int(degrees[-1])
    return _Steps(ends=ends[:-1], degrees=degrees)


def _grown(first: Union[int, _Steps]) -> Iterable[Union[int, _Steps]]:
    """The growth schedule by the factor 1.5 from `first`, taken pointwise on
    a step function: each step grows as GrowthSchedule(its degree) does,
    staying at _DEFAULT_N_MAX once there."""
    if not isinstance(first, _Steps):
        yield from GrowthSchedule(first).degrees()
        return
    runs = [list(GrowthSchedule(int(d)).degrees()) for d in first.degrees]
    for i in range(max(map(len, runs))):
        yield _Steps(first.ends, np.array([run[min(i, len(run) - 1)] for run in runs]))


def _degrees(
    rec: MonicRecurrence, count: int, schedule: Optional[ScheduleLike] = None
) -> list[Union[int, _Steps]]:
    """The cut-offs at which `count` flows are followed: an explicit
    increasing list, a growth schedule, or by default the growth schedule by
    the factor 1.5 from _steps (the rows the frozen count first runs over,
    one degree or a step function of x for many levels).  On a tabulated
    model the first degree at or past the table length becomes the last
    one, at that length; later degrees are not read, and a step function is
    clamped step by step."""
    cap = rec.n_cap
    if cap is not None and cap < count:
        raise ValueError("tabulated model too short for the requested levels")
    if schedule is None:
        schedule = _grown(_steps(rec, count))
    elif isinstance(schedule, GrowthSchedule):
        schedule = schedule.degrees()
    degrees: list[Union[int, _Steps]] = []
    for n in schedule:
        if isinstance(n, _Steps):
            if cap is not None:
                n = _Steps(n.ends, np.minimum(n.degrees, cap))
            degrees.append(n)
            if n.degrees[0] == cap:
                break
            continue
        n = int(n)
        if n < 1 or (degrees and n <= degrees[-1]):
            raise ValueError("schedule degrees must be positive and strictly increasing")
        degrees.append(n if cap is None or n < cap else cap)
        if degrees[-1] == cap:
            break
    if not degrees:
        raise ValueError("schedule must contain at least one degree")
    if isinstance(degrees[0], int) and degrees[0] < count:
        raise ValueError(f"schedule degree {degrees[0]} is below the flow count {count}")
    return degrees


@dataclass(frozen=True)
class ZeroTableau:
    """The `count` smallest zeros of P_n, strictly increasing."""

    n: int
    zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.ndim != 1:
            raise ValueError("zeros must be one-dimensional")
        if z.size > 1 and not np.all(np.diff(z) > 0):
            raise ZeroCoagulation(f"tableau at n={self.n} is not strictly increasing")


@dataclass(frozen=True)
class ZeroFlow:
    """History of one zero flow x_{n,l} over the schedule."""

    l: int
    history: tuple[tuple[int, float], ...]
    converged: bool
    xi: Optional[float]


@dataclass(frozen=True)
class LevelResult:
    """Level l: xi = x_{n,l} at the last degree n visited, n the level's
    own degree (with a step function N, N(xi)).  A converged level is
    certified at its own degree n_converged: the true level lies in
    [xi - tol, xi], up to the bisection resolution of xi (2**-50 *
    max(1, |xi|)).  The flow's history across degrees is flow_trace's."""

    l: int
    xi: float
    n_converged: int
    converged: bool


@dataclass(frozen=True)
class SpectrumResult:
    levels: tuple[LevelResult, ...]
    model_descriptor: str
    tolerance: float

    def __post_init__(self):
        xs = [lv.xi for lv in self.levels]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ZeroCoagulation("spectrum levels are not strictly increasing")

    @property
    def complete(self) -> bool:
        return all(lv.converged for lv in self.levels)

    @property
    def xi(self) -> np.ndarray:
        return np.array([lv.xi for lv in self.levels])


def zeros_of(rec: MonicRecurrence, n: int, count: int) -> ZeroTableau:
    """The `count` smallest zeros of P_n on Sturm-count brackets.  The
    shared bracket is multisected into cells only until each zero is alone
    in one, each isolated zero is then polished by safeguarded Newton
    steps, and multisection finishes the zeros the polish leaves.

    Each zero x_{n,l} is the unique point where the zeros-below count steps
    from l-1 to l; every final bracket must have the counts l-1 and l at
    its ends (each bracket carries the counts taken where its ends were
    set), and [x - tol/2, x + tol/2] about a polished zero is re-counted
    at each end that lies inside its bracket, so an omission or a collision
    is detected rather than silently absorbed.  A zero that fails the
    re-count lies beyond x - tol/2 or x + tol/2; the ladder x -/+ (tol/2)
    16**j, j = 1, 2, ..., inside its bracket is counted in one sweep, and
    the zero multisects from the two rungs (or bracket ends) either side of
    it, a bracket at most 16 times its distance from x.

    Inside run_flows n may also be a step function N(x) of x (_Steps): then
    every count at x is that of P_{N(x)}, and zero l is the point where
    that count, still monotone in x, steps from l-1 to l.
    """
    steps = n if isinstance(n, _Steps) else None
    top = n.top if steps else n
    if count < 1 or count > top:
        raise ValueError(f"count must be in [1, n]; got count={count}, n={top}")
    c, lam = rec.coeff_arrays(top)
    lo_glob, hi_glob = _zero_bounds(c, lam)
    lo = np.full(count, lo_glob)
    hi = np.full(count, hi_glob)
    # the counts at lo and hi; all zeros of every degree up to top lie
    # between the Gershgorin ends of its rows
    lo_ct = np.zeros(count, dtype=np.int64)
    hi_ct = np.full(count, top, dtype=np.int64)
    targets = np.arange(1, count + 1, dtype=np.int64)

    zeros = np.full(count, np.nan)
    # zeros 1 .. count + 1 of every P_n lie below the Gershgorin end of
    # rows 0 .. count, by interlacing
    below = _zero_bounds(c[: count + 1], lam[: count + 1])[1] if count < top else hi_glob
    iso = _isolate(c, lam, lo, hi, lo_ct, hi_ct, targets, below, steps)
    x = _polish(c, lam, lo, hi, lo_ct, hi_ct, targets, iso, steps)
    settled = np.isfinite(x)  # the others multisect below
    iso, x = iso[settled], x[settled]
    # a polished zero l must pass the re-count of [x - tol/2, x + tol/2]:
    # count l - 1 below it and l at its top.  Its bracket's ends already
    # have those counts, so an end of the interval at or beyond its
    # bracket needs no count.
    half = 0.5 * _bisect_tol(x)
    pts = np.stack((x - half, x + half))
    expect = np.stack((targets[iso] - 1, targets[iso]))
    cts = expect.copy()
    todo = np.stack((pts[0] > lo[iso], pts[1] < hi[iso]))
    cts[todo] = _sweep(_sturm_counts, c, lam, pts[todo], steps)
    _narrow(lo, hi, lo_ct, hi_ct, targets, iso, pts, cts, todo)
    ok = (cts == expect).all(axis=0)
    zeros[iso[ok]] = x[ok]
    # a zero that fails lies below x - tol/2 (count l there) or above
    # x + tol/2: count the ladder x -/+ (tol/2) 16**j, j >= 1, inside its
    # bracket in one sweep, and multisect below from the rungs either
    # side of the zero
    fail, x, half = iso[~ok], x[~ok], half[~ok]
    if fail.size:
        side = np.where(cts[0, ~ok] == targets[fail], -half, half)
        rungs = math.ceil(math.log(float(np.max((hi[fail] - lo[fail]) / half)), 16))
        pts = x + side * 16.0 ** np.arange(1, max(rungs, 1) + 1)[:, None]
        todo = (pts > lo[fail]) & (pts < hi[fail])
        cts = np.zeros(pts.shape, dtype=np.int64)
        cts[todo] = _sweep(_sturm_counts, c, lam, pts[todo], steps)
        _narrow(lo, hi, lo_ct, hi_ct, targets, fail, pts, cts, todo)
    rest = np.flatnonzero(np.isnan(zeros))
    _multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, rest, steps)
    zeros[rest] = 0.5 * (lo[rest] + hi[rest])

    # no-skip verification: each final bracket must hold exactly one zero;
    # every end was counted where it was set, or is a Gershgorin end
    if not (
        np.array_equal(lo_ct[rest], targets[rest] - 1)
        and np.array_equal(hi_ct[rest], targets[rest])
    ):
        raise ZeroCoagulation(
            f"bracket counts inconsistent at n={top}: zeros closer than bisection resolution"
        )
    # simplicity: zeros are provably simple, so near-coincidence means the
    # working precision is exhausted at this degree
    if count > 1:
        gap_tol = _SIMPLE_FACTOR * _bisect_tol(zeros[1:])
        if np.any(np.diff(zeros) <= gap_tol):
            raise ZeroCoagulation(f"adjacent zeros at n={top} closer than {_SIMPLE_FACTOR}x tolerance")
    return ZeroTableau(n=top, zeros=zeros)


def _sweep(kernel, c, lam, xs, steps):
    """kernel (_sturm_counts or _sturm_newton) at the 1-D xs, for P_n with
    n = len(c), or for P_{N(x)} at each x with a step function N (steps)."""
    return kernel(c, lam, xs) if steps is None else kernel(c, lam, xs, steps.at(xs))


def _narrow(lo, hi, lo_ct, hi_ct, targets, idx, pts, cts, counted) -> None:
    """Move the brackets of the zeros with indices idx, and the counts at
    their ends, in place, to the points pts[:, i] counted inside bracket
    idx[i] (where counted[:, i]) with counts cts[:, i]: the highest with a
    count below zero l becomes lo, the lowest with a count of at least l
    hi."""
    below = counted & (cts < targets[idx])
    above = counted & (cts >= targets[idx])
    cols = np.flatnonzero(below.any(axis=0))
    i = np.argmax(np.where(below, pts, -np.inf), axis=0)[cols]
    lo[idx[cols]], lo_ct[idx[cols]] = pts[i, cols], cts[i, cols]
    cols = np.flatnonzero(above.any(axis=0))
    i = np.argmin(np.where(above, pts, np.inf), axis=0)[cols]
    hi[idx[cols]], hi_ct[idx[cols]] = pts[i, cols], cts[i, cols]


def _multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, active, steps=None) -> None:
    """Shrink the brackets [lo, hi] of the zeros with indices `active`, and
    the counts lo_ct, hi_ct at their ends, in place, to the bisection
    tolerance.  Each pass spends _PROBE_BATCH probes over the active
    brackets, p per bracket, spaced evenly inside it."""
    while active.size:
        lo_a, hi_a = lo[active], hi[active]
        width = hi_a - lo_a
        # p probes per bracket, ascending, so that k below indexes the sorted ends
        p = max(1, _PROBE_BATCH // active.size)
        e = np.arange(p, 0, -1)
        probes = hi_a[:, None] - width[:, None] * (e / (p + 1))
        cts = _sweep(_sturm_counts, c, lam, probes.ravel(), steps).reshape(probes.shape)
        k = np.count_nonzero(cts < targets[active, None], axis=1)
        ends = np.hstack((lo_a[:, None], probes, hi_a[:, None]))
        ends_ct = np.hstack((lo_ct[active, None], cts, hi_ct[active, None]))
        rows = np.arange(active.size)
        new_lo, new_hi = ends[rows, k], ends[rows, k + 1]
        lo[active], hi[active] = new_lo, new_hi
        lo_ct[active], hi_ct[active] = ends_ct[rows, k], ends_ct[rows, k + 1]
        # an end that did not move means every probe rounded onto lo or hi:
        # float resolution (a wide width may round to itself and still move)
        moved = (new_lo > lo_a) | (new_hi < hi_a)
        keep = (new_hi - new_lo > _bisect_tol(0.5 * (new_lo + new_hi))) & moved
        active = active[keep]


def _isolate(c, lam, lo, hi, lo_ct, hi_ct, targets, below, steps=None) -> np.ndarray:
    """Multisect the shared bracket [lo, hi] until each zero is alone
    in a cell between two probed points, set every bracket and the counts
    lo_ct, hi_ct at its ends, in place, to its zero's cell, and return the
    indices of the isolated zeros.

    The probed points are kept sorted with their counts; the bracket of zero
    l is [last point with count <= l - 1, first point with count >= l], and l
    is isolated when those counts are l - 1 and l.  A cell splits while it
    holds two or more of the zeros 1..count + 1 (zero count must be split from
    the next one): each pass spreads max(_PROBE_BATCH, 2 * count) distinct
    probes evenly over those cells, in proportion to how many each holds.
    Pass 1 spreads them over (lo, below], `below` a point under which zeros
    1..count + 1 lie, and counts `below` with them.  A cell no wider than
    the bisection tolerance, or whose probes all round onto its ends,
    cannot split and is closed; its zeros are left to multisection.  Every
    pass adds a point inside each open cell or closes it, so the loop ends.
    """
    count = targets.size
    batch = max(_PROBE_BATCH, 2 * count)
    pts = np.array([lo[0], hi[0]])
    cts = np.array([lo_ct[0], hi_ct[0]])
    if below < hi[0]:
        probes = lo[0] + (below - lo[0]) * (np.arange(1, batch + 1) / batch)
        probes[-1] = below
        probes = probes[probes > lo[0]]
        probes = probes[np.append(True, probes[1:] > probes[:-1])]
        pts = np.concatenate(([lo[0]], probes, [hi[0]]))
        cts = np.concatenate(([lo_ct[0]], _sweep(_sturm_counts, c, lam, probes, steps), [hi_ct[0]]))
    closed = np.zeros(pts.size - 1, dtype=bool)  # per cell [pts[i], pts[i + 1]]
    while True:
        weight = np.diff(np.minimum(cts, count + 1))
        cells = np.flatnonzero((weight >= 2) & ~closed)
        if not cells.size:
            break
        a, b, w = pts[cells], pts[cells + 1], weight[cells]
        p = batch * w // w.sum()  # at least 2: w >= 2, w.sum() <= count + 1
        p[b - a <= _bisect_tol(0.5 * (a + b))] = 0
        cell = np.repeat(np.arange(cells.size), p)
        j = np.arange(cell.size) - (np.cumsum(p) - p)[cell] + 1
        probes = a[cell] + (b - a)[cell] * (j / (p + 1)[cell])
        # cells ascend and probes ascend within a cell: drop the ones that
        # round onto an end or onto the probe before
        keep = (probes > a[cell]) & (probes < b[cell])
        keep[1:] &= probes[1:] > probes[:-1]
        probes, cell = probes[keep], cell[keep]
        closed[cells[np.bincount(cell, minlength=cells.size) == 0]] = True
        if not probes.size:
            continue
        at = cells[cell] + 1
        pts = np.insert(pts, at, probes)
        cts = np.insert(cts, at, _sweep(_sturm_counts, c, lam, probes, steps))
        closed = np.insert(closed, at, False)
    i = np.searchsorted(cts, targets - 1, side="right") - 1
    lo[:], hi[:] = pts[i], pts[i + 1]
    lo_ct[:], hi_ct[:] = cts[i], cts[i + 1]
    return np.flatnonzero((lo_ct == targets - 1) & (hi_ct == targets))


def _pole_fit(x0, s0, x1, s1):
    """The two poles z of the fits s = 1 / (x - z) + g through (x0, s0) and
    (x1, s1), NaN where there is none.  With d = x0 - x1 and t = (s1 - s0) d,
    u = x1 - z solves u (u + d) = d^2 / t: u = 2 d / (t (1 + w)) or
    -d (1 + w) / 2, w = sqrt(1 + 4 / t), each form free of cancellation."""
    d = x0 - x1
    t = (s1 - s0) * d
    w = np.sqrt(1.0 + 4.0 / t)
    return x1 - 2.0 * d / (t * (1.0 + w)), x1 + 0.5 * d * (1.0 + w)


def _polish(c, lam, lo, hi, lo_ct, hi_ct, targets, idx, steps=None) -> np.ndarray:
    """Safeguarded Newton iteration with memory for the isolated zeros with
    indices idx; returns their polished points, NaN where a zero did not
    settle within _NEWTON_SWEEPS.  Each step takes the count and s = Q'/Q
    from one _sturm_newton sweep, Q the polynomial of the point's window
    of rows, which has the zeros of P_n near the point; the count shrinks
    the bracket [lo, hi], with the counts lo_ct and hi_ct at its ends, in
    place.  From the second sweep on, s at the last two points is fitted with
    1 / (x - z) + g, a pole for the zero and a constant for the pull of the
    far zeros (as secant solvers of the secular equation do, R.-C. Li,
    LAPACK Working Note 89, 1993), and the next point is the pole z strictly
    inside the bracket (the one nearer the Newton point if both are).
    Without one it is the Newton point if that is finite and inside the
    bracket, else the bracket's midpoint.  A zero stops at a Newton step no
    longer than the bisection tolerance, at the Newton point, or when its
    bracket is that narrow."""
    out = np.full(idx.size, np.nan)
    pos = np.arange(idx.size)
    x = 0.5 * (lo[idx] + hi[idx])
    x_old = s_old = np.full(idx.size, np.nan)
    for _ in range(_NEWTON_SWEEPS):
        if not pos.size:
            break
        active = idx[pos]
        cts, s = _sweep(_sturm_newton, c, lam, x, steps)
        below = cts < targets[active]
        lo_a = lo[active] = np.where(below, x, lo[active])
        hi_a = hi[active] = np.where(below, hi[active], x)
        lo_ct[active] = np.where(below, cts, lo_ct[active])
        hi_ct[active] = np.where(below, hi_ct[active], cts)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = x - 1.0 / s
            z1, z2 = _pole_fit(x_old, s_old, x, s)
            nearer2 = np.abs(z2 - newton) < np.abs(z1 - newton)
        step = np.abs(newton - x)
        # s = inf is an exact zero at x, an end of the bracket; NaN is never ok
        ok = ((newton > lo_a) & (newton < hi_a)) | (step == 0.0)
        x_new = np.where(ok, newton, 0.5 * (lo_a + hi_a))
        tol = _bisect_tol(x_new)
        done = (ok & (step <= tol)) | (hi_a - lo_a <= tol)
        out[pos[done]] = x_new[done]
        # a pole strictly inside the bracket, the one nearer the Newton point
        # if both are; comparisons with NaN are false
        in1, in2 = (z1 > lo_a) & (z1 < hi_a), (z2 > lo_a) & (z2 < hi_a)
        x_new = np.where(in2 & (nearer2 | ~in1), z2, np.where(in1, z1, x_new))
        x_old, s_old = x[~done], s[~done]
        pos, x = pos[~done], x_new[~done]
    return out


def _track_flows(
    rec: MonicRecurrence,
    count: int,
    tol: float,
    schedule: Optional[ScheduleLike],
    watch: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The degree of each of the first `count` zero flows at each cut-off
    visited (one row per cut-off: the cut-off, or its step function at the
    zero), the tableaux of those flows (one row per cut-off), and the degree
    at which each flow converged (0 if it did not), as run_flows defines
    them.  Stops once every flow from index `watch` on has converged.
    Before any zero is computed, tol must be finite and > 0 and the model's
    count must freeze (a table length or a dominance index), else
    ValueError."""
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0; got {tol!r}")
    _require_frozen_count(rec)
    rows: list[np.ndarray] = []
    own: list[np.ndarray] = []
    n_conv = np.zeros(count, dtype=np.int64)
    flat = False
    for n in _degrees(rec, count, schedule):
        n = n.top if flat and isinstance(n, _Steps) else n
        try:
            x = zeros_of(rec, n, count).zeros
        except ZeroCoagulation:
            # a step of N short at its end makes the count jump there by more
            # than one level, a collision of the step function's own making:
            # from here on each cut-off is its step function's top degree
            if not isinstance(n, _Steps):
                raise
            n, flat = n.top, True
            x = zeros_of(rec, n, count).zeros
        deg = n.at(x) if isinstance(n, _Steps) else np.full(count, n)
        if rows:
            prev = rows[-1]
            up = np.flatnonzero(x > prev + _bisect_tol(np.maximum(np.abs(prev), np.abs(x))))
            if up.size:
                i = int(up[0])
                raise NonMonotoneFlow(
                    f"flow l={i + 1} increased from x_{{{own[-1][i]}}}="
                    f"{float(prev[i])!r} to x_{{{deg[i]}}}={float(x[i])!r}"
                )
        rows.append(x)
        own.append(deg)
        # open flows l (index l - 1) whose points x_{n,l} - tol have at most
        # l - 1 spectral points below them: xi_l lies in [x - tol, x]
        open_ = np.flatnonzero(n_conv == 0)
        lower = x[open_] - tol
        stuck = np.flatnonzero(lower == x[open_])
        if stuck.size:
            i = int(open_[stuck[0]])
            raise ValueError(
                f"tol={tol!r} is below the double spacing at level {i + 1}, x={float(x[i])!r} "
                f"(|np.spacing(x)| = {abs(float(np.spacing(x[i])))!r}): x - tol rounds to x"
            )
        below = _frozen_counts(rec, lower)
        closed = open_[below <= open_]
        n_conv[closed] = deg[closed]
        if n_conv[watch:].all():
            break
    return np.array(own), np.array(rows), n_conv


def run_flows(
    rec: MonicRecurrence,
    n_levels: int,
    tol: float = 1e-8,
    schedule: Optional[ScheduleLike] = None,
) -> SpectrumResult:
    """Track the first n_levels zero flows until each has converged.

    The cut-offs follow `schedule`, by default a growth schedule by the
    factor 1.5 from the rows the frozen count first runs over at the top
    level (for 128 levels or more a step function of x under them, _steps),
    so that one solve usually suffices.
    Each level's n_converged is its own degree.  tol, finite and > 0, is
    the width of the enclosure, up to the bisection resolution of xi: a
    flow converges at the first degree n where the frozen Sturm count proves
    xi_l >= x_{n,l} - tol, which with xi_l <= x_{n,l} encloses the level; a
    model without that count (no table length, no dominance index) is
    refused with ValueError; its class verdict (classify) is not consulted.
    If the schedule is exhausted first, the partial result is returned with
    the affected levels flagged converged=False.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    degrees, tableaux, n_conv = _track_flows(rec, n_levels, tol, schedule, watch=0)
    xi = tableaux[-1].tolist()
    last = degrees[-1].tolist()
    return SpectrumResult(
        levels=tuple(
            LevelResult(
                l=i + 1,
                xi=xi[i],
                n_converged=int(n_conv[i]) or last[i],
                converged=bool(n_conv[i]),
            )
            for i in range(n_levels)
        ),
        model_descriptor=rec.description,
        tolerance=float(tol),
    )


def flow_trace(
    rec: MonicRecurrence,
    l: int,
    schedule: Optional[ScheduleLike] = None,
    tol: float = 1e-8,
) -> ZeroFlow:
    """Full history of the single flow x_{n,l} over the schedule (by default
    run_flows's for l levels, whose first degree, the frozen count's first
    rows, usually certifies, so the history then has one row; an explicit
    schedule gives a flow across several degrees), up to the degree at which
    it converged by run_flows's rule, each n the flow's own degree; tol and
    the model are checked as in run_flows.  This is where a level's
    decrements across degrees are read: run_flows reports the last degree
    only."""
    if l < 1:
        raise ValueError("l must be >= 1")
    degrees, tableaux, n_conv = _track_flows(rec, l, tol, schedule, watch=l - 1)
    history = tuple(zip(degrees[:, l - 1].tolist(), tableaux[:, l - 1].tolist()))
    converged = bool(n_conv[l - 1])
    return ZeroFlow(
        l=l, history=history, converged=converged, xi=history[-1][1] if converged else None
    )
