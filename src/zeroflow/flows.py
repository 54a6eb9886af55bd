"""Spectrum as fixed points of monotone flows of polynomial zeros.

For a monic OPS the zeros interlace across degree,

    x_{n+1,l} < x_{n,l} < x_{n+1,l+1},

so for fixed l the sequence x_{n,l} decreases strictly in n and converges to
a limit xi_l <= x_{n,l}; the set of limits is the point spectrum.  The
solver computes the first `count` zeros of P_n on brackets of the pivot-form
Sturm count, which is monotone in x in floating point (each zero is
individually bracketed, so no zero can be skipped silently), and drives n
upward along a growth schedule.  Every cut-off is a step function N(x) of x
that never decreases (_Steps; a constant degree has no ends): the count at x
is that of P_{N(x)} (recurrence._pivot_sweep's per-point stops), and a level
is the point where it steps.  By default the first cut-off is the rows the
frozen count below first runs over at the top level, the first multiple of
16 at least 16 rows past the dominance index there, taken at most count //
64 times under the top level from 128 levels on, so that most requests
solve one cut-off and each point is counted at its own degree.  Where those
rows fall short each step grows by 1.5, up to one cap: the table length and
max(250000, levels).  No default degree depends on tol.  A flow stops at
the first degree where the Sturm count frozen at degree infinity
(recurrence._frozen_counts: exact at a table's length, or past a model's
dominance index) finds at most l - 1 spectral points below x_{n,l} - tol,
which proves xi_l in [x_{n,l} - tol, x_{n,l}].  That is the only stop rule,
so a model with neither a table length nor a dominance index is refused; a
default solve also ends, with those levels unconverged, once every open
flow sits on a step already at the cap, where growth cannot move it.
Every degree is solved cold, from the Gershgorin bracket, by one
multisection (_split) over a sorted list of counted points, each pass
spreading a batch of probes over the open cells between them in one batched
count (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8, 1987).  It first
spreads a wide batch below the Gershgorin end of the leading count + 1 rows
and then over the cells that still hold two or more zeros, until each zero
is alone in its cell; each zero then takes safeguarded Newton steps, with
the log-derivative from the same forward sweep as the count, and from the
second step on steps to the pole of a pole-plus-constant fit of the last
two.  The sweep runs each point over a window of rows from below its
turning point, so that log-derivative is that of the window's polynomial,
P_n / P_{k0-1} in effect, which has the zeros of P_n near the point
(recurrence._pivot_sweep).  Every polished zero is re-counted half a
tolerance on either side, where that side is not already proven by its
bracket's counts; one that fails counts a geometric ladder past that side in
one sweep.  The zeros left, never isolated, not settled by Newton or failing
the re-count, finish in one more multisection from the points counted for
them, until each is in a cell no wider than the bisection tolerance.
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
# Least probes per multisection pass over all open cells: the Sturm kernel's
# cost per step is nearly flat up to this batch, so few cells get many each.
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
    ends[-1]; a constant degree has no ends.  A solve at N counts the zeros
    of P_{N(x)} below each x."""

    ends: np.ndarray
    degrees: np.ndarray

    @property
    def top(self) -> int:
        return int(self.degrees[-1])

    def at(self, xs: np.ndarray) -> np.ndarray:
        return self.degrees[np.searchsorted(self.ends, xs, side="left")]


def _flat(n: int) -> _Steps:
    """The constant degree n."""
    return _Steps(ends=np.empty(0), degrees=np.array([n], dtype=np.int64))


def _cap(rec: MonicRecurrence, count: int) -> int:
    """The highest default degree: the table length, and max(_DEFAULT_N_MAX, count)."""
    return min(rec.n_cap or math.inf, max(_DEFAULT_N_MAX, count))


def _steps(rec: MonicRecurrence, count: int) -> _Steps:
    """The default first cut-off of a solve of `count` levels: one degree
    (no ends) under 2 * _STEP_LEVELS levels, else count // _STEP_LEVELS
    steps.  Step j ends at x_j, the upper Gershgorin end of the first k_j =
    _STEP_LEVELS * j rows, which bounds the levels 1 .. k_j (the top step at
    k = count).  Its degree is the rows the frozen count first runs over at
    x_j (recurrence._first_rows), at least k_j, raised to the step before's
    and capped by _cap.  C(x) = count of P_{N(x)} below x is monotone, as
    the count of one degree is: a longer sweep only adds pivots."""
    pieces = count // _STEP_LEVELS
    levels = np.append(_STEP_LEVELS * np.arange(1, pieces), count)
    c, lam = rec.coeff_arrays(count)
    # _zero_bounds(c[:k], lam[:k])[1] at each k of levels, bitwise, in one
    # pass: prefix extremes of c -/+ both neighbours' roots, then the last
    # row k - 1 with its lower neighbour's alone (row 0 has none)
    root = np.sqrt(lam)
    root[0] = 0.0
    radius = root[:-1] + root[1:]
    j = levels - 1
    hi = np.maximum(np.maximum.accumulate(np.append(-np.inf, c[:-1] + radius))[j], c[j] + root[j])
    lo = np.minimum(np.minimum.accumulate(np.append(np.inf, c[:-1] - radius))[j], c[j] - root[j])
    ends = np.maximum.accumulate(hi + 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi))))
    degrees = np.maximum.accumulate(np.maximum(levels, _first_rows(_dominance_rows(rec, ends))))
    return _Steps(ends=ends[:-1], degrees=np.minimum(degrees, _cap(rec, count)))


def _grown(first: _Steps, cap: int) -> Iterable[_Steps]:
    """The growth by the factor 1.5 from `first`, pointwise: each step as
    GrowthSchedule(its degree, cap), held at cap until every step is there."""
    runs = [list(GrowthSchedule(int(d), cap).degrees()) for d in first.degrees]
    for i in range(max(map(len, runs))):
        yield _Steps(first.ends, np.array([run[min(i, len(run) - 1)] for run in runs]))


def _degrees(
    rec: MonicRecurrence, count: int, schedule: Optional[ScheduleLike] = None
) -> Iterable[_Steps]:
    """The cut-offs at which `count` flows are followed, each a step
    function: by default, lazily, the growth schedule by the factor 1.5 from
    _steps up to _cap; else the constant degrees of an explicit increasing
    list or a growth schedule, validated before any is solved.  On a
    tabulated model the first explicit degree at or past the table length
    becomes the last one, at that length; later degrees are not read."""
    cap = rec.n_cap
    if cap is not None and cap < count:
        raise ValueError("tabulated model too short for the requested levels")
    if schedule is None:
        return _grown(_steps(rec, count), _cap(rec, count))
    if isinstance(schedule, GrowthSchedule):
        schedule = schedule.degrees()
    degrees: list[int] = []
    for n in schedule:
        n = int(n)
        if n < 1 or (degrees and n <= degrees[-1]):
            raise ValueError("schedule degrees must be positive and strictly increasing")
        degrees.append(n if cap is None or n < cap else cap)
        if degrees[-1] == cap:
            break
    if not degrees:
        raise ValueError("schedule must contain at least one degree")
    if degrees[0] < count:
        raise ValueError(f"schedule degree {degrees[0]} is below the flow count {count}")
    return map(_flat, degrees)


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


def zeros_of(rec: MonicRecurrence, n: Union[int, _Steps], count: int) -> ZeroTableau:
    """The `count` smallest zeros of P_n on Sturm-count brackets.  The
    shared bracket is multisected into cells only until each zero is alone
    in one, each isolated zero is then polished by safeguarded Newton
    steps, and multisection finishes the zeros the polish leaves (_split).

    Each zero x_{n,l} is the unique point where the zeros-below count steps
    from l-1 to l; every final bracket must have the counts l-1 and l at
    its ends (each bracket carries the counts taken where its ends were
    set), and [x - tol/2, x + tol/2] about a polished zero is re-counted
    at each end that lies inside its bracket, so an omission or a collision
    is detected rather than silently absorbed.  A zero that fails the
    re-count lies beyond x - tol/2 or x + tol/2; the ladder x -/+ (tol/2)
    16**j, j = 1, 2, ..., inside its bracket is counted in one sweep.  Every
    zero not yet done then multisects in one _split from the points counted
    for it, its bracket's ends, re-count points and rungs, so a zero that
    failed the re-count starts from a cell at most 16 times its distance
    from x.

    n is a degree, or a step function N(x) as every cut-off of run_flows
    is (_Steps): every count at x is that of P_{N(x)}, and zero l is the
    point where that count, still monotone in x, steps from l-1 to l.
    """
    steps = n if isinstance(n, _Steps) else _flat(n)
    top = steps.top
    if count < 1 or count > top:
        raise ValueError(f"count must be in [1, n]; got count={count}, n={top}")
    c, lam = rec.coeff_arrays(top)
    # all zeros of every degree up to top lie between the Gershgorin ends
    # of its rows, where the counts are 0 and top
    lo_glob, hi_glob = _zero_bounds(c, lam)
    pts, cts = np.array([lo_glob, hi_glob]), np.array([0, top])
    # zeros 1 .. count + 1 of every P_n lie below the Gershgorin end of
    # rows 0 .. count, by interlacing: the first pass spreads the batch
    # of _split over (lo_glob, below] and counts below with it
    below = _zero_bounds(c[: count + 1], lam[: count + 1])[1] if count < top else hi_glob
    if below < hi_glob:
        batch = max(_PROBE_BATCH, 2 * count)
        probes = lo_glob + (below - lo_glob) * (np.arange(1, batch + 1) / batch)
        probes[-1] = below
        probes = probes[probes > lo_glob]
        probes = probes[np.append(True, probes[1:] > probes[:-1])]
        pts = np.concatenate(([lo_glob], probes, [hi_glob]))
        cts = np.concatenate(([0], _sturm_counts(c, lam, probes, steps.at(probes)), [top]))
    pts, cts = _split(c, lam, pts, cts, count, steps)
    # the bracket of zero l: the last point with a count of at most l - 1
    # and the next one; l is isolated when their counts are l - 1 and l
    targets = np.arange(1, count + 1, dtype=np.int64)
    i = np.searchsorted(cts, targets - 1, side="right") - 1
    lo, hi, lo_ct, hi_ct = pts[i], pts[i + 1], cts[i], cts[i + 1]
    iso = np.flatnonzero((lo_ct == targets - 1) & (hi_ct == targets))

    zeros = np.full(count, np.nan)
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
    cts[todo] = _sturm_counts(c, lam, pts[todo], steps.at(pts)[todo])
    ok = (cts == expect).all(axis=0)
    zeros[iso[ok]] = x[ok]
    # every zero not yet done multisects from the points counted for it:
    # its bracket's ends and, where it failed the re-count, the counted
    # ends of [x - tol/2, x + tol/2] and its ladder
    rest = np.flatnonzero(np.isnan(zeros))
    todo &= ~ok
    seed_pts, seed_cts = [lo[rest], hi[rest], pts[todo]], [lo_ct[rest], hi_ct[rest], cts[todo]]
    # a zero that fails lies below x - tol/2 (count l there) or above
    # x + tol/2: count the ladder x -/+ (tol/2) 16**j, j >= 1, inside its
    # bracket in one sweep
    fail, x, half = iso[~ok], x[~ok], half[~ok]
    if fail.size:
        side = np.where(cts[0, ~ok] == targets[fail], -half, half)
        rungs = math.ceil(math.log(float(np.max((hi[fail] - lo[fail]) / half)), 16))
        pts = x + side * 16.0 ** np.arange(1, max(rungs, 1) + 1)[:, None]
        pts = pts[(pts > lo[fail]) & (pts < hi[fail])]
        seed_pts.append(pts)
        seed_cts.append(_sturm_counts(c, lam, pts, steps.at(pts)))
    if rest.size:
        pts, first = np.unique(np.concatenate(seed_pts), return_index=True)
        cts = np.concatenate(seed_cts)[first]
        pts, cts = _split(c, lam, pts, cts, count, steps, finish=targets[rest])
        i = np.searchsorted(cts, targets[rest] - 1, side="right") - 1
        zeros[rest] = 0.5 * (pts[i] + pts[i + 1])
        # no-skip verification: each final bracket must hold exactly one
        # zero; every end was counted where it was set, or is a Gershgorin end
        if not (
            np.array_equal(cts[i], targets[rest] - 1)
            and np.array_equal(cts[i + 1], targets[rest])
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


def _split(c, lam, pts, cts, count, steps, finish=None) -> tuple[np.ndarray, np.ndarray]:
    """Multisect the cells between the sorted points pts, with the counts
    cts of P_{N(x)} (N = steps) there, and return the grown sorted lists.
    Cell [pts[i], pts[i + 1]] holds the zeros cts[i] + 1 .. cts[i + 1].

    Without `finish` a cell is open while it holds two or more of the zeros
    1..count + 1 (zero count must be split from the next one), so that each
    zero ends alone in its cell; with `finish`, sorted zero numbers l, a
    cell is open while it holds one of those, so that each ends in a cell no
    wider than the bisection tolerance.  Each pass spreads max(_PROBE_BATCH,
    2 * count) distinct probes (2 * len(finish) when finishing) evenly over
    the open cells, in proportion to how many of those zeros each holds, at
    least 2 per cell (Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 8,
    1987).  A cell no wider than the bisection tolerance, or whose probes all
    round onto its ends, cannot split and is closed.  Every pass adds a point
    inside each open cell or closes it, so the loop ends."""
    if finish is None:
        least, batch = 2, max(_PROBE_BATCH, 2 * count)
    else:
        least, batch = 1, max(_PROBE_BATCH, 2 * finish.size)
    closed = np.zeros(pts.size - 1, dtype=bool)  # per cell [pts[i], pts[i + 1]]
    while True:
        # how many of the wanted zeros, 1..count + 1 or finish, each cell holds
        if finish is None:
            weight = np.diff(np.minimum(cts, count + 1))
        else:
            weight = np.diff(np.searchsorted(finish, cts, side="right"))
        cells = np.flatnonzero((weight >= least) & ~closed)
        if not cells.size:
            return pts, cts
        a, b, w = pts[cells], pts[cells + 1], weight[cells]
        p = batch * w // w.sum()  # at least 2: w >= least, w.sum() <= batch * least / 2
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
        cts = np.insert(cts, at, _sturm_counts(c, lam, probes, steps.at(probes)))
        closed = np.insert(closed, at, False)


def _pole_fit(x0, s0, x1, s1):
    """The two poles z of the fits s = 1 / (x - z) + g through (x0, s0) and
    (x1, s1), NaN where there is none.  With d = x0 - x1 and t = (s1 - s0) d,
    u = x1 - z solves u (u + d) = d^2 / t: u = 2 d / (t (1 + w)) or
    -d (1 + w) / 2, w = sqrt(1 + 4 / t), each form free of cancellation."""
    d = x0 - x1
    t = (s1 - s0) * d
    w = np.sqrt(1.0 + 4.0 / t)
    return x1 - 2.0 * d / (t * (1.0 + w)), x1 + 0.5 * d * (1.0 + w)


def _polish(c, lam, lo, hi, lo_ct, hi_ct, targets, idx, steps) -> np.ndarray:
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
        cts, s = _sturm_newton(c, lam, x, steps.at(x))
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
    visited (one row per cut-off: its step function at the zero), the
    tableaux of those flows (one row per cut-off), and the degree
    at which each flow converged (0 if it did not), as run_flows defines
    them.  Stops once every flow from index `watch` on has converged or,
    on the default schedule, sits on a step already at its cap.
    Before any zero is computed, tol must be finite and > 0 and the model's
    count must freeze (a table length or a dominance index), else
    ValueError."""
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0; got {tol!r}")
    _require_frozen_count(rec)
    rows: list[np.ndarray] = []
    own: list[np.ndarray] = []
    n_conv = np.zeros(count, dtype=np.int64)
    # growth cannot move a flow whose step is at the default schedule's cap
    ceiling = _cap(rec, count) if schedule is None else math.inf
    flat = False
    for n in _degrees(rec, count, schedule):
        n = _flat(n.top) if flat else n
        try:
            x = zeros_of(rec, n, count).zeros
        except ZeroCoagulation:
            # a step of N short at its end makes the count jump there by more
            # than one level, a collision of the step function's own making:
            # from here on each cut-off is its step function's top degree
            if not n.ends.size:
                raise
            n, flat = _flat(n.top), True
            x = zeros_of(rec, n, count).zeros
        deg = n.at(x)
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
        if np.all(deg[watch:][n_conv[watch:] == 0] >= ceiling):
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
    so that one solve usually suffices, up to the table length and
    max(250000, n_levels) for any n_levels.
    Each level's n_converged is its own degree.  tol, finite and > 0, is
    the width of the enclosure, up to the bisection resolution of xi: a
    flow converges at the first degree n where the frozen Sturm count proves
    xi_l >= x_{n,l} - tol, which with xi_l <= x_{n,l} encloses the level; a
    model without that count (no table length, no dominance index) is
    refused with ValueError; its class verdict (classify) is not consulted.
    If the schedule is exhausted first, or the default schedule can no
    longer grow any open level's degree (each at the cap), the partial
    result is returned with the affected levels flagged converged=False.
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
