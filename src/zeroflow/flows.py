"""Spectrum as fixed points of monotone flows of polynomial zeros.

For a monic OPS the zeros interlace across degree,

    x_{n+1,l} < x_{n,l} < x_{n+1,l+1},

so for fixed l the sequence x_{n,l} decreases strictly in n and converges to
a limit xi_l <= x_{n,l}; the set of limits is the point spectrum.  The
solver computes the first `count` zeros of P_n on brackets of the pivot-form
Sturm count, which is monotone in x in floating point (each zero is
individually bracketed, so no zero can be skipped silently), and drives n
upward along a growth schedule.  By default the schedule starts at the
degree where the tail bound of the minimal solution (Olver, J. Res. NBS
71B, 1967), read off the coefficients, predicts that every flow certifies,
so most requests solve one degree; it grows by 1.5 from there where the
prediction falls short.  A flow stops at the first degree where the
Sturm count frozen at degree infinity (recurrence._frozen_counts: exact at a
table's length, or past a model's dominance index) finds at most l - 1
spectral points below x_{n,l} - tol, which proves xi_l in
[x_{n,l} - tol, x_{n,l}].  That is the only stop rule, so a model with
neither a table length nor a dominance index is refused.  Every degree is
solved cold, from the Gershgorin bracket.  Brackets shrink by multisection,
few brackets taking many probes per batched count (Lo, Philippe & Sameh,
SIAM J. Sci. Stat. Comput. 8, 1987).  A solve of more than _PROBE_BATCH // 16
zeros multisects the one bracket all of them share, spreading a wide batch of
probes over the cells between probed points that still hold two or more
zeros, until each zero is alone in its cell; it then takes safeguarded
Newton steps on P_n, with P_n'/P_n from the same forward sweep as the
count.  Every polished zero is re-counted half a tolerance on either side,
where that side is not already proven by its bracket's counts, and one that
fails goes back to multisection from the bracket those counts narrow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import NonMonotoneFlow, ZeroCoagulation
from .recurrence import (
    MonicRecurrence,
    _frozen_counts,
    _require_frozen_count,
    _sturm_counts,
    _sturm_newton,
    _tail_cut,
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


def _bisect_tol(x: np.ndarray) -> np.ndarray:
    return _BISECT_TOL * np.maximum(1.0, np.abs(x))


@dataclass(frozen=True)
class GrowthSchedule:
    """Geometric cut-off schedule n_0, ceil(growth*n_0), ... capped at n_max."""

    n_start: int
    growth: float = 1.5
    n_max: int = _DEFAULT_N_MAX

    def __post_init__(self):
        if self.n_start < 1:
            raise ValueError("n_start must be >= 1")
        if not (self.growth > 1.0):
            raise ValueError("growth must be > 1")
        if self.n_max < self.n_start:
            raise ValueError("n_max must be >= n_start")

    def degrees(self) -> Iterable[int]:
        n = self.n_start
        yield n
        while n < self.n_max:
            # a step that would reach n_max spends the remaining budget at once
            grown = self.growth * n
            n = self.n_max if grown >= self.n_max else max(math.ceil(grown), n + 1)
            yield n


ScheduleLike = Union[GrowthSchedule, Sequence[int]]


def _first_degree(rec: MonicRecurrence, count: int, tol: float) -> int:
    """The degree at which the first `count` flows are expected to certify
    to within tol, read off the coefficients.

    x_bar, the upper Gershgorin end of rows 0 .. count - 1, bounds the
    levels xi_1 .. xi_count by interlacing.  m is one past the last row k
    with c_k - x_bar < sqrt(lambda_k) + sqrt(lambda_{k+1}), so a deep site
    holds m past itself however far up it lies.  Past m the minimal solution
    p at each of those levels shrinks by at least the ratio bounds
    r_k = sqrt(lambda_k) / (c_k - x_bar - sqrt(lambda_{k+1})) per row, and
    the zeros of P_K lie above the levels by about the square of p_K.  The
    degree is the first row K past m where the product of the r_k, squared,
    is below tol / max(1, |x_bar|) (recurrence._tail_cut).  Rows are judged
    up to a table's length, or up to twice the dominance index at x_bar,
    and at most _DEFAULT_N_MAX; where none passes, the last of them is the
    degree.  The result is at least count, and at most min(n_cap,
    _DEFAULT_N_MAX) unless count is larger.  It predicts, it does not
    prove: the frozen count still certifies each level, and the growth
    schedule from this degree goes on where it does not."""
    x_bar = _zero_bounds(*rec.coeff_arrays(count))[1]
    if rec.n_cap is not None:
        rows = rec.n_cap
    else:
        rows = 2 * int(rec.dominance_index(np.array([x_bar]))[0]) + 2
    rows = min(rows, _DEFAULT_N_MAX)
    c, lam = rec.coeff_arrays(rows)
    bound = 0.5 * math.log2(tol / max(1.0, abs(x_bar)))
    top = _tail_cut(c - x_bar, np.sqrt(lam), bound)[1]
    return max(count, rows if top is None else top)


def _degrees(
    rec: MonicRecurrence, count: int, tol: float, schedule: Optional[ScheduleLike] = None
) -> list[int]:
    """The cut-offs at which `count` flows are followed: a growth schedule
    (by default one by the factor 1.5 from _first_degree, the degree the
    coefficients predict will certify to within tol) or an explicit
    increasing list.  On a tabulated model the first degree at or past the
    table length becomes the last one, at that length; later degrees are
    not read."""
    cap = rec.n_cap
    if cap is not None and cap < count:
        raise ValueError("tabulated model too short for the requested levels")
    if schedule is None:
        schedule = GrowthSchedule(_first_degree(rec, count, tol))
    if isinstance(schedule, GrowthSchedule):
        schedule = schedule.degrees()
    degrees: list[int] = []
    for n in map(int, schedule):
        if n < 1 or (degrees and n <= degrees[-1]):
            raise ValueError("schedule degrees must be positive and strictly increasing")
        degrees.append(n if cap is None or n < cap else cap)
        if degrees[-1] == cap:
            break
    if not degrees:
        raise ValueError("schedule must contain at least one degree")
    if degrees[0] < count:
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
    """Level l: xi = x_{n,l} at the last degree n visited.  A converged
    level is certified: the true level lies in [xi - tol, xi], up to the
    bisection resolution of xi."""

    l: int
    xi: float
    n_converged: int
    last_decrement: float
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
    """The `count` smallest zeros of P_n by multisection on Sturm-count
    brackets.  Above _PROBE_BATCH // 16 zeros the shared bracket is
    multisected into cells only until each zero is alone in one, and each
    isolated zero is then polished by safeguarded Newton steps.

    Each zero x_{n,l} is the unique point where the zeros-below count steps
    from l-1 to l; every final bracket must have the counts l-1 and l at
    its ends (each bracket carries the counts taken where its ends were
    set), and [x - tol/2, x + tol/2] about a polished zero is re-counted
    at each end that lies inside its bracket, so an omission or a collision
    is detected rather than silently absorbed.
    """
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, n]; got count={count}, n={n}")
    c, lam = rec.coeff_arrays(n)
    lo_glob, hi_glob = _zero_bounds(c, lam)
    lo = np.full(count, lo_glob)
    hi = np.full(count, hi_glob)
    # the counts at lo and hi; all n zeros lie between the Gershgorin ends
    lo_ct = np.zeros(count, dtype=np.int64)
    hi_ct = np.full(count, n, dtype=np.int64)
    targets = np.arange(1, count + 1, dtype=np.int64)

    zeros = np.full(count, np.nan)
    if count > _PROBE_BATCH // 16:
        # a few probes per bracket and pass would multisect for many passes:
        # isolate the zeros in one wide multisection, then polish by Newton
        iso = _isolate(c, lam, lo, hi, lo_ct, hi_ct, targets)
        x = _polish(c, lam, lo, hi, lo_ct, hi_ct, targets, iso)
        settled = np.isfinite(x)  # the others multisect below
        iso, x = iso[settled], x[settled]
        # a polished zero l must pass the re-count of [x - tol/2, x + tol/2]:
        # count l - 1 below it and l at its top.  Its bracket's ends already
        # have those counts, so an end of the interval at or beyond its
        # bracket needs no count.  A zero that fails multisects below from
        # its bracket, narrowed by the counts of the re-count.
        half = 0.5 * _bisect_tol(x)
        pts = np.stack((x - half, x + half))
        expect = np.stack((targets[iso] - 1, targets[iso]))
        cts = expect.copy()
        todo = np.stack((pts[0] > lo[iso], pts[1] < hi[iso]))
        cts[todo] = _sturm_counts(c, lam, pts[todo])
        # a counted point lies inside the bracket: the highest one below
        # zero l becomes lo, the lowest one at or above it hi
        for k in (0, 1):
            up = todo[k] & (cts[k] < expect[1])
            lo[iso[up]], lo_ct[iso[up]] = pts[k, up], cts[k, up]
        for k in (1, 0):
            down = todo[k] & (cts[k] >= expect[1])
            hi[iso[down]], hi_ct[iso[down]] = pts[k, down], cts[k, down]
        ok = (cts == expect).all(axis=0)
        zeros[iso[ok]] = x[ok]
    rest = np.flatnonzero(np.isnan(zeros))
    _multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, rest)
    zeros[rest] = 0.5 * (lo[rest] + hi[rest])

    # no-skip verification: each final bracket must hold exactly one zero;
    # every end was counted where it was set, or is a Gershgorin end
    if not (
        np.array_equal(lo_ct[rest], targets[rest] - 1)
        and np.array_equal(hi_ct[rest], targets[rest])
    ):
        raise ZeroCoagulation(
            f"bracket counts inconsistent at n={n}: zeros closer than bisection resolution"
        )
    # simplicity: zeros are provably simple, so near-coincidence means the
    # working precision is exhausted at this degree
    if count > 1:
        gap_tol = _SIMPLE_FACTOR * _bisect_tol(zeros[1:])
        if np.any(np.diff(zeros) <= gap_tol):
            raise ZeroCoagulation(f"adjacent zeros at n={n} closer than {_SIMPLE_FACTOR}x tolerance")
    return ZeroTableau(n=n, zeros=zeros)


def _multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, active) -> None:
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
        cts = _sturm_counts(c, lam, probes.ravel()).reshape(probes.shape)
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


def _isolate(c, lam, lo, hi, lo_ct, hi_ct, targets) -> np.ndarray:
    """Multisect the shared bracket [lo, hi] until each zero is alone
    in a cell between two probed points, set every bracket and the counts
    lo_ct, hi_ct at its ends, in place, to its zero's cell, and return the
    indices of the isolated zeros.

    The probed points are kept sorted with their counts; the bracket of zero
    l is [last point with count <= l - 1, first point with count >= l], and l
    is isolated when those counts are l - 1 and l.  A cell splits while it
    holds two or more of the zeros 1..count + 1 (zero count must be split from
    the next one): each pass spreads max(_PROBE_BATCH, 2 * count) distinct
    probes evenly over those cells, in proportion to how many each holds,
    and pass 1 covers the whole bracket.  A cell no wider than the bisection
    tolerance, or whose probes all round onto its ends, cannot split and is
    closed; its zeros are left to multisection.  Every pass adds a point
    inside each open cell or closes it, so the loop ends.
    """
    count = targets.size
    batch = max(_PROBE_BATCH, 2 * count)
    pts = np.array([lo[0], hi[0]])
    cts = np.array([lo_ct[0], hi_ct[0]])
    closed = np.zeros(1, dtype=bool)  # per cell [pts[i], pts[i + 1]]
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
        cts = np.insert(cts, at, _sturm_counts(c, lam, probes))
        closed = np.insert(closed, at, False)
    i = np.searchsorted(cts, targets - 1, side="right") - 1
    lo[:], hi[:] = pts[i], pts[i + 1]
    lo_ct[:], hi_ct[:] = cts[i], cts[i + 1]
    return np.flatnonzero((lo_ct == targets - 1) & (hi_ct == targets))


def _polish(c, lam, lo, hi, lo_ct, hi_ct, targets, idx) -> np.ndarray:
    """Safeguarded Newton iteration on P_n for the isolated zeros with
    indices idx; returns their polished points, NaN where a zero did not
    settle within _NEWTON_SWEEPS.  Each step takes the count and
    s = P_n'/P_n from one _sturm_newton sweep; the count shrinks the bracket
    [lo, hi], with the counts lo_ct and hi_ct at its ends, in place, and a
    Newton point that is not finite or leaves the
    bracket is replaced by the bracket's midpoint.  A zero stops at a Newton
    step no longer than the bisection tolerance, or when its bracket is
    that narrow."""
    out = np.full(idx.size, np.nan)
    pos = np.arange(idx.size)
    x = 0.5 * (lo[idx] + hi[idx])
    for _ in range(_NEWTON_SWEEPS):
        if not pos.size:
            break
        active = idx[pos]
        cts, s = _sturm_newton(c, lam, x)
        below = cts < targets[active]
        lo_a = lo[active] = np.where(below, x, lo[active])
        hi_a = hi[active] = np.where(below, hi[active], x)
        lo_ct[active] = np.where(below, cts, lo_ct[active])
        hi_ct[active] = np.where(below, hi_ct[active], cts)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            newton = x - 1.0 / s
        step = np.abs(newton - x)
        # s = inf is an exact zero at x, an end of the bracket; NaN is never ok
        ok = ((newton > lo_a) & (newton < hi_a)) | (step == 0.0)
        x = np.where(ok, newton, 0.5 * (lo_a + hi_a))
        tol = _bisect_tol(x)
        done = (ok & (step <= tol)) | (hi_a - lo_a <= tol)
        out[pos[done]] = x[done]
        pos, x = pos[~done], x[~done]
    return out


def _check_request(rec: MonicRecurrence, tol: float, override: bool) -> None:
    """Entry gate of run_flows and flow_trace, before any zero is computed:
    a finite tol > 0 and, even with override, a model whose count freezes.
    The class verdict is advisory (its conditions are sufficient, not
    necessary): only an explicit negative one is refused, unless override."""
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0; got {tol!r}")
    _require_frozen_count(rec)
    if override or rec.asymptotics is None:
        return
    from .classifier import classify

    report = classify(rec.asymptotics)
    if not report.in_class:
        raise ValueError(
            f"{rec.description or 'model'} is outside the supported recurrence class "
            f"({report.detail}); pass override=True to run anyway"
        )


def _track_flows(
    rec: MonicRecurrence,
    count: int,
    tol: float,
    schedule: Optional[ScheduleLike],
    watch: int,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The degrees visited, the tableaux of the first `count` zero flows at
    those degrees (one row per degree), and the degree at which each flow
    converged (0 if it did not), as run_flows defines them.  Stops once
    every flow from index `watch` on has converged."""
    degrees = _degrees(rec, count, tol, schedule)
    rows: list[np.ndarray] = []
    n_conv = np.zeros(count, dtype=np.int64)
    for n in degrees:
        x = zeros_of(rec, n, count).zeros
        if rows:
            prev = rows[-1]
            up = np.flatnonzero(x > prev + _bisect_tol(np.maximum(np.abs(prev), np.abs(x))))
            if up.size:
                i = int(up[0])
                raise NonMonotoneFlow(
                    f"flow l={i + 1} increased from x_{{{degrees[len(rows) - 1]}}}="
                    f"{float(prev[i])!r} to x_{{{n}}}={float(x[i])!r}"
                )
        rows.append(x)
        # open flows l (index l - 1) whose points x_{n,l} - tol have at most
        # l - 1 spectral points below them: xi_l lies in [x - tol, x]
        open_ = np.flatnonzero(n_conv == 0)
        below = _frozen_counts(rec, x[open_] - tol)
        n_conv[open_[below <= open_]] = n
        if n_conv[watch:].all():
            break
    return degrees[: len(rows)], np.array(rows), n_conv


def run_flows(
    rec: MonicRecurrence,
    n_levels: int,
    tol: float = 1e-8,
    schedule: Optional[ScheduleLike] = None,
    override: bool = False,
) -> SpectrumResult:
    """Track the first n_levels zero flows until each has converged.

    The cut-offs follow `schedule`, by default a growth schedule by the
    factor 1.5 from the degree the coefficients predict will certify every
    level to within tol (_first_degree), so that one degree usually
    suffices.  tol, finite and > 0, is the width of the enclosure: a
    flow converges at the first degree n where the frozen Sturm count proves
    xi_l >= x_{n,l} - tol, which with xi_l <= x_{n,l} encloses the level; a
    model without that count (no table length, no dominance index) is
    refused with ValueError.  If the schedule is exhausted first, the partial
    result is returned with the affected levels flagged converged=False.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    _check_request(rec, tol, override)
    degrees, tableaux, n_conv = _track_flows(rec, n_levels, tol, schedule, watch=0)
    xi = tableaux[-1].tolist()
    dec = (tableaux[-2] - tableaux[-1]).tolist() if len(degrees) >= 2 else [math.nan] * n_levels
    return SpectrumResult(
        levels=tuple(
            LevelResult(
                l=i + 1,
                xi=xi[i],
                n_converged=int(n_conv[i]) or degrees[-1],
                last_decrement=dec[i],
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
    override: bool = False,
) -> ZeroFlow:
    """Full history of the single flow x_{n,l} over the schedule (by default
    run_flows's for l levels, whose first degree usually certifies, so the
    history then has one row; an explicit schedule gives a flow across
    several degrees), up to the degree at which it converged by run_flows's
    rule; tol and the model are checked as in run_flows."""
    if l < 1:
        raise ValueError("l must be >= 1")
    _check_request(rec, tol, override)
    degrees, tableaux, n_conv = _track_flows(rec, l, tol, schedule, watch=l - 1)
    history = tuple(zip(degrees, tableaux[:, l - 1].tolist()))
    converged = bool(n_conv[l - 1])
    return ZeroFlow(
        l=l, history=history, converged=converged, xi=history[-1][1] if converged else None
    )
