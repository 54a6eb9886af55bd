"""Spectrum as fixed points of monotone flows of polynomial zeros.

For a monic OPS the zeros interlace across degree,

    x_{n+1,l} < x_{n,l} < x_{n+1,l+1},

so for fixed l the sequence x_{n,l} decreases strictly in n and converges to
a limit xi_l; the set of limits is the point spectrum.  The solver computes
the first `count` zeros of P_n by bisection on the pivot-form Sturm count,
which is monotone in x in floating point (each zero is individually
bracketed, so no zero can be skipped silently), drives n upward along a
growth schedule, and declares a flow converged when two successive
decrements fall below the requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import NonMonotoneFlow, ZeroCoagulation
from .recurrence import MonicRecurrence, _sturm_counts, _zero_bounds

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

# Bisection halts when the bracket is narrower than 2**-50 absolutely, or
# relatively for |x| > 1.
_BISECT_TOL = 2.0**-50
# How many bisection tolerances two zeros must be apart to count as simple.
_SIMPLE_FACTOR = 4.0
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
        while n <= self.n_max:
            yield n
            nxt = int(math.ceil(self.growth * n))
            if nxt <= n:
                nxt = n + 1
            if nxt > self.n_max and n < self.n_max:
                nxt = self.n_max  # spend the remaining budget on one last step
            n = nxt


ScheduleLike = Union[GrowthSchedule, Sequence[int]]


def _cap_schedule(schedule: ScheduleLike, n_cap: Optional[int]) -> ScheduleLike:
    """Clamp a growth schedule's budget to a tabulated model's length."""
    if (
        n_cap is not None
        and isinstance(schedule, GrowthSchedule)
        and schedule.n_max > n_cap
    ):
        if schedule.n_start > n_cap:
            raise ValueError(
                f"n_start={schedule.n_start} exceeds the tabulated length {n_cap}"
            )
        return GrowthSchedule(schedule.n_start, schedule.growth, n_cap)
    return schedule


def _schedule_degrees(schedule: ScheduleLike) -> Iterable[int]:
    if isinstance(schedule, GrowthSchedule):
        return schedule.degrees()
    degrees = [int(n) for n in schedule]
    if not degrees:
        raise ValueError("schedule must contain at least one degree")
    if any(n < 1 for n in degrees) or any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("schedule degrees must be positive and strictly increasing")
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
    """The `count` smallest zeros of P_n by Sturm bisection.

    Each zero x_{n,l} is the unique point where the zeros-below count steps
    from l-1 to l; the final brackets are re-counted, so an omission or a
    collision is detected rather than silently absorbed.
    """
    return _zeros_with_warm(rec, n, count, warm=None)


def _zeros_with_warm(
    rec: MonicRecurrence,
    n: int,
    count: int,
    warm: Optional[np.ndarray],
) -> ZeroTableau:
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, n]; got count={count}, n={n}")
    c, lam = rec.coeff_arrays(n)
    lo_glob, hi_glob = _zero_bounds(c, lam)
    lo = np.full(count, lo_glob)
    hi = np.full(count, hi_glob)
    targets = np.arange(1, count + 1, dtype=np.int64)

    if warm is not None and warm.size >= count:
        # interlacing: zeros only drift down as n grows, so the previous
        # tableau gives upper brackets; previous lower neighbours are tried
        # as lower brackets and verified by an explicit count.
        slack = 2.0 * _bisect_tol(warm[:count])
        hi_try = warm[:count] + slack
        lo_try = np.concatenate(([lo_glob], warm[: count - 1] - slack[: count - 1]))
        cts = _sturm_counts(c, lam, np.concatenate((lo_try, hi_try)))
        ok_lo = cts[:count] <= targets - 1
        ok_hi = cts[count:] >= targets
        lo = np.where(ok_lo, lo_try, lo_glob)
        hi = np.where(ok_hi, hi_try, hi_glob)

    active = np.arange(count)
    while active.size:
        lo_a = lo[active]
        hi_a = hi[active]
        mid = 0.5 * (lo_a + hi_a)
        stuck = (mid <= lo_a) | (mid >= hi_a)  # float resolution reached
        cts = _sturm_counts(c, lam, mid)
        go_down = cts >= targets[active]
        new_hi = np.where(go_down, mid, hi_a)
        new_lo = np.where(go_down, lo_a, mid)
        hi[active] = new_hi
        lo[active] = new_lo
        keep = (new_hi - new_lo > _bisect_tol(mid)) & ~stuck
        active = active[keep]

    zeros = 0.5 * (lo + hi)

    # no-skip verification: each final bracket must hold exactly one zero
    cts = _sturm_counts(c, lam, np.concatenate((lo, hi)))
    if not (np.array_equal(cts[:count], targets - 1) and np.array_equal(cts[count:], targets)):
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


def _check_monotone(l: int, n_prev: int, x_prev: float, n_new: int, x_new: float) -> None:
    slack = float(_bisect_tol(np.array([max(abs(x_prev), abs(x_new))]))[0])
    if x_new > x_prev + slack:
        raise NonMonotoneFlow(
            f"flow l={l} increased from x_{{{n_prev}}}={x_prev!r} to x_{{{n_new}}}={x_new!r}"
        )


def _refuse_if_outside_class(rec: MonicRecurrence, override: bool) -> None:
    """The membership conditions are sufficient, not necessary, so the
    verdict is advisory: refuse only an explicit negative one, and let
    override=True run anyway."""
    if override or rec.asymptotics is None:
        return
    from .classifier import classify

    report = classify(rec.asymptotics)
    if not report.in_class:
        raise ValueError(
            f"{rec.description or 'model'} is outside the supported recurrence class "
            f"({report.detail}); pass override=True to run anyway"
        )


def run_flows(
    rec: MonicRecurrence,
    n_levels: int,
    tol: float = 1e-8,
    n_start: Optional[int] = None,
    schedule: Optional[ScheduleLike] = None,
    override: bool = False,
) -> SpectrumResult:
    """Track the first n_levels zero flows until each has converged.

    A flow converges once two successive schedule decrements are both below
    tol (one small decrement can be a slow flow, not a converged one).  If
    the schedule is exhausted first, the partial result is returned with the
    affected levels flagged converged=False.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if not (tol > 0.0):
        raise ValueError("tol must be > 0")
    _refuse_if_outside_class(rec, override)
    if schedule is None:
        start = n_levels + 20 if n_start is None else int(n_start)
        if start < n_levels:
            raise ValueError(f"n_start must be >= n_levels ({n_levels}), got {start}")
        n_max = _DEFAULT_N_MAX
        if rec.n_cap is not None:
            n_max = min(n_max, rec.n_cap)
            start = min(start, n_max)
        if start < n_levels:
            raise ValueError("tabulated model too short for the requested levels")
        schedule = GrowthSchedule(n_start=start, n_max=n_max)
    elif n_start is not None:
        raise ValueError("pass either n_start or an explicit schedule, not both")
    schedule = _cap_schedule(schedule, rec.n_cap)

    histories: list[list[tuple[int, float]]] = [[] for _ in range(n_levels)]
    converged = np.zeros(n_levels, dtype=bool)
    n_conv = np.zeros(n_levels, dtype=np.int64)
    warm = None
    last_n = None

    for n in _schedule_degrees(schedule):
        if rec.n_cap is not None and n > rec.n_cap:
            break
        if n < n_levels:
            raise ValueError(f"schedule degree {n} is below n_levels={n_levels}")
        tab = _zeros_with_warm(rec, n, n_levels, warm)
        for i in range(n_levels):
            x = float(tab.zeros[i])
            hist = histories[i]
            if hist:
                _check_monotone(i + 1, hist[-1][0], hist[-1][1], n, x)
            hist.append((n, x))
            if not converged[i] and len(hist) >= 3:
                d1 = hist[-3][1] - hist[-2][1]
                d2 = hist[-2][1] - hist[-1][1]
                if d1 < tol and d2 < tol:
                    converged[i] = True
                    n_conv[i] = n
        warm = tab.zeros
        last_n = n
        if converged.all():
            break

    levels = []
    for i, hist in enumerate(histories):
        if not hist:
            raise ValueError("schedule produced no degrees")
        xi = hist[-1][1]
        dec = hist[-2][1] - hist[-1][1] if len(hist) >= 2 else math.nan
        levels.append(
            LevelResult(
                l=i + 1,
                xi=xi,
                n_converged=int(n_conv[i]) if converged[i] else int(last_n),
                last_decrement=dec,
                converged=bool(converged[i]),
            )
        )
    return SpectrumResult(
        levels=tuple(levels),
        model_descriptor=rec.description,
        tolerance=float(tol),
    )


def flow_trace(
    rec: MonicRecurrence,
    l: int,
    schedule: ScheduleLike,
    tol: float = 1e-8,
    override: bool = False,
) -> ZeroFlow:
    """Full history of the single flow x_{n,l} over the schedule."""
    if l < 1:
        raise ValueError("l must be >= 1")
    _refuse_if_outside_class(rec, override)
    schedule = _cap_schedule(schedule, rec.n_cap)
    history: list[tuple[int, float]] = []
    warm = None
    converged = False
    for n in _schedule_degrees(schedule):
        if rec.n_cap is not None and n > rec.n_cap:
            break
        if n < l:
            raise ValueError(f"schedule degree {n} is below l={l}")
        tab = _zeros_with_warm(rec, n, l, warm)
        x = float(tab.zeros[l - 1])
        if history:
            _check_monotone(l, history[-1][0], history[-1][1], n, x)
        history.append((n, x))
        if not converged and len(history) >= 3:
            d1 = history[-3][1] - history[-2][1]
            d2 = history[-2][1] - history[-1][1]
            converged = d1 < tol and d2 < tol
        warm = tab.zeros
        if converged:
            break
    if not history:
        raise ValueError("schedule produced no degrees")
    return ZeroFlow(
        l=l,
        history=tuple(history),
        converged=converged,
        xi=history[-1][1] if converged else None,
    )
