"""Three-term recurrences, monic normalization, and overflow-proof evaluation.

The raw eigenvalue problem arrives as

    phi_{n+1} + a_n(x) phi_n + b_n phi_{n-1} = 0        (n >= 1)

with a_n affine in the energy variable x.  A diagonal rescaling
phi_n = s_n P_n turns it into the recurrence of a monic orthogonal
polynomial sequence

    P_n(x) = (x - c_{n-1}) P_{n-1}(x) - lambda_{n-1} P_{n-2}(x),
    P_{-1} = 0,  P_0 = 1,  lambda_0 = 1,

which is the universal internal representation here.  Everything downstream
(zero flows, continued fractions, discrete measures) consumes MonicRecurrence.

No kernel forms P_n itself, which leaves the double range after a few
hundred steps.  Sturm counts and the continued fraction F run on ratios of
consecutive terms (pivots and backward fraction tails), and the sums of
squares in the measure module run on orthonormal values whose squares are
bounded by the sum they feed; all stay in range without any rescaling, at
any degree.

The two Sturm kernels, the count (_sturm_counts) and the count with a
log-derivative for Newton steps (_sturm_newton), run one pivot sweep
(_pivot_sweep): the same block loop and the same two ufuncs per pivot, so
their counts agree bitwise.  The derivative adds two ufuncs per row, a
linear recurrence whose coefficients come from the block's pivots and
ratios at once.  The sweep runs each point over its own window of rows:
far below the point's turning point every pivot counts, and the window
starts _HEAD_ROWS rows below the first row where that is not proven, from
an enclosure of the pivot whose two ends must coincide bitwise before the
window's count is taken as the count of a sweep from row 1.  The
log-derivative is then that of the window's polynomial, which has the
zeros of P_n near the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonlinearCoefficient, NonPositiveLambda, PrecisionExhausted

__all__ = [
    "RecurrenceAsymptotics",
    "RawRecurrence",
    "MonicRecurrence",
    "to_monic",
    "count_zeros_below",
]

_FractionLike = Union[Fraction, int, str, float]


def _as_fraction(v: _FractionLike) -> Fraction:
    # Fraction(float) is exact in binary, so 0.5 etc. stay exact.
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class RecurrenceAsymptotics:
    """Power-law growth a_n ~ a*n**alpha, b_n ~ b*n**beta of the raw
    coefficients, plus (when 2*alpha == beta) the roots t1, t2 of the
    characteristic quadratic t**2 + a*t + b = 0 ordered |t2| <= |t1|.

    Exponents are stored exactly as rationals so that the borderline
    comparisons (alpha == -1/2, beta == alpha - 1/2, ...) in the membership
    test are combinatorial, not tolerance-dependent.
    """

    alpha: Fraction
    beta: Fraction
    a: float
    b: float
    t1: Optional[float] = None
    t2: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if (self.t1 is None) != (self.t2 is None):
            raise ValueError("t1 and t2 must be supplied together")
        if self.t1 is not None:
            t1, t2 = float(self.t1), float(self.t2)
            if abs(t1) < abs(t2):
                t1, t2 = t2, t1
            object.__setattr__(self, "t1", t1)
            object.__setattr__(self, "t2", t2)


@dataclass(frozen=True, eq=False)
class RawRecurrence:
    """Raw tridiagonal recurrence with a_n(x) affine in x.

    a(n, x) and b(n) must accept integer numpy arrays for n and broadcast.
    b_n must be nonzero for n >= 1; b(0) is never evaluated (the n=0 relation
    is the two-term condition, which does not contain b_0).
    """

    a: Callable[[np.ndarray, float], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    asymptotics: Optional[RecurrenceAsymptotics] = None

    @classmethod
    def from_affine(
        cls,
        alpha: Callable[[np.ndarray], np.ndarray],
        c: Callable[[np.ndarray], np.ndarray],
        b: Callable[[np.ndarray], np.ndarray],
        asymptotics: Optional[RecurrenceAsymptotics] = None,
    ) -> "RawRecurrence":
        """Build from a_n(x) = -(alpha_n * x - c_n) given directly."""

        def a_fn(n, x):
            n = np.asarray(n)
            return -(np.asarray(alpha(n), dtype=float) * x - np.asarray(c(n), dtype=float))

        return cls(a=a_fn, b=b, asymptotics=asymptotics)


@dataclass(frozen=True, eq=False)
class MonicRecurrence:
    """Coefficients (c_n, lambda_n) of a monic positive-definite OPS.

    Coefficients come from callable generators so the degree is unbounded for
    closed-form models; tabulated models set n_cap to the table length.
    lambda_n > 0 is enforced on every materialization (and eagerly on a short
    prefix at construction): a nonpositive lambda means the functional is
    degenerate and the model is outside the supported class.

    asymptotics, when present, describe the growth of the *raw* parent
    coefficients (not of c, lambda) and are metadata only, for
    classifier.classify: the solver never reads them, since the frozen count
    certifies each level whatever the class verdict.

    dominance_index, when present, maps an array of points x to integer
    indices M such that every row k >= M is Gershgorin dominated at x,
    c_k - x >= sqrt(lambda_k) + sqrt(lambda_{k+1}).  It is metadata of the
    model, not a tuning option: it (or n_cap) lets the zeros-below count
    freeze at a finite degree (_frozen_counts), the flows' only stop rule.
    """

    c: Callable[[np.ndarray], np.ndarray]
    lam: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    n_cap: Optional[int] = None
    asymptotics: Optional[RecurrenceAsymptotics] = None
    dominance_index: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        probe = 64 if self.n_cap is None else min(64, self.n_cap)
        if probe > 0:
            self.coeff_arrays(probe)

    @classmethod
    def from_arrays(cls, c, lam, description: str = "") -> "MonicRecurrence":
        """Adapter for tabulated coefficients; lam[i] is lambda_{i+1}.

        P_n needs c_0..c_{n-1} and lambda_1..lambda_{n-1}, so the usable
        degree is min(len(c), len(lam) + 1).
        """
        c_arr = np.asarray(c, dtype=float)
        lam_arr = np.asarray(lam, dtype=float)
        if c_arr.ndim != 1 or lam_arr.ndim != 1:
            raise ValueError("c and lam must be one-dimensional")
        n_cap = min(c_arr.shape[0], lam_arr.shape[0] + 1)
        if n_cap < 1:
            raise ValueError("need at least c_0")
        # shift: lam_full[n] = lambda_n with the lambda_0 = 1 convention
        lam_full = np.concatenate(([1.0], lam_arr))

        def c_fn(n):
            return c_arr[np.asarray(n)]

        def lam_fn(n):
            return lam_full[np.asarray(n)]

        return cls(c=c_fn, lam=lam_fn, description=description, n_cap=n_cap)

    def coeff_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Materialize (c_0..c_{n-1}, lambda_0..lambda_{n-1}); lambda_0 = 1."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if self.n_cap is not None and n > self.n_cap:
            raise ValueError(
                f"degree {n} exceeds the tabulated length {self.n_cap} of {self.description or 'model'}"
            )
        idx = np.arange(n, dtype=np.int64)
        c = np.asarray(self.c(idx), dtype=float)
        lam = np.empty(n, dtype=float)
        if n > 0:
            lam[0] = 1.0
            if n > 1:
                lam[1:] = np.asarray(self.lam(idx[1:]), dtype=float)
        if c.shape != (n,) or not np.all(np.isfinite(c)):
            raise ValueError("c generator returned a bad array")
        if not np.all(np.isfinite(lam)):
            raise ValueError("lambda generator returned a bad array")
        bad = np.flatnonzero(lam[1:] <= 0.0)
        if bad.size:
            k = int(bad[0]) + 1
            raise NonPositiveLambda(k, float(lam[k]))
        return c, lam

    def associated(self, upsilon: int) -> "MonicRecurrence":
        """Index-shifted recurrence generating the associated OPS P^(upsilon):
        coefficients (c_{n+upsilon}, lambda_{n+upsilon})."""
        if upsilon < 0:
            raise ValueError("upsilon must be >= 0")
        if upsilon == 0:
            return self
        base_c, base_lam, base_m = self.c, self.lam, self.dominance_index
        cap = None if self.n_cap is None else max(self.n_cap - upsilon, 0)

        def c_fn(n):
            return base_c(np.asarray(n) + upsilon)

        def lam_fn(n):
            return base_lam(np.asarray(n) + upsilon)

        def m_fn(x):
            return np.maximum(np.asarray(base_m(x)) - upsilon, 0)

        desc = f"{self.description}^({upsilon})" if self.description else f"associated({upsilon})"
        return MonicRecurrence(
            c=c_fn,
            lam=lam_fn,
            description=desc,
            n_cap=cap,
            asymptotics=self.asymptotics,  # index shifts do not change growth
            dominance_index=None if base_m is None else m_fn,
        )


def to_monic(raw: RawRecurrence) -> MonicRecurrence:
    """Normalize a raw recurrence to monic OPS form.

    With a_n(x) = -(alpha_n x - ctilde_n) the rescaling phi_n = s_n P_n,
    s_{n+1} = alpha_n s_n, gives

        c_n = ctilde_n / alpha_n,
        lambda_n = b_n / (alpha_n alpha_{n-1})     (n >= 1),

    so the zeros of P_n are exactly the energies where the truncated raw
    system admits a nontrivial solution with phi_n = 0.

    Affinity of a_n in x is verified for n = 0..64 and on every materialized
    prefix; NonlinearCoefficient is raised on violation.  alpha_n must be nonzero for n >= 0 (n = 0 is
    needed to embed the two-term condition as P_1 = x - c_0).
    """
    _check_affine(raw, np.arange(65, dtype=np.int64))

    def alpha_of(idx):
        a0 = np.asarray(raw.a(idx, 0.0), dtype=float)
        a1 = np.asarray(raw.a(idx, 1.0), dtype=float)
        return a0 - a1, a0  # (alpha_n, ctilde_n)

    def c_fn(idx):
        idx = np.asarray(idx)
        _check_affine(raw, idx)
        alpha, ctilde = alpha_of(idx)
        if np.any(alpha == 0.0):
            k = int(np.asarray(idx).ravel()[np.flatnonzero(alpha == 0.0)[0]])
            raise NonlinearCoefficient(f"a_{k} does not depend on x (alpha_{k} = 0)")
        return ctilde / alpha

    def lam_fn(idx):
        idx = np.asarray(idx)
        alpha, _ = alpha_of(idx)
        alpha_prev, _ = alpha_of(idx - 1)
        b = np.asarray(raw.b(idx), dtype=float)
        if np.any(b == 0.0):
            k = int(idx.ravel()[np.flatnonzero(b == 0.0)[0]])
            raise NonPositiveLambda(k, 0.0)
        denom = alpha * alpha_prev
        if np.any(denom == 0.0):
            k = int(idx.ravel()[np.flatnonzero(denom == 0.0)[0]])
            raise NonlinearCoefficient(f"alpha vanishes near n = {k}")
        return b / denom

    return MonicRecurrence(
        c=c_fn, lam=lam_fn, description="monic(raw)", asymptotics=raw.asymptotics
    )


def _check_affine(raw: RawRecurrence, idx: np.ndarray) -> None:
    """a_n must satisfy a_n(x) = a_n(0) - (a_n(0) - a_n(1)) x exactly
    (up to rounding).  Probed at x = 2 and an incommensurate point."""
    a0 = np.asarray(raw.a(idx, 0.0), dtype=float)
    a1 = np.asarray(raw.a(idx, 1.0), dtype=float)
    alpha = a0 - a1
    for x in (2.0, 0.3127):
        ax = np.asarray(raw.a(idx, x), dtype=float)
        expect = a0 - alpha * x
        scale = np.maximum.reduce([np.abs(a0), np.abs(a1), np.abs(ax), np.ones_like(ax)])
        bad = np.abs(ax - expect) > 1e-8 * scale
        if np.any(bad):
            k = int(np.asarray(idx).ravel()[np.flatnonzero(bad)[0]])
            raise NonlinearCoefficient(f"a_{k}(x) is not affine in x")


# ----------------------------------------------------------------------------
# evaluation kernels
# ----------------------------------------------------------------------------


def count_zeros_below(rec: MonicRecurrence, x: float, n: int) -> int:
    """Number of zeros of P_n strictly below x.

    Sturm property of OPS: the count equals the number of sign agreements
    between consecutive members of (P_0(x), ..., P_n(x)), i.e. the number of
    positive pivots q_k = P_k(x) / P_{k-1}(x).  An exact hit P_j(x) = 0 takes
    the sign of -P_{j-1}(x): the pivot is +0 in the negated form of
    _sturm_counts, not counted, and the next one is -inf, counted, which keeps
    the chain consistent with P_{j+1} = -lambda_j P_{j-1}.  At x = -inf and
    +inf the count is its limit, 0 and n; at NaN it raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if np.isnan(x):
        raise ValueError("the zeros-below count needs a point that is not NaN")
    c, lam = rec.coeff_arrays(n)
    return int(_sturm_counts(c, lam, np.array([float(x)]))[0])


# Both Sturm kernels run the pivot recurrence over reused blocks of at most
# _BLOCK_ROWS rows and at most _BLOCK_SIZE elements in all (one row where the
# batch alone is larger), so a large batch adds little memory to a sweep.  A
# block's negative pivots are summed in uint8, which holds at most 255.
_BLOCK_ROWS = 255
_BLOCK_SIZE = 2**15


def _block_rows(batch: int, buffers: int) -> int:
    """Rows per block of a sweep over `batch` points that keeps `buffers`
    blocks of rows: the most that fit _BLOCK_ROWS and _BLOCK_SIZE, at least 1."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_SIZE // max(buffers * batch, 1)))


def _sturm_counts(c: np.ndarray, lam: np.ndarray, xs: np.ndarray, stops=None) -> np.ndarray:
    """Vectorized zeros-below-x counts for P_n, n = len(c), at each x in xs
    (with `stops`, for P_{stops[i]} at xs[i]), each from a window of rows
    that gives the count of a sweep from row 1 bitwise (_pivot_sweep).

    Pivot (LDL^T) form of the Sturm sequence, as in LAPACK dstebz, run on the
    negated pivots v_k = -q_k = -P_k(x) / P_{k-1}(x):
    v_0 = +inf, v_k = (c_{k-1} - x) - lambda_{k-1} / v_{k-1}, and the count
    is #{k : v_k < 0}.  No pivmin guards the division; IEEE infinities carry
    exact hits instead (Demmel & Li, "Faster numerical algorithms via
    exception handling", IEEE Trans. Comput. 43(8), 1994).  A hit gives
    v_j = +0, not counted; then lambda / +0 = +inf, v_{j+1} = -inf is counted,
    and lambda / -inf = -0 leaves v_{j+2} = c_{j+1} - x, the limit as the hit
    is approached from above.  A difference c_k - x = -0.0 (c_k = -0.0 at
    x = +0.0) would give v_j = -0 and flip that chain, so c is
    canonicalized to +0.0 first.  The count is monotone in x
    in floating point (Demmel, Dhillon & Ren, ETNA 3, 1995).
    """
    return _pivot_sweep(c, lam, xs, derivative=False, stops=stops)[0]


def _sturm_newton(c: np.ndarray, lam: np.ndarray, xs: np.ndarray, stops=None) -> tuple[np.ndarray, np.ndarray]:
    """The zeros-below counts of _sturm_counts at each x in xs, bitwise, and
    s = Q'(x) / Q(x) from the same pivot sweep: the Newton step is -1/s.
    Q is P_n (n = stops[i] at xs[i] with `stops`) for a point swept from
    row 1, and for a point with a head the polynomial of the rows k0 - 1..
    n - 1, which has the zeros of P_n near x (_pivot_sweep).

    P_n = (-1)^n prod v_k, so s = sum r_k with r_k = v_k' / v_k.  With the
    ratios q_k = lambda_{k-1} / v_{k-1} of the sweep, the derivative of
    v_k = (c_{k-1} - x) - q_k is v_k' = -1 + q_k r_{k-1}, so r is the linear
    recurrence r_k = a_k r_{k-1} - 1/v_k, a_k = q_k / v_k, r_0 = 0.  An exact
    hit carries infinities into s and may leave it NaN; the caller falls back
    to bisection there.
    """
    counts, _, s = _pivot_sweep(c, lam, xs, derivative=True, stops=stops)
    return counts, s


# A sweep starts each point _HEAD_ROWS rows below its head row K, the first
# row k that fails the head test x - c_k >= (sqrt(lambda_k) +
# sqrt(lambda_{k+1})) (1 + _HEAD_SLACK) + _HEAD_SLACK |c_k|.  The slack, 2**9
# times the unit roundoff, covers the rounding of the test and of the pivots
# that _pivot_sweep's head enclosure needs.
_HEAD_ROWS = 32
_HEAD_SLACK = 2.0**-44


def _head_rows(c: np.ndarray, lam: np.ndarray, xs: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """K at each x: every row k < K passes the head test (see _HEAD_ROWS), and
    K is at most stops - 1, so that K depends on the rows before the stop
    only.  One searchsorted on the prefix maximum of the points from which
    on the rows pass."""
    root = np.sqrt(lam)
    width = root[:-1] + root[1:]
    ends = c[:-1] + width + _HEAD_SLACK * (np.abs(c[:-1]) + width)
    return np.minimum(np.searchsorted(np.maximum.accumulate(ends), xs, side="right"), stops - 1)


def _pivot_sweep(c, lam, xs, derivative, stops=None):
    """The one pivot sweep of both Sturm kernels: the counts of negative
    pivots v_k over rows 1..stops[i] at each x = xs[i] (all n = len(c) rows
    without stops), the last pivots, and with `derivative` the sum s of r_k
    (see _sturm_newton), else None.

    Each point sweeps only the rows from k0 = K - _HEAD_ROWS to its stop,
    K its head row (_head_rows), where K > _HEAD_ROWS.  On the rows k <= K
    every negated pivot lies in [c_{k-1} - x, -sqrt(lambda_k)], so every
    one counts: the map v -> (c_{k-1} - x) - lambda_{k-1} / v increases for
    v < 0 and takes that interval into the next one, and the head slack
    makes this hold for the float pivots too.
    Both ends of the interval at row k0 are swept over the head rows k0 +
    1..K.  The float map is monotone as well, so the float pivot of a sweep
    from row 1 lies between the two ends at each row; where they coincide
    bitwise at row K it equals them, and the point's sweep goes on there,
    bitwise that sweep from row 1, with the K rows below counted.  Points
    whose ends do not coincide take twice as many head rows, and are swept
    from row 1 once K is no larger.  Heads are taken only where they
    shorten the sweep's longest window, which sets its number of numpy
    calls; else every point is swept from row 1.

    The derivative follows the lower end c_{k0-1} - x, the first pivot of
    the polynomial Q of the rows k0 - 1..n - 1 alone (the associated
    polynomial P^(k0-1)_{n-k0+1}), from its r = -1 / (c_{k0-1} - x): s is
    Q'/Q, with Q = P_n for a point swept from row 1.  Q has the zeros of
    P_n near x up to the square of their eigenvectors' decay over the head
    rows, so Newton steps on s still converge to them.
    """
    xs = np.asarray(xs, dtype=float)
    c = c + 0.0  # -0.0 + 0.0 = +0.0; c_k - x = -0.0 needs c_k = -0.0
    n = c.shape[0]
    equal = stops is None
    stops = np.full(xs.size, n, dtype=np.int64) if equal else np.asarray(stops, dtype=np.int64)
    start = np.zeros(xs.size, dtype=np.int64)
    # lambda_0 / inf = 0 starts v_1 = c_0 - x
    v, r, base, head = np.full(xs.size, np.inf), None, None, _HEAD_ROWS
    if n > head + 1 and xs.size:
        # heads pay only where they shorten the sweep: its numpy calls follow
        # its longest window, and the pass over the head rows costs about
        # twice as many again.  So each point within 2 * head rows of the
        # top stop needs a head, and so x above c_0 .. c_head
        top = n if equal else stops.max()
        if (xs if equal else xs[stops >= top - 2 * head]).min() > c[: head + 1].max():
            k = _head_rows(c, lam, xs, stops)
            if (stops - np.where(k > head, k, 0)).max() + 2 * head < top:
                base, r, s = np.zeros(xs.size, dtype=np.int64), np.zeros(xs.size), np.zeros(xs.size)
                todo = np.flatnonzero(k > head)
                while todo.size:
                    # both ends of each head in one sweep: the lower end with
                    # Q's first r, then the upper one
                    x, k0, m = xs[todo], k[todo] - head, todo.size
                    lower = c[k0 - 1] - x
                    first = -1.0 / lower
                    ends = np.concatenate((lower, -np.sqrt(lam[k0])))
                    twice = np.tile(x, 2), np.tile(k0, 2), np.tile(k[todo], 2)
                    cts, pivots, sums, rs = _lockstep(c, lam, *twice, ends, np.append(first, np.zeros(m)), derivative)
                    ok = pivots[:m].view(np.int64) == pivots[m:].view(np.int64)
                    i = todo[ok]
                    start[i], base[i], v[i] = k[i], (k0 + cts[:m])[ok], pivots[:m][ok]
                    if derivative:
                        r[i], s[i] = rs[:m][ok], (first + sums[:m])[ok]
                    head *= 2
                    todo = todo[~ok]
                    todo = todo[k[todo] > head]
    if base is None:
        # every point from row 1, and to row n where stops are equal
        return _lockstep(c, lam, xs, None if equal else start, stops, v, r, derivative)[:3]
    counts, last, sums, _ = _lockstep(c, lam, xs, start, stops, v, r, derivative)
    return counts + base, last, s + sums if derivative else None


def _lockstep(c, lam, xs, k0, stops, v, r, derivative):
    """Counts, last pivots, s (with `derivative`, else None) and last r of
    a sweep of each point x = xs[i] over rows k0[i] + 1..stops[i], k0[i] <=
    stops[i] (rows 1..len(c) for every point where k0 is None), from the
    negated pivot v[i] and r[i] (r = 0 where r is None); the float arrays v
    and r may be overwritten.

    Step t takes row k0 + t of the points whose window is longer than t;
    sorted by window length, longest first, those are a prefix.  A block of
    steps holds each active point's c_k - x, read from a slice of c where
    all windows start at one row and gathered by window otherwise (with
    lambda_k, a block of its own then, else one number per row).  Each step
    is two in-place ufuncs on one row, the ratio q_k into its own row of a
    block (one row reused, without `derivative`), then v_k = (c_{k-1} - x)
    - q_k.  The signs are counted once per block, rows past a window masked
    out, and the last row carries into the next block.  For the derivative
    the block's pivots become 1/v_k and its ratios a_k, each in one ufunc
    over the block, and r_k takes one multiply and one subtract per row, in
    place of a_k; the block's r_k are summed into s at once.  Blocks have
    _block_rows of the active points, from step 0: with equal windows from
    row 0 these are the blocks, and so the counts, pivots and s, of a sweep
    over those rows without windows.
    """
    divide, subtract, multiply, less = np.divide, np.subtract, np.multiply, np.less
    add_reduce, uint8 = np.add.reduce, np.uint8
    batch = xs.size
    last = np.asarray(v, dtype=float)
    r = np.zeros(batch) if r is None else r  # r_0 = 0, then the last r_k of each block
    x, start, order = xs, k0, None
    if k0 is None:
        steps, shared = c.shape[0] if batch else 0, True
    else:
        length = stops - k0
        if not (length[:-1] >= length[1:]).all():
            order = np.argsort(-length, kind="stable")
            x, start, length, last, r = (a[order] for a in (x, start, length, last, r))
        shorter = -length  # the points whose window is longer than t: shorter < -t
        steps = int(length[0]) if batch else 0
        shared = batch == 0 or start.min() == start.max()
    counts = np.zeros(batch, dtype=np.int64)
    s = np.zeros(batch) if derivative else None
    # a gathered block also holds lambda_k and the rows' indices
    buffers = (2 if derivative else 1) + (0 if shared else 2)
    size = min(max(_BLOCK_SIZE // buffers, batch), batch * min(_BLOCK_ROWS, steps))
    flat, flat_neg = np.empty(size), np.empty(size, dtype=bool)
    flat_lam = np.empty(0 if shared else size)
    flat_ratios = np.empty(size if derivative else batch)
    t0 = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while t0 < steps:
            a = batch if k0 is None else int(shorter.searchsorted(-t0, side="left"))
            m = min(_block_rows(a, buffers), steps - t0)
            shape = (m, a)
            block = flat[: m * a].reshape(shape)
            neg = flat_neg[: m * a].reshape(shape)
            if shared:
                k = t0 if k0 is None else int(start[0]) + t0
                subtract(c[k : k + m, None], x[:a], block)
                lams = lam[k : k + m].tolist()
            else:
                rows = np.add.outer(np.arange(t0, t0 + m), start[:a])
                np.take(c, rows, out=block, mode="clip")
                subtract(block, x[:a], block)
                lams = flat_lam[: m * a].reshape(shape)
                np.take(lam, rows, out=lams, mode="clip")
            ratios = flat_ratios[: m * a].reshape(shape) if derivative else flat_ratios[:a]
            views = list(block)
            qviews = list(ratios) if derivative else [ratios] * m
            prev = last[:a]
            for lk, v, q in zip(lams, views, qviews):
                divide(lk, prev, q)
                subtract(v, q, v)
                prev = v
            less(block, 0.0, neg)
            # windows that end inside the block: mask their later rows out,
            # and take their last pivots (and r) from their last rows
            full = a if k0 is None else int(shorter.searchsorted(-(t0 + m), side="right"))
            dead = None
            if full < a:
                ending = (length[full:a] - t0 - 1, np.arange(full, a))
                dead = ~np.less.outer(np.arange(t0, t0 + m), length[:a])
                neg[dead] = False
            counts[:a] += add_reduce(neg.view(uint8), 0, uint8)
            np.copyto(last[:a], prev)
            if dead is not None:
                last[full:a] = block[ending]
            if derivative:
                divide(1.0, block, block)
                multiply(ratios, block, ratios)
                r_run = r[:a]
                prev = r_run
                for ak, inv in zip(qviews, views):
                    multiply(ak, prev, ak)
                    subtract(ak, inv, ak)
                    prev = ak
                np.copyto(r_run, prev)
                if dead is not None:
                    r[full:a] = ratios[ending]
                    ratios[dead] = 0.0
                s[:a] += add_reduce(ratios, 0)
            t0 += m
    if order is None:
        return counts, last, s, r
    where = np.argsort(order)
    return tuple(None if a is None else a[where] for a in (counts, last, s, r))


# _frozen_counts takes a point's count over rows 1..K once the negated pivot
# v_K, at or past the point's dominance index M, is at least _FROZEN_MARGIN *
# sqrt(lambda_K) (exact arithmetic needs a factor 1; the rest absorbs
# rounding).  It first checks each point at the first multiple of
# _FROZEN_ROWS at least _FROZEN_ROWS rows past its own M, where the pivot of
# a point near a level has mostly left the level's decaying solution, and
# sweeps the points that fail afresh to twice as many rows further each
# time, up to the row 2M + 1 reaches from M in _FROZEN_ROUNDS - 1 doublings.
# No round asks coeff_arrays for more than _ROW_LIMIT rows: c, lambda and
# their roots then hold 96 MiB.
_FROZEN_MARGIN = 2.0
_FROZEN_ROWS = 16
_FROZEN_ROUNDS = 8
_ROW_LIMIT = 2**22


def _require_frozen_count(rec: MonicRecurrence) -> None:
    """ValueError unless rec has a table length or a dominance index."""
    if rec.n_cap is None and rec.dominance_index is None:
        raise ValueError(
            f"{rec.description or 'model'} has neither a table length nor a dominance index, so "
            "no level can be certified: attach an index, e.g. dataclasses.replace(to_monic(raw), "
            "dominance_index=m), or tabulate the coefficients with MonicRecurrence.from_arrays"
        )


def _table_dominance(c: np.ndarray, root: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """One past the last row k of a table not Gershgorin dominated at each x
    of the ascending xs, c_k - x < root_k + root_{k+1} with root_k =
    sqrt(lambda_k) and root_{n_cap} = 0 (0 where every row is dominated);
    nondecreasing in x."""
    loose = c - (root[:-1] + root[1:])  # row k is loose at every x > loose[k]
    return np.searchsorted(np.minimum.accumulate(loose[::-1])[::-1], xs, side="left")


def _dominance_rows(rec: MonicRecurrence, xs: np.ndarray) -> np.ndarray:
    """M at each x of the ascending xs, nondecreasing: the model's dominance
    index, or a table's _table_dominance."""
    if rec.n_cap is not None:
        c, lam = rec.coeff_arrays(rec.n_cap)
        return _table_dominance(c, np.sqrt(np.append(lam, 0.0)), xs)
    return np.maximum.accumulate(np.asarray(rec.dominance_index(xs), dtype=np.int64))


def _first_rows(m: np.ndarray) -> np.ndarray:
    """The first multiple of _FROZEN_ROWS at least _FROZEN_ROWS rows past M."""
    return -(-(m + _FROZEN_ROWS) // _FROZEN_ROWS) * _FROZEN_ROWS


def _frozen_counts(rec: MonicRecurrence, xs: np.ndarray) -> np.ndarray:
    """Number of spectral points strictly below each x in the 1-D array xs:
    the zeros-below count of P_N as N -> infinity.  ValueError when the model
    has neither a table length nor a dominance index, or at a non-finite
    point; PrecisionExhausted when a round would need more than _ROW_LIMIT
    rows, before it materializes them, and when a count does not freeze
    within _FROZEN_ROUNDS doublings of M.

    A table's count at n_cap is exact.  Otherwise, with v_k the negated
    pivots of _sturm_counts: if every row k >= M is Gershgorin dominated at x,
    c_k - x >= sqrt(lambda_k) + sqrt(lambda_{k+1}), and v_K >= sqrt(lambda_K)
    for some K >= M, then by induction v_{k+1} >= (sqrt(lambda_k) +
    sqrt(lambda_{k+1})) - lambda_k / sqrt(lambda_k) = sqrt(lambda_{k+1}) >= 0
    for every k >= K.  No row past K counts, so every P_N with N >= K has
    the count over rows 1..K.  Each point has its own M: the model's
    dominance index at it, or on a table one past the last row that is not
    dominated, with lambda_{n_cap} = 0.  The points are swept in ascending
    order, each from row 1 to its own stop (_pivot_sweep's stops), in one
    fresh sweep per round of the schedule above; a table's point stops at
    n_cap at the latest.
    """
    _require_frozen_count(rec)
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("the zeros-below count needs finite points")
    counts = np.zeros(xs.shape, dtype=np.int64)
    order = np.argsort(xs, kind="stable")
    x = xs[order]
    table = rec.n_cap is not None
    m = _dominance_rows(rec, x)

    def refuse(i, rows):
        raise PrecisionExhausted(
            f"the zeros-below count at x={float(x[i])!r} of {rec.description or 'model'} "
            f"needs {rows} rows from its dominance index M = {int(m[i])}, past the row "
            f"limit {_ROW_LIMIT}"
        )

    if not table and m.size and m[-1] >= _ROW_LIMIT:  # before any row arithmetic can wrap
        i = int(np.argmax(m >= _ROW_LIMIT))
        refuse(i, _first_rows(int(m[i])) + 1)
    if table:
        c, lam = rec.coeff_arrays(rec.n_cap)
        root = np.sqrt(np.append(lam, 0.0))
        last = np.full(x.size, rec.n_cap)
    else:
        last = 2 ** (_FROZEN_ROUNDS - 1) * (m + 1) - 1  # M doubled to 2M + 1, 7 times
        c = lam = root = np.empty(0)
    # the points x[todo] failed the margin at rows k
    todo, k, rows = np.arange(x.size), None, _FROZEN_ROWS
    while todo.size:
        # on a grid of _FROZEN_ROWS rows, so that one sweep's stops take few values
        stop = np.minimum(_first_rows(m[todo]) if k is None else k + rows, last[todo])
        if stop[-1] >= root.size:
            if stop[-1] >= _ROW_LIMIT:
                j = int(np.argmax(stop >= _ROW_LIMIT))
                refuse(todo[j], int(stop[j]) + 1)
            c, lam = rec.coeff_arrays(int(stop[-1]) + 1)
            root = np.sqrt(lam)
        cts, v, _ = _pivot_sweep(c, lam, x[todo], False, stops=stop)
        counts[order[todo]] = cts
        fail = ~(v >= _FROZEN_MARGIN * root[stop])
        if table:
            fail &= stop < rec.n_cap
        elif np.any(fail & (stop == last[todo])):
            i = todo[np.flatnonzero(fail & (stop == last[todo]))[0]]
            raise PrecisionExhausted(
                f"the zeros-below count at x={float(x[i])!r} of {rec.description or 'model'} "
                f"does not freeze within {_FROZEN_ROUNDS} doublings of its dominance index"
            )
        todo, k, rows = todo[fail], stop[fail], 2 * rows
    return counts


def _tail_cut(gap: np.ndarray, root: np.ndarray, log_bound: float, first: int = 0):
    """(m, K): where the minimal solution at some point has fallen below a
    bound, judged from the rows k = 0 .. root.size - 2, with gap_k the
    distance of c_k from that point and root_k = sqrt(lambda_k).

    Row k is dominated when gap_k >= root_k + root_{k+1}; m is one past the
    last row that is not (0 when every row is).  Past m the solution's
    ratios p_k / p_{k-1} are bounded by r_k = root_k / (gap_k - root_{k+1})
    (Olver, J. Res. NBS 71B, 1967), and K is the first row k > m, k >= first,
    where sum_{j = m+1 .. k} log2 r_j < log_bound; None when no judged row is.
    """
    rows = root.size - 1
    loose = np.flatnonzero(gap[:rows] < root[:rows] + root[1:])
    m = int(loose[-1]) + 1 if loose.size else 0
    shrink = np.cumsum(np.log2(root[m + 1 : rows] / (gap[m + 1 : rows] - root[m + 2 :])))
    start = np.flatnonzero((shrink < log_bound) & (np.arange(m + 1, rows) >= first))
    return m, m + 1 + int(start[0]) if start.size else None


def _backward_fraction(c: np.ndarray, lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """F(x) = -P_n(x) / P^(1)_{n-1}(x), n = len(c), at each x in xs.

    Backward evaluation of the n-term continued fraction: t = x - c_{n-1},
    then t <- (x - c_k) - lambda_{k+1} / t for k = n-2 ... 0, and F = -t.
    Each t is a ratio of associated polynomials, so nothing overflows and no
    rescaling is needed.  An exact hit t = 0 gives lambda/0 = inf and the next
    step's lambda/inf = 0, which is the correct limit; a final t = 0 leaves F
    at +-inf, the pole.  The points go through in chunks of _BLOCK_SIZE, so
    each step works on arrays that stay in cache.
    """
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.shape)
    flat, f = xs.reshape(-1), out.reshape(-1)
    steps = list(zip(c[::-1].tolist(), [1.0] + lam[:0:-1].tolist()))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k0 in range(0, flat.size, _BLOCK_SIZE):
            x = flat[k0 : k0 + _BLOCK_SIZE]
            t = f[k0 : k0 + _BLOCK_SIZE]
            t.fill(np.inf)  # lambda / inf = 0 starts t = x - c_{n-1}
            u = np.empty_like(t)
            for ck, lk in steps:
                np.divide(lk, t, out=t)
                np.subtract(x, ck, out=u)
                np.subtract(u, t, out=t)
            np.negative(t, out=t)
    return out


def _zero_bounds(c: np.ndarray, lam: np.ndarray) -> tuple[float, float]:
    """Rigorous enclosure of all zeros of P_n via Gershgorin discs of the
    Jacobi matrix (diagonal c_k, off-diagonal sqrt(lambda_k))."""
    n = c.shape[0]
    root = np.sqrt(lam[1:]) if n > 1 else np.zeros(0)
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += root
        radius[1:] += root
    lo = float(np.min(c - radius))
    hi = float(np.max(c + radius))
    pad = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    return lo - pad, hi + pad
