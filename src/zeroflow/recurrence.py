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

Evaluation renormalizes the live recurrence terms by powers of two whenever
they drift out of a safe magnitude window.  A common power-of-two factor is
exact in binary floating point and cancels from every ratio, sign and zero
location, so the sequences can be run to arbitrary degree without overflow
or underflow and without losing a single mantissa bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonlinearCoefficient, NonPositiveLambda
from .scaled import ScaledReal

__all__ = [
    "RecurrenceAsymptotics",
    "RawRecurrence",
    "MonicRecurrence",
    "to_monic",
    "eval_sequence",
    "count_zeros_below",
]

# Magnitude window for the rescaled recurrence terms.  One step multiplies a
# term by at most ~|x - c_n| + lambda_n, so 2**500 of headroom below the
# double limit 2**1024 covers any sane coefficient growth.
_RESCALE_EXP = 500
_RESCALE_LIMIT = 2.0**_RESCALE_EXP
_RESCALE_UP = 2.0**_RESCALE_EXP
_RESCALE_DOWN = 2.0**-_RESCALE_EXP

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
    coefficients (not of c, lambda) and are advisory metadata: the solver
    consults them for the class-membership test and refuses to run only on an
    explicit negative verdict without an override.
    """

    c: Callable[[np.ndarray], np.ndarray]
    lam: Callable[[np.ndarray], np.ndarray]
    description: str = ""
    n_cap: Optional[int] = None
    asymptotics: Optional[RecurrenceAsymptotics] = None

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
        base_c, base_lam = self.c, self.lam
        cap = None if self.n_cap is None else max(self.n_cap - upsilon, 0)

        def c_fn(n):
            return base_c(np.asarray(n) + upsilon)

        def lam_fn(n):
            return base_lam(np.asarray(n) + upsilon)

        desc = f"{self.description}^({upsilon})" if self.description else f"associated({upsilon})"
        return MonicRecurrence(
            c=c_fn,
            lam=lam_fn,
            description=desc,
            n_cap=cap,
            asymptotics=self.asymptotics,  # index shifts do not change growth
        )


def to_monic(raw: RawRecurrence, probe_terms: int = 64) -> MonicRecurrence:
    """Normalize a raw recurrence to monic OPS form.

    With a_n(x) = -(alpha_n x - ctilde_n) the rescaling phi_n = s_n P_n,
    s_{n+1} = alpha_n s_n, gives

        c_n = ctilde_n / alpha_n,
        lambda_n = b_n / (alpha_n alpha_{n-1})     (n >= 1),

    so the zeros of P_n are exactly the energies where the truncated raw
    system admits a nontrivial solution with phi_n = 0.

    Affinity of a_n in x is verified on probe points; NonlinearCoefficient
    is raised on violation.  alpha_n must be nonzero for n >= 0 (n = 0 is
    needed to embed the two-term condition as P_1 = x - c_0).
    """
    _check_affine(raw, np.arange(probe_terms + 1, dtype=np.int64))

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


def eval_sequence(
    rec: MonicRecurrence,
    x: float,
    n_max: int,
    _rescale_limit: float = _RESCALE_LIMIT,
) -> tuple[ScaledReal, ...]:
    """(P_0(x), ..., P_{n_max}(x)) as exact-exponent ScaledReal values.

    Total for any valid recurrence: renormalization moves the common
    power-of-two factor into the exponent, never the mantissa.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    x = float(x)
    out = [ScaledReal.one()]
    if n_max == 0:
        return tuple(out)
    c, lam = rec.coeff_arrays(n_max)
    inv_limit = 1.0 / _rescale_limit
    shift = int(round(math.log2(_rescale_limit)))
    p_prev, p_cur = 1.0, x - c[0]
    offset = 0
    out.append(ScaledReal.from_float(p_cur, offset))
    for k in range(2, n_max + 1):
        p_next = (x - c[k - 1]) * p_cur - lam[k - 1] * p_prev
        m = max(abs(p_next), abs(p_cur))
        if m > _rescale_limit:
            p_next = math.ldexp(p_next, -shift)
            p_cur = math.ldexp(p_cur, -shift)
            offset += shift
        elif 0.0 < m < inv_limit:
            p_next = math.ldexp(p_next, shift)
            p_cur = math.ldexp(p_cur, shift)
            offset -= shift
        out.append(ScaledReal.from_float(p_next, offset))
        p_prev, p_cur = p_cur, p_next
    return tuple(out)


def count_zeros_below(rec: MonicRecurrence, x: float, n: int) -> int:
    """Number of zeros of P_n strictly below x.

    Sturm property of OPS: the count equals the number of sign agreements
    between consecutive members of (P_0(x), ..., P_n(x)), i.e. the number of
    positive pivots q_k = P_k(x) / P_{k-1}(x).  An exact hit P_j(x) = 0 takes
    the sign of -P_{j-1}(x) (the pivot becomes -pivmin), which keeps the
    chain consistent with P_{j+1} = -lambda_j P_{j-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c, lam = rec.coeff_arrays(n)
    return int(_sturm_counts(c, lam, np.array([float(x)]))[0])


def _sturm_counts(c: np.ndarray, lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Vectorized zeros-below-x counts for P_n, n = len(c), at each x in xs.

    Pivot (LDL^T) form of the Sturm sequence, as in LAPACK dstebz:
    q_1 = x - c_0, q_k = (x - c_{k-1}) - lambda_{k-1} / q_{k-1}, and the count
    is #{k : q_k > 0}.  A pivot with |q_k| < pivmin = tiny * max(1, max
    lambda) becomes -pivmin, so lambda / q stays below 1/tiny and no
    rescaling is needed.  The count is monotone in x in floating point
    (Demmel, Dhillon & Ren, ETNA 3, 1995).
    """
    xs = np.asarray(xs, dtype=float)
    pivmin = np.finfo(float).tiny * max(1.0, float(lam.max()))
    q = np.full(xs.shape, np.inf)  # lambda_0 / inf = 0 starts q_1 = x - c_0
    ratio = np.empty_like(q)
    low = np.empty(xs.shape, dtype=bool)
    n_low = np.zeros(xs.shape, dtype=np.int64)
    for ck, lk in zip(c.tolist(), lam.tolist()):
        np.divide(lk, q, out=ratio)
        np.subtract(xs, ck, out=q)
        q -= ratio
        np.less(q, pivmin, out=low)
        np.minimum(q, -pivmin, out=q, where=low)
        n_low += low
    return c.shape[0] - n_low


def _terminal_values(c: np.ndarray, lam: np.ndarray, xs: np.ndarray):
    """(P_n, P_{n-1}, exp) at each x: true values are p * 2**exp.

    n = len(c) >= 1.  The shared per-element exponent keeps ratios of the
    two terminal values exactly representable.
    """
    n = c.shape[0]
    xs = np.asarray(xs, dtype=float)
    p_prev = np.ones_like(xs)
    p_cur = xs - c[0]
    exp = np.zeros(xs.shape, dtype=np.int64)
    for k in range(2, n + 1):
        p_next = (xs - c[k - 1]) * p_cur - lam[k - 1] * p_prev
        m = np.maximum(np.abs(p_next), np.abs(p_cur))
        big = m > _RESCALE_LIMIT
        if big.any():
            p_next = np.where(big, p_next * _RESCALE_DOWN, p_next)
            p_cur = np.where(big, p_cur * _RESCALE_DOWN, p_cur)
            exp += big * _RESCALE_EXP
        small = (m < _RESCALE_DOWN) & (m > 0.0)
        if small.any():
            p_next = np.where(small, p_next * _RESCALE_UP, p_next)
            p_cur = np.where(small, p_cur * _RESCALE_UP, p_cur)
            exp -= small * _RESCALE_EXP
        p_prev, p_cur = p_cur, p_next
    return p_cur, p_prev, exp


def _value_and_derivative(c: np.ndarray, lam: np.ndarray, xs: np.ndarray):
    """(P_n, P_n', exp) at each x, sharing one exponent per element.

    The derivative satisfies the differentiated recurrence
    d_n = (x - c_{n-1}) d_{n-1} - lambda_{n-1} d_{n-2} + P_{n-1},
    d_0 = 0, d_1 = 1, and must be rescaled together with P to stay coupled.
    """
    n = c.shape[0]
    xs = np.asarray(xs, dtype=float)
    p_prev = np.ones_like(xs)
    p_cur = xs - c[0]
    d_prev = np.zeros_like(xs)
    d_cur = np.ones_like(xs)
    exp = np.zeros(xs.shape, dtype=np.int64)
    for k in range(2, n + 1):
        p_next = (xs - c[k - 1]) * p_cur - lam[k - 1] * p_prev
        d_next = (xs - c[k - 1]) * d_cur - lam[k - 1] * d_prev + p_cur
        m = np.maximum(
            np.maximum(np.abs(p_next), np.abs(p_cur)),
            np.maximum(np.abs(d_next), np.abs(d_cur)),
        )
        big = m > _RESCALE_LIMIT
        if big.any():
            scale = np.where(big, _RESCALE_DOWN, 1.0)
            p_next, p_cur = p_next * scale, p_cur * scale
            d_next, d_cur = d_next * scale, d_cur * scale
            exp += big * _RESCALE_EXP
        small = (m < _RESCALE_DOWN) & (m > 0.0)
        if small.any():
            scale = np.where(small, _RESCALE_UP, 1.0)
            p_next, p_cur = p_next * scale, p_cur * scale
            d_next, d_cur = d_next * scale, d_cur * scale
            exp -= small * _RESCALE_EXP
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
    return p_cur, d_cur, exp


def _ratio(num: np.ndarray, num_exp: np.ndarray, den: np.ndarray, den_exp: np.ndarray):
    """(num * 2**num_exp) / (den * 2**den_exp) as doubles; inf on poles."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = num / den
        return np.ldexp(r, (num_exp - den_exp).astype(np.int64))


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
