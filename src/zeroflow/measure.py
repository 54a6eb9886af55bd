"""Continued fractions, finite-degree measures, spectral masses, eigenvectors.

The two Jacobi-type continued fractions attached to a monic recurrence,

    E(x) = P^(1)_{n-1}(x) / P_n(x),          F(x) = -P_n(x) / P^(1)_{n-1}(x),

are truncated at depth n, where P^(1) is the first associated OPS
(coefficients shifted by one).  E is the finite-depth Stieltjes transform:
its poles sit at the zeros of P_n, which flow to the spectrum, and its
partial fraction expansion has positive weights summing to one.  F vanishes
exactly where E has poles, and E*F = -lambda_0 = -1 identically at matched
depth.

F is evaluated as the backward continued fraction
(c_0 - x) + lambda_1/((x - c_1) - lambda_2/(...)), innermost term first, and
E = -1/F, so E*F = -1 holds to one rounding.  Every partial tail is a ratio
of associated polynomials, so the evaluation never overflows at any depth.
Measure weights and spectral masses sum squares of orthonormal polynomials
forward, and eigenvectors come from backward ratios of the minimal
solution; neither needs rescaling either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


import numpy as np

from .errors import Divergent, NotMinimal, PoleHit
from .flows import zeros_of
from .recurrence import MonicRecurrence, RawRecurrence, _backward_fraction

__all__ = [
    "DiscreteMeasure",
    "SpectralMass",
    "EigenvectorResult",
    "eval_F",
    "eval_E",
    "partial_fractions",
    "spectral_mass",
    "reconstruct_eigenvector",
]

_EPS = float(np.finfo(float).eps)

# p~_0 of the orthonormal recurrence: sums of p~_l**2 come out scaled by
# 2**-128, so a sum stays finite for every weight 2**-128 / S above underflow.
_SEED = 2.0**-64

# Two backward runs may differ by this much relative to the largest
# component without disagreeing: rounding noise in a vanishing component.
_NOISE = 2.0**-40

# reconstruct_eigenvector accepts xi when the two-term residual changes sign
# within this many ulps of max(1, |xi|) on either side: the bisection
# resolution of the zeros that xi comes from.
_LEVEL_ULPS = 4

# spectral_mass: a sum is divergent once it exceeds _DIVERGENCE_THRESHOLD
# times its first term while its terms rose _DIVERGENCE_RUN times in a row
# past the dominance index, and saturated after _TAIL_RUN terms in a row
# below _TAIL_RTOL of the sum, or at a turnaround where two consecutive terms
# fell below _SATURATE_RTOL of it.
_DIVERGENCE_THRESHOLD = 1e12
_DIVERGENCE_RUN = 100
_TAIL_RTOL = 1e-13
_TAIL_RUN = 12
_SATURATE_RTOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Step-function measure of degree n: jumps M_{n,k} > 0 at the zeros
    x_{n,k} of P_n, with sum(M) = 1 up to 64*eps*n."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be equal-length vectors")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0.0):
            raise ValueError("all weights must be strictly positive")
        defect = abs(float(np.sum(weights)) - 1.0)
        if defect > 64.0 * _EPS * max(self.degree, 1):
            raise ValueError(f"weights sum to 1 {defect:.3e} off, beyond tolerance")

    def stieltjes(self, z: float) -> float:
        """sum_k M_k / (z - x_k), the partial fraction form of E at this degree."""
        return float(np.sum(self.weights / (z - self.nodes)))

    def moment(self, j: int) -> float:
        """j-th moment sum_k M_k x_k**j."""
        return float(np.sum(self.weights * self.nodes ** j))


@dataclass(frozen=True)
class SpectralMass:
    """Jump of the limiting measure at a spectral point xi:
    mass = 1 / sum_l P_l(xi)^2 / n_l, with n_l = lambda_1 ... lambda_l.

    tail_estimate bounds the truncated remainder of the (un-inverted) sum;
    the relative error of mass is about mass * tail_estimate.
    """

    xi: float
    mass: float
    tail_estimate: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mass < 1.0):
            raise ValueError(f"mass must lie in (0, 1), got {self.mass!r}")


@dataclass(frozen=True)
class EigenvectorResult:
    """Minimal-solution expansion coefficients at a spectral point,
    normalized to phi_0 = 1, with the Bargmann-norm diagnostics."""

    phi: np.ndarray
    bargmann_partial_sums: np.ndarray
    bargmann_saturated: bool
    two_term_residual: float


def _eval_F_many(rec: MonicRecurrence, xs: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized F on a grid; poles come out as +-inf rather than raising."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    c, lam = rec.coeff_arrays(depth)
    return _backward_fraction(c, lam, xs)


def eval_E(rec: MonicRecurrence, x: float, depth: int) -> float:
    """Depth-truncated Stieltjes fraction E(x) = P^(1)_{depth-1}(x)/P_depth(x).

    E has its poles at the zeros of P_depth, i.e. at the finite-degree
    spectrum approximants; depth 1 gives 1/(x - c_0).  Computed as -1/F from
    the backward fraction; PoleHit is raised when F(x) is exactly zero.
    """
    f = float(_eval_F_many(rec, np.array([float(x)]), depth)[0])
    if f == 0.0:
        raise PoleHit(f"E({x!r}) hit a zero of P_{depth} exactly")
    return -1.0 / f


def eval_F(rec: MonicRecurrence, x: float, depth: int) -> float:
    """Depth-truncated quantization function F(x) = -P_depth(x)/P^(1)_{depth-1}(x).

    Backward evaluation of the depth-term continued fraction
    (c_0 - x) + lambda_1/((x - c_1) - lambda_2/(...)), innermost term first;
    its zeros are the zeros of P_depth and E*F = -lambda_0 = -1 at matched
    depth.  PoleHit is raised when F(x) is infinite (x at a zero of
    P^(1)_{depth-1} to double precision).
    """
    f = float(_eval_F_many(rec, np.array([float(x)]), depth)[0])
    if math.isinf(f):
        raise PoleHit(f"F({x!r}) hit a zero of P^(1)_{depth - 1} exactly")
    return f


def partial_fractions(rec: MonicRecurrence, n: int) -> DiscreteMeasure:
    """Finite-degree measure: nodes are the zeros of P_n with the residue
    weights of E at depth n, computed through the Christoffel identity

        M_{n,k} = [ sum_{l=0}^{n-1} p_l(x_{n,k})^2 ]^{-1},   p_l = P_l / sqrt(n_l).

    The textbook residue form P^(1)_{n-1}(x_k)/P_n'(x_k) is algebraically the
    same number but numerically treacherous here: zeros of the associated OPS
    coagulate with the nodes (the same phenomenon that blinds the continued
    fraction), leaving the numerator inside its own rounding noise at
    converged nodes.  The sum of squares has no cancellation, so positivity
    survives at every node whose weight is representable at all.  The
    orthonormal values are summed forward in plain doubles from the seed
    p~_0 = 2**-64 (see _orthonormal); a weight below the double underflow
    threshold raises instead of flushing to zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = zeros_of(rec, n, n).zeros
    if n == 1:
        return DiscreteMeasure(nodes=nodes, weights=np.array([1.0]), degree=1)
    c, lam = rec.coeff_arrays(n)
    sums = _christoffel_sums(c, lam, nodes)

    # Once a zero flow has converged to within bisection resolution of its
    # limit, the Christoffel polynomial varies by orders of magnitude across
    # one node-location ulp and the finite-degree weight is no longer encoded
    # in double precision at all.  Detect that by re-evaluating the sums a few
    # node tolerances away: in the stable regime they barely move.
    h = 8.0 * 2.0**-50 * np.maximum(1.0, np.abs(nodes))
    probe = _christoffel_sums(c, lam, nodes + h)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(np.log2(probe / sums))
    if np.any(drift > 0.07):  # log2(1.05)
        k = int(np.argmax(drift))
        raise ValueError(
            f"degree {n} is past the coagulation horizon (node {k + 1} weight varies "
            f"2**{float(drift[k]):.1f}-fold across one node ulp); the finite-degree "
            "measure is not resolvable in double precision here, reduce the degree"
        )

    with np.errstate(under="ignore"):
        weights = np.ldexp(1.0 / sums, -128)
    dead = np.flatnonzero(~(weights > 0.0))
    if dead.size:
        k = int(dead[0])
        raise ValueError(
            f"weight M_{{{n},{k + 1}}} is below 2**-1074 and underflows double "
            "precision; reduce the degree or use a more strongly coupled model"
        )
    return DiscreteMeasure(nodes=nodes, weights=weights, degree=n)


def _orthonormal(c: np.ndarray, lam: np.ndarray, x):
    """Yield p~_l(x) = 2**-64 P_l(x) / sqrt(n_l), l = 0 .. len(c) - 1, where
    n_l = lambda_1 ... lambda_l, by the orthonormal recurrence

        p~_l = ((x - c_{l-1}) p~_{l-1} - sqrt(lambda_{l-1}) p~_{l-2}) / sqrt(lambda_l).

    x is a float, or an array of points with one array yielded per l.  No
    rescaling is needed for sums of squares: each p~_l**2 is bounded by the
    sum it feeds, so nothing overflows before the sum itself does."""
    root = np.sqrt(lam).tolist()
    p_prev, p = 0.0, 0.0 * x + _SEED
    yield p
    for ck, r_prev, r in zip(c.tolist(), root, root[1:]):
        p_prev, p = p, ((x - ck) * p - r_prev * p_prev) / r
        yield p


def _christoffel_sums(c: np.ndarray, lam: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """S(x) = sum_{l=0}^{n-1} p~_l(x)^2 = 2**-128 sum_l P_l(x)^2 / n_l at each
    x in xs, n = len(c); +inf (or nan) once the sum leaves the double range."""
    xs = np.asarray(xs, dtype=float)
    sums = np.zeros_like(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for p in _orthonormal(c, lam, xs):
            sums += p * p
    return sums


def spectral_mass(rec: MonicRecurrence, xi: float, l_max: int = 1000) -> SpectralMass:
    """Mass of the limiting measure at a converged spectral point xi.

    Accumulates S_L = sum_{l<=L} P_l(xi)^2 / n_l, forward in plain doubles
    over the orthonormal values of _orthonormal.  At a spectral point the
    terms decay superexponentially once l passes the resonant range, so S
    saturates and mass = 1/S; off the spectrum only a dominant solution
    exists, the terms grow without bound, and Divergent is raised.

    Because xi carries rounding error, the terms of a saturated sum
    eventually turn around and grow again like (dominant * error)^2; the
    running minimum of (two consecutive terms)/S is kept as a saturation
    candidate so the sum is cut at the turnaround, exactly like an
    asymptotic series.  Two consecutive small terms fix the whole minimal
    tail, while one term alone can be small by accident at an isolated zero
    of P_l(xi) and is no candidate.  Divergence is declared heuristically:
    S above _DIVERGENCE_THRESHOLD, terms rising over _DIVERGENCE_RUN
    consecutive l, and no saturation candidate better than _SATURATE_RTOL.
    Rising terms count only past the Gershgorin dominance index M(xi), the
    first k from which c_k - xi >= sqrt(lambda_k) + sqrt(lambda_{k+1}) holds
    for every materialised coefficient: before it the terms of a deep level
    legitimately climb through the range where the level lives.
    """
    if l_max < _TAIL_RUN + 2:
        raise ValueError("l_max too small to certify anything")
    xi = float(xi)
    c, lam = rec.coeff_arrays(l_max + 1)
    root = np.sqrt(lam)
    loose = np.flatnonzero(c[:-1] - xi < root[:-1] + root[1:])
    dominance = int(loose[-1]) + 1 if loose.size else 0
    terms = (p * p for p in _orthonormal(c, lam, xi))

    total = next(terms)  # l = 0 term: p~_0^2 = 2**-128 stands for P_0^2 / n_0 = 1
    threshold = _DIVERGENCE_THRESHOLD * total
    small_run = 0
    rise_run = 0
    prev_term = total
    best_ratio = 1.0
    best_total = total
    best_tail = total

    def saturated(total_at: float, tail_at: float) -> SpectralMass:
        # undo the 2**-128 scale of the orthonormal seed
        return SpectralMass(
            xi=xi, mass=math.ldexp(1.0 / total_at, -128), tail_estimate=tail_at * 2.0**128
        )

    for l, term in enumerate(terms, start=1):
        if not math.isfinite(total + term):
            if best_ratio <= _SATURATE_RTOL:
                return saturated(best_total, best_tail)
            raise Divergent(f"partial sums overflow at l={l}: {xi!r} is not a spectral point")
        total += term
        ratio = (prev_term + term) / total
        if ratio < best_ratio:
            best_ratio, best_total, best_tail = ratio, total, term + ratio * total

        if term <= _TAIL_RTOL * total:
            small_run += 1
            if small_run >= _TAIL_RUN:
                return saturated(total, 2.0 * term)
        else:
            small_run = 0
        rise_run = rise_run + 1 if term > prev_term and l > dominance else 0
        prev_term = term
        if rise_run >= _DIVERGENCE_RUN and total > threshold and best_ratio > _SATURATE_RTOL:
            raise Divergent(
                f"partial sums exceed {_DIVERGENCE_THRESHOLD:g} and grew over the last "
                f"{_DIVERGENCE_RUN} terms: {xi!r} is not a spectral point"
            )

    if best_ratio <= _SATURATE_RTOL:
        return saturated(best_total, best_tail)
    raise ValueError(
        f"sum neither saturated nor certified divergent by l_max={l_max}; increase l_max"
    )


def reconstruct_eigenvector(
    rec: MonicRecurrence,
    raw: RawRecurrence,
    xi: float,
    n_max: int,
    match_rtol: float = 1e-8,
) -> EigenvectorResult:
    """Expansion coefficients phi_0..phi_{n_max} of the state at energy xi.

    Backward ratios from a far tail (start >= 2*n_max, re-run from twice as
    far and compared) isolate the minimal solution; the result is normalized
    to phi_0 = 1.  The solution is a physical eigenvector only if (a) the
    Bargmann partial sums sum |phi_n|^2 n! saturate and (b) the two-term
    condition phi_1 + a_0(xi) phi_0 = 0 holds.  Off the spectrum the unique
    solution with the two-term initial condition is dominant and (b) fails by
    an O(1) residual; at a level the residual is the distance from xi to the
    level magnified by 1/mass, so (b) is judged at xi's own resolution: the
    residual must change sign between xi -+ _LEVEL_ULPS ulps of max(1, |xi|).
    NotMinimal is raised if (a) or (b) fails, and when the two tail runs
    disagree (no minimal/dominant separation at xi).  The runs are compared
    component by component to match_rtol, except that a difference within
    rounding of the largest |phi_j| is never a disagreement: a component that
    vanishes at xi holds only rounding noise in either run.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xi = float(xi)
    _check_same_model(rec, raw)
    start = max(2 * n_max, n_max + 32)
    rho = _backward_minimal(raw, xi, n_max, start, seed=1234)
    rho_b = _backward_minimal(raw, xi, n_max, 2 * start, seed=987654321)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        phi = np.cumprod(np.r_[1.0, rho])
        phi_b = np.cumprod(np.r_[1.0, rho_b])
        # Bargmann terms |phi_k|^2 k! = |phi_{k-1}|^2 (k-1)! * rho_k^2 * k
        sums = np.cumsum(np.cumprod(np.r_[1.0, rho * rho * np.arange(1, n_max + 1)]))
        diff = np.abs(phi - phi_b)
        mag = np.maximum(np.abs(phi), np.abs(phi_b))
        bad = np.flatnonzero(diff > np.maximum(match_rtol * mag, _NOISE * mag.max()))
    if bad.size:
        raise NotMinimal(
            f"backward runs from tails {start} and {2 * start} disagree at n={int(bad[0])}; "
            f"no stable minimal solution at {xi!r}"
        )

    window = min(max(4, n_max // 8), n_max)
    head = sums[-window - 1]
    saturated = bool(
        np.isfinite(sums[-1]) and head > 0.0 and (sums[-1] - head) <= 1e-10 * sums[-1]
    )
    if not saturated:
        raise NotMinimal(
            f"Bargmann partial sums did not saturate by n_max={n_max} at {xi!r}"
        )

    def residual(x: float, phi_1: float) -> float:
        """(phi_1 + a_0(x) phi_0) / max(1, |phi_1|, |a_0(x)|), with its sign."""
        a0 = float(np.asarray(raw.a(np.array([0]), x), dtype=float)[0])
        return (phi_1 + a0) / max(1.0, abs(phi_1), abs(a0))

    h = _LEVEL_ULPS * math.ulp(max(1.0, abs(xi)))
    below = residual(xi - h, _backward_minimal(raw, xi - h, 1, start, seed=1234)[0])
    above = residual(xi + h, _backward_minimal(raw, xi + h, 1, start, seed=1234)[0])
    at_xi = abs(residual(xi, phi[1]))
    if below * above > 0.0:
        raise NotMinimal(
            f"two-term condition violated at {xi!r} (residual {at_xi:.3e}, same sign at "
            f"xi -+ {h:.1e}): the physical solution there is dominant, so xi is not a "
            "spectral point"
        )
    return EigenvectorResult(
        phi=phi,
        bargmann_partial_sums=sums,
        bargmann_saturated=saturated,
        two_term_residual=at_xi,
    )


def _check_same_model(rec: MonicRecurrence, raw: RawRecurrence) -> None:
    """rec must be the monic form of raw; a coefficient-prefix comparison
    catches mismatched pairs before they produce silent nonsense."""
    from .recurrence import to_monic

    derived = to_monic(raw, probe_terms=8)
    probe = 8 if rec.n_cap is None else min(8, rec.n_cap)
    c_a, lam_a = rec.coeff_arrays(probe)
    c_b, lam_b = derived.coeff_arrays(probe)
    scale_c = np.maximum(1.0, np.abs(c_a))
    scale_l = np.maximum(1.0, np.abs(lam_a))
    if np.any(np.abs(c_a - c_b) > 1e-6 * scale_c) or np.any(
        np.abs(lam_a - lam_b) > 1e-6 * scale_l
    ):
        raise ValueError("rec is not the monic form of raw: coefficient prefixes disagree")


def _backward_minimal(
    raw: RawRecurrence, xi: float, n_max: int, start: int, seed: int
) -> np.ndarray:
    """Ratios rho_n = phi_n / phi_{n-1}, n = 1..n_max, of the minimal solution,
    by the continued fraction rho_n = -b_n / (a_n + rho_{n+1}) (Gautschi,
    SIAM Rev. 9, 1967) run down from a random tail ratio at `start`.  Each
    rho is a plain double: no rescaling, at any depth.  An exact zero
    denominator (phi_{n-1} = 0) is stepped past by one ulp."""
    rng = np.random.default_rng(seed)
    idx = np.arange(start + 1, dtype=np.int64)
    a_vals = np.asarray(raw.a(idx, xi), dtype=float)
    b_vals = np.asarray(raw.b(np.maximum(idx, 1)), dtype=float)
    if np.any(b_vals[1:] == 0.0):
        raise ValueError("b_n must be nonzero for n >= 1")

    hi, cur = float(rng.uniform(0.25, 1.0)), float(rng.uniform(0.25, 1.0))
    rho = hi / cur  # phi_{start+1} / phi_start
    out = np.empty(n_max)
    for n, a_n, b_n in zip(range(start, 0, -1), a_vals[:0:-1].tolist(), b_vals[:0:-1].tolist()):
        denom = a_n + rho
        rho = -b_n / (denom if denom != 0.0 else math.ulp(a_n))
        if n <= n_max:
            out[n - 1] = rho
    return out
