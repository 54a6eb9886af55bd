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
Measure weights sum squares of orthonormal polynomials forward.  Spectral
masses and eigenvectors share one minimal solution, forward up to the
Gershgorin dominance index and backward ratios past it; none of these needs
rescaling either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, NotMinimal, PoleHit, PrecisionExhausted
from .flows import _bisect_tol, zeros_of
from .recurrence import (
    _BLOCK_SIZE,
    MonicRecurrence,
    RawRecurrence,
    _backward_fraction,
    _sturm_counts,
    _tail_cut,
)

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

# _minimal_solution accepts xi as a level when the Sturm count steps between
# xi -+ this many ulps of the scale of the rows the solution lives on.
_LEVEL_ULPS = 4


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
        """sum_k M_k / (z - x_k), the partial fraction form of E at this degree.
        PoleHit is raised when z is a node exactly."""
        hit = np.flatnonzero(self.nodes == z)
        if hit.size:
            raise PoleHit(f"stieltjes({z!r}) hit the node x_{{{self.degree},{hit[0] + 1}}} exactly")
        return float(np.sum(self.weights / (z - self.nodes)))

    def moment(self, j: int) -> float:
        """j-th moment sum_k M_k x_k**j."""
        return float(np.sum(self.weights * self.nodes ** j))


@dataclass(frozen=True)
class SpectralMass:
    """Jump of the limiting measure at a spectral point xi:
    mass = 1 / sum_l P_l(xi)^2 / n_l, with n_l = lambda_1 ... lambda_l.

    tail_estimate is the last term summed, P_K(xi)^2 / n_K, where the
    minimal solution was cut below one rounding; every later term is
    smaller, and the relative error of mass is about mass * tail_estimate.
    On a whole table nothing is cut: K is its last row.
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


class _Linspace:
    """np.linspace(start, stop, size) read by index, as _sign_flips reads its
    grid, without holding the points.  Point i is i * step + start with
    step = (stop - start) / (size - 1), and the last point is stop: bitwise
    the values of np.linspace, which computes arange * step + start and then
    sets the end point.  Where step underflows to 0, point i is
    i / (size - 1) * (stop - start) + start, numpy's branch for that case."""

    def __init__(self, start: float, stop: float, size: int):
        self.start, self.stop, self.size = float(start), float(stop), int(size)
        self.step = (self.stop - self.start) / (self.size - 1)

    def __getitem__(self, idx: np.ndarray) -> np.ndarray:
        if self.step == 0.0:
            x = idx / (self.size - 1) * (self.stop - self.start) + self.start
        else:
            x = idx * self.step + self.start
        x[idx == self.size - 1] = self.stop
        return x


def _scan_stride(points: int, zeros: int) -> int:
    """Subgrid stride K of _sign_flips: counts at points / K subgrid points
    and F at about K points per zero cost least at K = sqrt(points / zeros)."""
    return max(1, math.isqrt(points // max(zeros, 1)))


def _sign_flips(rec: MonicRecurrence, grid: np.ndarray | _Linspace, depth: int) -> np.ndarray:
    """The points grid[i] of an increasing, evenly spaced grid (np.linspace,
    or _Linspace) where F at `depth` is > 0 while F(grid[i + 1]) < 0:
    bitwise the flips of _backward_fraction on the whole grid, in about
    depth * sqrt(points * zeros) time and sqrt(points * zeros) memory
    instead of depth * points and points.  The grid is read only through
    grid.size and arrays of non-negative indices, so a _Linspace never holds
    its points.

    F falls through the zeros of P_depth and jumps from - to + at its poles,
    so every flip's cell holds a zero.  Rounding moves both: each step of
    the count and of the backward fraction is exact for a Jacobi matrix whose
    entries moved by one rounding of |c_k - x| and of sqrt(lambda_k), so by
    Weyl's inequality both see zeros and poles within eps/2 * scale of the
    true ones (Barth, Martin & Wilkinson, Numer. Math. 9, 1967); `reach`
    spares a factor 8.  On cells wider than 2 * reach, a flip then lies
    within one point of a subgrid cell whose count of P_depth rises, or of
    an end of the grid, and F is evaluated only there, by the same
    elementwise arithmetic.  A finer grid may see a pole's rounding as a
    flip, which no count of P_depth finds, so there every point is scanned,
    as it is where the stride is below 3 and counting would cost more than
    it saves.  The points go through in batches of at most 2 * _BLOCK_SIZE.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    c, lam = rec.coeff_arrays(depth)
    n = grid.size
    x_ends = grid[np.array([0, n - 1])]
    scale = float(np.max(np.abs(x_ends))) + float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam)))
    reach = 4.0 * _EPS * scale
    spans = [(0, n)]
    if x_ends[1] - x_ends[0] > 2.0 * reach * (n - 1):
        ends = _sturm_counts(c, lam, x_ends)
        stride = _scan_stride(n, int(ends[1] - ends[0]))
        if stride >= 3:
            at = np.append(np.arange(0, n - 1, stride), n - 1)
            counts = np.concatenate((ends[:1], _sturm_counts(c, lam, grid[at[1:-1]]), ends[1:]))
            hot = np.flatnonzero(np.diff(counts) > 0)
            # each hot cell and each end of the grid, one point wider
            starts = np.maximum(np.concatenate(([0], at[hot] - 1, [n - 2])), 0)
            stops = np.minimum(np.concatenate(([2], at[hot + 1] + 2, [n])), n)
            gap = np.flatnonzero(starts[1:] > stops[:-1])
            spans = zip(starts[np.r_[0, gap + 1]].tolist(), stops[np.r_[gap, -1]].tolist())
    flips = [np.empty(0)]
    for idx in _batches(spans):
        x = grid[idx]
        f = _backward_fraction(c, lam, x)
        flips.append(x[:-1][(f[:-1] > 0.0) & (f[1:] < 0.0) & (idx[1:] - idx[:-1] == 1)])
    return np.concatenate(flips)


def _batches(spans):
    """Grid indices of the sorted, disjoint index spans [a, b), cut into
    pieces of at most _BLOCK_SIZE + 1 that overlap by one index, so every
    pair of adjacent indices lies in exactly one piece, and gathered into
    batches of at most 2 * _BLOCK_SIZE + 1."""
    batch, size = [], 0
    for a, b in spans:
        for k in range(a, b - 1, _BLOCK_SIZE):
            piece = np.arange(k, min(k + _BLOCK_SIZE + 1, b))
            batch.append(piece)
            size += piece.size
            if size >= _BLOCK_SIZE:
                yield np.concatenate(batch)
                batch, size = [], 0
    if batch:
        yield np.concatenate(batch)


def _tails(x: float, c: list, lam: list):
    """Yield the tails t_k = (x - c_k) - lambda_{k+1} / t_{k+1} of the
    backward continued fraction, k = len(c) - 1 down to 0, in plain floats,
    for rows c_k, lambda_k = c[k], lam[k].  The tail past the last row is
    cut (lambda / inf = 0 starts t = x - c_last) and lambda / +-0 gives
    +-inf: the IEEE operations of _backward_fraction, so F = -t_0 is bitwise
    its value."""
    t = math.inf
    for ck, lk in zip(reversed(c), reversed(lam[1:] + [0.0])):
        t = (x - ck) - (lk / t if t else math.copysign(math.inf, t))
        yield t


def _eval_F_point(rec: MonicRecurrence, x: float, depth: int) -> float:
    """F(x) at `depth` by _tails; +-inf at a pole and at x = +-inf."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = float(x)
    if math.isnan(x):
        raise ValueError("the continued fraction needs a point that is not NaN")
    c, lam = rec.coeff_arrays(depth)
    for t in _tails(x, c.tolist(), lam.tolist()):
        pass
    return -t


def eval_E(rec: MonicRecurrence, x: float, depth: int) -> float:
    """Depth-truncated Stieltjes fraction E(x) = P^(1)_{depth-1}(x)/P_depth(x).

    E has its poles at the zeros of P_depth, i.e. at the finite-degree
    spectrum approximants; depth 1 gives 1/(x - c_0).  Computed as -1/F from
    the backward fraction; PoleHit is raised when F(x) is exactly zero.  At
    x = +-inf E is its limit +-0; at NaN ValueError is raised.
    """
    f = _eval_F_point(rec, x, depth)
    if f == 0.0:
        raise PoleHit(f"E({x!r}) hit a zero of P_{depth} exactly")
    return -1.0 / f


def eval_F(rec: MonicRecurrence, x: float, depth: int) -> float:
    """Depth-truncated quantization function F(x) = -P_depth(x)/P^(1)_{depth-1}(x).

    Backward evaluation of the depth-term continued fraction
    (c_0 - x) + lambda_1/((x - c_1) - lambda_2/(...)), innermost term first;
    its zeros are the zeros of P_depth and E*F = -lambda_0 = -1 at matched
    depth.  PoleHit is raised when F(x) is infinite at a finite x (x at a
    zero of P^(1)_{depth-1} to double precision).  At x = +-inf F is its
    limit -+inf; at NaN ValueError is raised.
    """
    f = _eval_F_point(rec, x, depth)
    if math.isinf(f) and math.isfinite(x):
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
    threshold raises PrecisionExhausted instead of flushing to zero, as
    does a degree past the coagulation horizon.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = zeros_of(rec, n, n).zeros
    if n == 1:
        return DiscreteMeasure(nodes=nodes, weights=np.array([1.0]), degree=1)
    c, lam = rec.coeff_arrays(n)

    # Once a zero flow has converged to within bisection resolution of its
    # limit, the Christoffel polynomial varies by orders of magnitude across
    # one node-location ulp and the finite-degree weight is no longer encoded
    # in double precision at all.  Detect that by re-evaluating the sums a few
    # node tolerances away, in the same pass: in the stable regime they
    # barely move.
    h = 8.0 * _bisect_tol(nodes)
    sums, probe = np.split(_christoffel_sums(c, lam, np.concatenate((nodes, nodes + h))), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(np.log2(probe / sums))
    if np.any(drift > 0.07):  # log2(1.05)
        k = int(np.argmax(drift))
        raise PrecisionExhausted(
            f"degree {n} is past the coagulation horizon (node {k + 1} weight varies "
            f"2**{float(drift[k]):.1f}-fold across one node ulp); the finite-degree "
            "measure is not resolvable in double precision here, reduce the degree"
        )

    with np.errstate(under="ignore"):
        weights = np.ldexp(1.0 / sums, -128)
    dead = np.flatnonzero(~(weights > 0.0))
    if dead.size:
        k = int(dead[0])
        raise PrecisionExhausted(
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


def _minimal_solution(rec: MonicRecurrence, xi: float, depth: int, keep: int = 0):
    """Minimal solution p~_0 .. p~_K (K >= keep) of the orthonormal recurrence
    at a level xi, scaled like _orthonormal; None when xi is not a level.

    Olver's forward-backward scheme (J. Res. NBS 71B, 1967) on the first
    `depth` coefficients, clamped to a table's length.  The dominance index m
    is the first k from which |c_k - xi| >= sqrt(lambda_k) + sqrt(lambda_{k+1})
    holds for every materialised row.  The head p~_0 .. p~_m runs forward
    from the two-term condition.  Past m the ratios p_k / p_{k-1} =
    sqrt(lambda_k) / t_k, with t_k = (xi - c_k) - lambda_{k+1} / t_{k+1}
    (Gautschi, SIAM Rev. 9, 1967), are bounded by sqrt(lambda_k) /
    (|c_k - xi| - sqrt(lambda_{k+1})) <= 1, and the backward run starts at
    the first K >= keep where the product of these bounds is below eps.  A
    whole table (depth reaching its length) is a finite Jacobi matrix with
    lambda_depth = 0 and no tail: its last row is judged like the others and
    the backward run starts there, at K = depth - 1.
    ValueError is raised at a non-finite xi, and when depth holds no such K:
    then a larger depth is advised only when some row is dominated; where
    none is (c = 0, lambda = 1 on its continuous spectrum), it says so.

    The verdict: the rows past m freeze the Sturm count, so xi is a level
    when the count of P_{K+1} steps between xi -+ h.  h is _LEVEL_ULPS ulps
    of max(1, |xi|, the Gershgorin extent of rows 0 .. m+1 about xi), since
    the count's rounding scales with those rows (as in LAPACK dstebz).
    """
    if not math.isfinite(xi):
        raise ValueError(f"{xi!r} is not a finite point, so it is not a level")
    whole = rec.n_cap is not None and depth >= rec.n_cap
    if whole:
        depth = rec.n_cap
    c, lam = rec.coeff_arrays(depth)
    root = np.sqrt(lam)
    if whole:  # lambda_depth = 0 past the table's end, so its last row is judged too
        root = np.append(root, 0.0)
    gap = np.abs(c - xi)
    radius = root[:-1] + root[1:]
    m, top = _tail_cut(gap, root, math.log2(_EPS), keep)
    if whole and depth > keep:
        top = depth - 1  # a finite Jacobi matrix has no tail to bound
        m = min(m, top)
    elif top is None:
        if np.all(gap[: radius.size] < radius):
            raise ValueError(
                f"the minimal solution at {xi!r} does not fall below rounding: no row within "
                f"depth {depth} is Gershgorin dominated at {xi!r}"
            )
        raise ValueError(
            f"the minimal solution at {xi!r} does not fall below rounding within depth "
            f"{depth}; raise l_max (masses) or n_max (eigenvectors)"
        )

    h = _LEVEL_ULPS * math.ulp(max(1.0, abs(xi), float(np.max(gap[: m + 2] + radius[: m + 2]))))
    below, above = _sturm_counts(c[: top + 1], lam[: top + 1], np.array([xi - h, xi + h]))
    if above == below:
        return None

    rows = slice(m + 1, top + 1)  # t_K .. t_{m+1}, the tail past K cut
    tails = _tails(xi, c[rows].tolist(), lam[rows].tolist())
    ratios = [r / t for r, t in zip(root[rows][::-1].tolist(), tails)]
    head = np.fromiter(_orthonormal(c[: m + 1], lam[: m + 1], xi), float, m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate((head, head[-1] * np.cumprod(ratios[::-1])))


def spectral_mass(rec: MonicRecurrence, xi: float, l_max: int = 1000) -> SpectralMass:
    """Mass of the limiting measure at a spectral point xi,
    mass = 1 / sum_l P_l(xi)^2 / n_l, with n_l = lambda_1 ... lambda_l.

    The sum runs over _minimal_solution on the first l_max + 1 coefficients,
    clamped to a table's length.  Divergent is raised when its Sturm-count
    verdict finds no level at xi.  ValueError is raised at a non-finite xi
    and when the solution's tail does not fall below rounding within l_max
    (displaced kappa = 16, level 300, needs a larger l_max), and
    PrecisionExhausted when the mass is below the double range.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    xi = float(xi)
    p = _minimal_solution(rec, xi, l_max + 1)
    if p is None:
        raise Divergent(f"{xi!r} is not a spectral point: the zero count does not step across it")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(p * p))
    mass = math.ldexp(1.0 / total, -128)  # undo the 2**-128 scale of the seed
    if not mass > 0.0:
        raise PrecisionExhausted(f"the mass at {xi!r} lies below the double range")
    return SpectralMass(xi=xi, mass=mass, tail_estimate=float(p[-1]) ** 2 * 2.0**128)


def reconstruct_eigenvector(
    rec: MonicRecurrence, raw: RawRecurrence, xi: float, n_max: int
) -> EigenvectorResult:
    """Expansion coefficients phi_0..phi_{n_max} of the state at a level xi,
    normalized to phi_0 = 1.

    _minimal_solution runs on the first max(2 n_max, n_max + 32)
    coefficients with its backward run started past n_max, and its p maps to
    the raw basis by the rescaling of to_monic: phi_n / phi_{n-1} =
    alpha_{n-1} sqrt(lambda_n) p_n / p_{n-1}, alpha_k = a_k(0) - a_k(1).
    NotMinimal is raised at a non-finite xi, when the Sturm-count verdict
    finds no level at xi, when no tail falls below rounding within that
    depth, and when the Bargmann partial sums sum |phi_n|^2 n! do not
    saturate by n_max.  The head runs forward from the two-term condition
    phi_1 + a_0(xi) phi_0 = 0, so two_term_residual, its relative size, is
    at rounding.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xi = float(xi)
    _check_same_model(rec, raw)
    try:
        p = _minimal_solution(rec, xi, max(2 * n_max, n_max + 32), keep=n_max + 1)
    except ValueError as exc:
        raise NotMinimal(str(exc)) from exc
    if p is None:
        raise NotMinimal(f"{xi!r} is not a level: the zero count does not step across it")
    n = np.arange(n_max + 1)
    alpha = np.asarray(raw.a(n, 0.0), dtype=float) - np.asarray(raw.a(n, 1.0), dtype=float)
    step = alpha[:-1] * np.sqrt(rec.coeff_arrays(n_max + 1)[1][1:])
    ratio = p[: n_max + 1] / p[0]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        phi = ratio * np.cumprod(np.r_[1.0, step])
        sums = np.cumsum((ratio * np.cumprod(np.r_[1.0, step * np.sqrt(n[1:])])) ** 2)

    head = sums[-min(max(4, n_max // 8), n_max) - 1]
    if not (np.isfinite(sums[-1]) and head > 0.0 and sums[-1] - head <= 1e-10 * sums[-1]):
        raise NotMinimal(f"Bargmann partial sums did not saturate by n_max={n_max} at {xi!r}")
    a0 = float(np.asarray(raw.a(np.array([0]), xi), dtype=float)[0])
    return EigenvectorResult(
        phi=phi,
        bargmann_partial_sums=sums,
        bargmann_saturated=True,
        two_term_residual=abs(phi[1] + a0) / max(1.0, abs(phi[1]), abs(a0)),
    )


def _check_same_model(rec: MonicRecurrence, raw: RawRecurrence) -> None:
    """rec must be the monic form of raw: the eigenvector takes lambda from
    rec and alpha from raw, so a coefficient-prefix comparison catches
    mismatched pairs before they produce silent nonsense."""
    from .recurrence import to_monic

    derived = to_monic(raw)
    probe = 8 if rec.n_cap is None else min(8, rec.n_cap)
    c_a, lam_a = rec.coeff_arrays(probe)
    c_b, lam_b = derived.coeff_arrays(probe)
    scale_c = np.maximum(1.0, np.abs(c_a))
    scale_l = np.maximum(1.0, np.abs(lam_a))
    if np.any(np.abs(c_a - c_b) > 1e-6 * scale_c) or np.any(
        np.abs(lam_a - lam_b) > 1e-6 * scale_l
    ):
        raise ValueError("rec is not the monic form of raw: coefficient prefixes disagree")
