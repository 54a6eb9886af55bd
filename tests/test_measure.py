import math
import re
import sys
from fractions import Fraction

from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from zeroflow import (
    DiscreteMeasure,
    Divergent,
    MonicRecurrence,
    NotMinimal,
    PoleHit,
    PrecisionExhausted,
    RabiParams,
    RawRecurrence,
    displaced_recurrence,
    eval_E,
    eval_F,
    partial_fractions,
    rabi_raw_recurrence,
    rabi_recurrence,
    reconstruct_eigenvector,
    run_flows,
    spectral_mass,
    zeros_of,
)
from zeroflow import measure
from zeroflow.measure import _Linspace, _sign_flips
from zeroflow.recurrence import _BLOCK_SIZE, _backward_fraction, _sturm_counts

from conftest import hermite_recurrence, random_recurrence, wide_range_recurrence


# -- continued fractions -----------------------------------------------------


def test_depth_one_forms():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))  # c_0 = 0.4
    x = 5.0
    assert eval_E(rec, x, 1) == pytest.approx(1.0 / (x - 0.4), abs=0)
    # F carries the sign of the monic continued fraction: (c_0 - x) - tail
    assert eval_F(rec, x, 1) == pytest.approx(0.4 - x, abs=0)


def test_identity_EF_is_minus_one():
    for rec in (displaced_recurrence(0.2), rabi_recurrence(RabiParams(0.2, 0.4))):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = float(rng.uniform(-3.0, 40.0))
            for depth in (1, 3, 17, 64):
                prod = eval_E(rec, x, depth) * eval_F(rec, x, depth)
                assert prod == pytest.approx(-1.0, rel=1e-12)


def test_F_changes_sign_across_ground_state():
    rec = displaced_recurrence(0.2)
    lo = eval_F(rec, -0.04 - 1e-6, 120)
    hi = eval_F(rec, -0.04 + 1e-6, 120)
    assert np.sign(lo) != np.sign(hi)


def test_E_matches_partial_fractions_at_same_depth():
    rec = displaced_recurrence(4.0)
    n = 25
    m = partial_fractions(rec, n)
    for z in (m.nodes.max() + 1.0, m.nodes.max() + 7.3, m.nodes.min() - 2.0):
        assert eval_E(rec, float(z), n) == pytest.approx(m.stieltjes(float(z)), rel=1e-10)
    # also for the symmetric Hermite-style model above its zero range
    herm = hermite_recurrence()
    mh = partial_fractions(herm, 6)
    z = float(mh.nodes.max() + 1.5)
    assert eval_E(herm, z, 6) == pytest.approx(mh.stieltjes(z), rel=1e-10)


def test_pole_hit_raises():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    with pytest.raises(PoleHit):
        eval_E(rec, 0.4, 1)  # x = c_0 is the depth-1 pole exactly
    c1 = float(rec.coeff_arrays(2)[0][1])
    with pytest.raises(PoleHit):
        eval_F(rec, c1, 2)  # P^(1)_1 = x - c_1 = 0, F = +-inf
    assert eval_E(rec, c1, 2) == 0.0  # E = P^(1)_1 / P_2 vanishes there


def test_E_and_F_at_infinity_are_their_limits():
    # F = -P_d / P^(1)_{d-1} ~ -x and E = -1/F ~ 1/x: no pole at +-inf
    rec = displaced_recurrence(0.5)
    assert eval_F(rec, math.inf, 5) == -math.inf
    assert eval_F(rec, -math.inf, 5) == math.inf
    for x, sign in ((math.inf, 1.0), (-math.inf, -1.0)):
        e = eval_E(rec, x, 5)
        assert e == 0.0 and math.copysign(1.0, e) == sign


@pytest.mark.parametrize("fn", [eval_E, eval_F], ids=["E", "F"])
def test_E_and_F_at_nan_raise(fn):
    with pytest.raises(ValueError, match="NaN"):
        fn(displaced_recurrence(0.5), math.nan, 5)


def _bits(x):
    return np.float64(x).tobytes()


@st.composite
def _ef_points(draw):
    """(rec, depth, x): a model, a depth, and a point drawn from the range of
    its zeros, or exactly on a diagonal entry c_k, a zero of P_depth or a
    zero of P^(1)_{depth-1}, or +-0 on a model whose c are 0."""
    kind = draw(st.sampled_from(["rabi", "displaced", "random", "wide", "zero-diagonal"]))
    depth = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rabi":
        kappa, delta = draw(st.floats(0.05, 5.0)), draw(st.floats(0.0, 1.0))
        parity = draw(st.sampled_from("+-"))
        rec = rabi_recurrence(RabiParams(kappa=kappa, delta=delta, parity=parity))
    elif kind == "displaced":
        rec = displaced_recurrence(draw(st.floats(0.05, 5.0)))
    elif kind == "random":
        rec = random_recurrence(rng, depth)
    elif kind == "wide":
        rec = wide_range_recurrence(rng, depth)
    else:
        rec = MonicRecurrence.from_arrays(np.zeros(depth), 2.0 ** rng.integers(-2, 3, depth - 1))
    c, lam = rec.coeff_arrays(depth)
    zeros = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))
    poles = eigvalsh_tridiagonal(c[1:], np.sqrt(lam[2:])) if depth > 1 else zeros
    where = draw(st.sampled_from(["range", "diagonal", "zero", "pole", "signed-zero"]))
    if where == "range":
        x = draw(st.floats(float(zeros[0]) - 1.0, float(zeros[-1]) + 1.0))
    elif where == "signed-zero":
        x = draw(st.sampled_from([0.0, -0.0]))
    else:
        ends = {"diagonal": c, "zero": zeros, "pole": poles}[where]
        x = float(ends[draw(st.integers(0, ends.size - 1))])
    return rec, depth, x


@settings(max_examples=200, deadline=None)
@given(_ef_points())
def test_E_and_F_are_bitwise_the_backward_fraction(case):
    # eval_F and eval_E run the fraction in plain floats: the same IEEE
    # operations as the vectorized kernel, with lambda / +-0 = +-inf
    rec, depth, x = case
    want = float(_backward_fraction(*rec.coeff_arrays(depth), np.array([x]))[0])
    assert _bits(measure._eval_F_point(rec, x, depth)) == _bits(want)
    if math.isinf(want):
        with pytest.raises(PoleHit):
            eval_F(rec, x, depth)
    else:
        assert _bits(eval_F(rec, x, depth)) == _bits(want)
    if want == 0.0:
        with pytest.raises(PoleHit):
            eval_E(rec, x, depth)
    else:
        assert _bits(eval_E(rec, x, depth)) == _bits(-1.0 / want)


@pytest.mark.parametrize("x, f", [(-0.0, -math.inf), (0.0, math.inf)])
def test_F_divides_by_a_signed_zero_tail(x, f):
    # c = 0: the innermost tail is x - 0 = +-0, lambda_1 / +-0 = +-inf, and
    # F = -(x - (lambda_1 / t)) takes the sign of the zero
    rec = MonicRecurrence.from_arrays([0.0, 0.0], [1.0])
    assert measure._eval_F_point(rec, x, 2) == f
    assert _backward_fraction(*rec.coeff_arrays(2), np.array([x]))[0] == f
    with pytest.raises(PoleHit):
        eval_F(rec, x, 2)


def _mp_terminal(rec, x, depth):
    """(P_depth(x), P^(1)_{depth-1}(x)) at 50 digits by the forward recurrence
    on the model's own double coefficients; mpmath exponents do not overflow."""
    c, lam = rec.coeff_arrays(depth)
    c, lam = c.tolist(), lam.tolist()
    with mpmath.workdps(50):
        x = mpmath.mpf(x)

        def poly(cs, ls):
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for ck, lk in zip(cs, ls):
                prev, cur = cur, (x - ck) * cur - lk * prev
            return cur

        return poly(c, lam), poly(c[1:], lam[1:])


def _assert_matches_mpmath(rec, x, depth):
    p, q = _mp_terminal(rec, x, depth)
    f, e = eval_F(rec, x, depth), eval_E(rec, x, depth)
    assert math.isfinite(f) and math.isfinite(e)
    assert abs(f - (-p / q)) <= 1e-12 * abs(p / q)
    assert abs(e - q / p) <= 1e-12 * abs(q / p)
    return p


EF_MODELS = (
    displaced_recurrence(0.5),
    rabi_recurrence(RabiParams(kappa=0.2, delta=0.4)),
    rabi_recurrence(RabiParams(kappa=3.0, delta=0.7, parity="-")),
)


@pytest.mark.parametrize("depth", [1, 2, 17, 300, 2500])
@pytest.mark.parametrize("rec", EF_MODELS, ids=lambda r: r.description)
def test_E_and_F_match_mpmath(rec, depth):
    rng = np.random.default_rng(depth)
    for x in rng.uniform(-10.0, 300.0, size=6):
        p = _assert_matches_mpmath(rec, float(x), depth)
    if depth == 2500:
        assert abs(p) > sys.float_info.max  # the fraction never forms P_depth


@pytest.mark.parametrize("rec", EF_MODELS, ids=lambda r: r.description)
def test_E_and_F_at_diagonal_entries(rec):
    # x = c_k zeroes the term x - c_k of the fraction; x = c_{d-1} makes the
    # innermost tail exactly 0, which must pass through inf to the finite limit
    depth = 17
    c, _ = rec.coeff_arrays(depth)
    for k in (2, 5, 9, depth - 1):
        _assert_matches_mpmath(rec, float(c[k]), depth)


def test_inner_exact_hit_gives_finite_limit():
    # at x = 0 the tail t_5 = 0 - (-2) = 2, then t_4 = 0 - (-1) - 2/2 = 0
    # exactly: lambda_4 / 0 = inf, and the next step's lambda_3 / inf = 0
    rec = MonicRecurrence.from_arrays(
        [0.5, 1.5, 2.5, 3.5, -1.0, -2.0], [1.0, 1.0, 1.0, 1.0, 2.0], description="hit"
    )
    _assert_matches_mpmath(rec, 0.0, 6)


@pytest.mark.parametrize(
    "rec, depth, x_min, x_max",
    [
        (displaced_recurrence(0.5), 161, -0.3, 100.0),
        (rabi_recurrence(RabiParams(kappa=0.2, delta=0.4)), 120, -1.0, 100.0),
        (rabi_recurrence(RabiParams(kappa=3.0, delta=0.4)), 400, -10.0, 300.0),
    ],
    ids=["displaced-0.5", "rabi-0.2", "rabi-3"],
)
def test_F_sign_matches_sturm_parity(rec, depth, x_min, x_max):
    # sign F = (-1)**(N_d(x) + N^(1)_{d-1}(x)), with N the zeros-below-x
    # counts of P_d and P^(1)_{d-1} (the kernel of count_zeros_below)
    grid = np.linspace(x_min, x_max, 200_001)
    sign = np.sign(_backward_fraction(*rec.coeff_arrays(depth), grid))
    c, lam = rec.coeff_arrays(depth)
    ca, lama = rec.associated(1).coeff_arrays(depth - 1)
    parity = (_sturm_counts(c, lam, grid) + _sturm_counts(ca, lama, grid)) % 2
    expect = np.where(parity == 0, 1.0, -1.0)
    assert np.count_nonzero(sign[1:] != sign[:-1]) >= 5
    assert np.count_nonzero((sign != expect) & (sign != 0)) == 0


def test_sign_scan_misses_high_levels():
    # levels ~20-40 exist in [20, 40] but double-precision sign changes of F
    # see only a handful: the invisibility regime
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    grid = np.linspace(20.0, 40.0, 40_001)
    f = _backward_fraction(*rec.coeff_arrays(120), grid)
    s = np.sign(f)
    ok = s != 0
    changes = int(np.count_nonzero((s[:-1] != s[1:]) & ok[:-1] & ok[1:]))
    true_count = int(
        np.count_nonzero((run_flows(rec, 45, tol=1e-9).xi >= 20.0))
    )
    assert true_count >= 18
    assert changes < true_count  # far fewer visible sign changes than levels


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(_FINITE, _FINITE, st.one_of(st.integers(2, 100), st.integers(2, 10**6)))
def test_linspace_is_bitwise_np_linspace(a, b, points):
    # i * step + start, then the end point set to stop, as np.linspace;
    # a range wider than the double range has no finite step and no grid
    x_min, x_max = min(a, b), max(a, b)
    assume(x_max > x_min and math.isfinite(x_max - x_min))
    # near the top of the double range the last point's i * step overflows
    # before it is set to stop, in np.linspace as well
    with np.errstate(over="ignore"):
        got = _Linspace(x_min, x_max, points)[np.arange(points)]
        want = np.linspace(x_min, x_max, points)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "x_min, x_max, points",
    [(0.0, 5e-324, 3), (-5e-324, 5e-324, 7), (1e-320, 2e-320, 10**6), (-1e-322, 0.0, 100)],
)
def test_linspace_whose_step_underflows_follows_np_linspace(x_min, x_max, points):
    # step = delta / (points - 1) is 0: numpy scales by i / (points - 1)
    # and then by delta instead, and so does _Linspace
    grid = _Linspace(x_min, x_max, points)
    assert grid.step == 0.0
    got = grid[np.arange(points)]
    assert got.tobytes() == np.linspace(x_min, x_max, points).tobytes()
    assert got[0] == x_min and got[-1] == x_max


@pytest.mark.parametrize(
    "rec, depth, x_min, x_max",
    [
        (displaced_recurrence(0.5), 161, -0.3, 100.0),
        (rabi_recurrence(RabiParams(kappa=1.0, delta=0.4, parity="-")), 120, -2.0, 50.0),
    ],
    ids=["displaced-0.5", "rabi-1"],
)
def test_sign_flips_through_the_lazy_grid_equal_the_array_grid(rec, depth, x_min, x_max):
    points = 10**6 + 1
    want = _sign_flips(rec, np.linspace(x_min, x_max, points), depth)
    got = _sign_flips(rec, _Linspace(x_min, x_max, points), depth)
    assert want.size >= 5
    assert got.tobytes() == want.tobytes()


def _full_scan_flips(rec, grid, depth):
    f = _backward_fraction(*rec.coeff_arrays(depth), grid)
    return grid[:-1][(f[:-1] > 0.0) & (f[1:] < 0.0)]


def _stride(stride):
    """_sign_flips with its subgrid stride fixed (None: its own)."""
    scan_stride = measure._scan_stride
    return mock.patch.object(measure, "_scan_stride", lambda *a: stride or scan_stride(*a))


@st.composite
def _flip_scans(draw):
    """(rec, depth, grid, stride): a model, a depth, and a grid over part of
    the range of its zeros, finer than the count's rounding about a zero or
    a pole, or with a point of a subgrid of the given stride (None:
    _sign_flips's own) exactly on a zero or a pole of F."""
    kind = draw(st.sampled_from(["rabi", "displaced", "random", "wide", "integer", "exact-hit"]))
    depth = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rabi":
        kappa, delta = draw(st.floats(0.05, 5.0)), draw(st.floats(0.0, 1.0))
        parity = draw(st.sampled_from("+-"))
        rec = rabi_recurrence(RabiParams(kappa=kappa, delta=delta, parity=parity))
    elif kind == "displaced":
        rec = displaced_recurrence(draw(st.floats(0.05, 5.0)))
    elif kind == "random":
        rec = random_recurrence(rng, depth)
    elif kind == "wide":
        rec = wide_range_recurrence(rng, depth)
    elif kind == "integer":
        slope = draw(st.sampled_from([0.0, 1.0]))
        c = rng.integers(-2, 3, depth).astype(float) + slope * np.arange(depth)
        rec = MonicRecurrence.from_arrays(c, 2.0 ** rng.integers(0, 3, depth - 1))
    else:
        rec = MonicRecurrence.from_arrays(np.zeros(depth), np.ones(depth - 1))
    c, lam = rec.coeff_arrays(depth)
    zeros = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))
    poles = eigvalsh_tridiagonal(c[1:], np.sqrt(lam[2:])) if depth > 1 else zeros
    lo, hi = float(zeros[0]) - 1.0, float(zeros[-1]) + 1.0
    points = draw(st.one_of(st.integers(2, 200), st.integers(201, 50_000)))
    mode = draw(st.sampled_from(["span", "fine", "placed"]))
    ends = poles if draw(st.booleans()) else zeros
    z = float(ends[draw(st.integers(0, ends.size - 1))])
    if mode == "span":
        a, b = sorted(draw(st.floats(0.0, 1.0)) for _ in range(2))
        if not b > a:
            b = 1.0
        return rec, depth, np.linspace(lo + a * (hi - lo), lo + b * (hi - lo), points), None
    if mode == "fine":
        half = 10.0 ** draw(st.floats(-16.0, -12.0)) * max(1.0, abs(z))
        return rec, depth, np.linspace(z - half, z + half, points), None
    stride = draw(st.integers(3, 60))
    at = stride * draw(st.integers(0, (points - 1) // stride))
    h = (hi - lo) * 10.0 ** draw(st.floats(-4.0, 0.0)) / points
    return rec, depth, z + h * (np.arange(points) - at), stride


@settings(max_examples=80, deadline=None)
@given(_flip_scans())
def test_sign_flips_equal_the_full_grid_scan(case):
    # F evaluated near the hot subgrid cells only finds the + to - flips of
    # the full scan, bitwise, on any subgrid stride and grid spacing
    rec, depth, grid, stride = case
    want = _full_scan_flips(rec, grid, depth)
    with _stride(stride):
        got = _sign_flips(rec, grid, depth)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("depth", [299, 300])
@pytest.mark.parametrize("stride", [4, 16])
def test_sign_flips_with_subgrid_points_on_exact_hits(depth, stride):
    # c = 0, lambda = 1: 0 and 1 are zeros of P_299 and poles of F at depth
    # 300 (zeros of P^(1)_299), hit exactly on the dyadic grid, where the
    # subgrid takes every stride-th point from -3
    rec = MonicRecurrence.from_arrays(np.zeros(300), np.ones(299))
    grid = 2.0**-10 * (np.arange(6145) - 3072)
    sub = _backward_fraction(*rec.coeff_arrays(depth), grid[::stride])
    assert np.count_nonzero((sub == 0.0) | np.isinf(sub)) >= 2
    with _stride(stride):
        got = _sign_flips(rec, grid, depth)
    assert got.tobytes() == _full_scan_flips(rec, grid, depth).tobytes()


@pytest.mark.parametrize(
    "rec",
    [displaced_recurrence(0.5), rabi_recurrence(RabiParams(kappa=1.0, delta=0.4))],
    ids=["displaced-0.5", "rabi-1"],
)
def test_sign_flips_where_count_and_F_round_a_zero_apart(rec):
    # within a few ulps of a zero, the count and F can see it on opposite
    # sides of a point x; with x on the subgrid, F flips in the grid cell
    # next to the hot subgrid cell, which its one-point margin covers
    depth, h = 60, 1e-9
    c, lam = rec.coeff_arrays(depth)
    before = after = 0  # flips just below and just above such an x
    for r, z in enumerate(eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))[:10]):
        xs = z + np.spacing(abs(z)) * np.arange(-64, 65)
        counts, f = _sturm_counts(c, lam, xs), _backward_fraction(c, lam, xs)
        for x in xs[((counts == r) & (f < 0.0)) | ((counts == r + 1) & (f > 0.0))]:
            grid = x + h * (np.arange(801) - 400)
            want = _full_scan_flips(rec, grid, depth)
            before += int(np.any(want == grid[399]))
            after += int(np.any(want == grid[400]))
            with _stride(8):
                assert _sign_flips(rec, grid, depth).tobytes() == want.tobytes()
    assert before >= 1 and after >= 1


def test_sign_flips_keep_a_flip_between_two_batches():
    # a grid finer than the count's rounding is scanned in pieces of
    # _BLOCK_SIZE + 1 points that share an end; a flip of F across the
    # first piece's last cell must not fall between them
    rec = displaced_recurrence(0.5)
    c, lam = rec.coeff_arrays(60)
    z = float(eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))[2])
    ulp = np.spacing(z)
    xs = z + ulp * np.arange(-64, 65)
    f = _backward_fraction(c, lam, xs)
    x = float(xs[1:][(f[:-1] > 0.0) & (f[1:] < 0.0)][0])
    grid = x + ulp * (np.arange(_BLOCK_SIZE + 100) - _BLOCK_SIZE)
    want = _full_scan_flips(rec, grid, 60)
    assert grid[_BLOCK_SIZE - 1] in want
    assert _sign_flips(rec, grid, 60).tobytes() == want.tobytes()


def _evaluated_points(rec, grid, depth, stride=None):
    """_sign_flips's flips and the number of points at which it evaluates F."""
    seen = [0]
    backward_fraction = measure._backward_fraction

    def counting(c, lam, xs):
        seen[0] += xs.size
        return backward_fraction(c, lam, xs)

    with mock.patch.object(measure, "_backward_fraction", counting):
        with _stride(stride):
            flips = _sign_flips(rec, grid, depth)
    return flips, seen[0]


def test_sign_flips_evaluate_F_on_a_small_share_of_the_grid():
    # the benchmark's cf-compare call: 101 zeros on 200,001 points
    rec = displaced_recurrence(0.5)
    grid = np.linspace(-0.3, 100.0, 200_001)
    flips, evaluated = _evaluated_points(rec, grid, 161)
    assert evaluated <= 0.05 * grid.size
    assert flips.tobytes() == _full_scan_flips(rec, grid, 161).tobytes()


def test_sign_flips_on_an_all_hot_subgrid_evaluate_each_point_about_once():
    # zeros about 1 apart and subgrid cells 2 wide: every cell holds a zero
    rec = displaced_recurrence(0.5)
    grid = np.linspace(-0.3, 100.0, 1001)
    c, lam = rec.coeff_arrays(161)
    assert np.all(np.diff(_sturm_counts(c, lam, grid[::20])) > 0)
    flips, evaluated = _evaluated_points(rec, grid, 161, stride=20)
    assert evaluated <= 1.1 * grid.size
    assert flips.tobytes() == _full_scan_flips(rec, grid, 161).tobytes()


# -- discrete measures -------------------------------------------------------


def test_partial_fractions_hermite_n2():
    m = partial_fractions(hermite_recurrence(), 2)
    np.testing.assert_allclose(m.nodes, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(m.weights, [0.5, 0.5], rtol=1e-12)


def test_partial_fractions_degree_one():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    m = partial_fractions(rec, 1)
    np.testing.assert_allclose(m.nodes, [0.4])
    np.testing.assert_array_equal(m.weights, [1.0])


def test_partial_fractions_normalization_and_positivity():
    for rec, n in (
        (displaced_recurrence(4.0), 60),
        (displaced_recurrence(16.0), 120),
        (rabi_recurrence(RabiParams(4.0, 0.4)), 60),
    ):
        m = partial_fractions(rec, n)
        assert np.all(m.weights > 0)
        assert abs(m.weights.sum() - 1.0) < 1e-13


def test_partial_fractions_weights_concentrate_at_weak_coupling():
    m = partial_fractions(displaced_recurrence(0.2), 8)
    assert m.weights[0] > 0.9  # nearly all mass at the lowest node
    assert abs(m.weights.sum() - 1.0) < 64 * np.finfo(float).eps * 8


def test_partial_fractions_agrees_with_golub_welsch():
    # Golub-Welsch: the weights are the squared first components of the
    # normalized eigenvectors of the Jacobi matrix.  LAPACK resolves them to
    # about eps absolutely, which is also relative where none is tiny (n = 12).
    for kappa, n in ((4.0, 12), (1.0, 12), (4.0, 60)):
        rec = displaced_recurrence(kappa)
        c, lam = rec.coeff_arrays(n)
        nodes, vectors = eigh_tridiagonal(c, np.sqrt(lam[1:]))
        m = partial_fractions(rec, n)
        np.testing.assert_allclose(m.nodes, nodes, rtol=0, atol=1e-12 * n)
        np.testing.assert_allclose(m.weights, vectors[0] ** 2, rtol=1e-12, atol=1e-15)


def _mp_christoffel_weights(rec, nodes, n):
    """1 / sum_{l<n} P_l(x)^2 / n_l at 60 digits: the monic recurrence and
    the products n_l = lambda_1 ... lambda_l on the model's own doubles."""
    c, lam = rec.coeff_arrays(n)
    out = []
    with mpmath.workdps(60):
        cs = [mpmath.mpf(v) for v in c.tolist()]
        ls = [mpmath.mpf(v) for v in lam.tolist()]
        for x in nodes.tolist():
            x = mpmath.mpf(x)
            prev, cur, norm, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(1)
            for l in range(1, n):
                prev, cur = cur, (x - cs[l - 1]) * cur - ls[l - 1] * prev
                norm *= ls[l]
                total += cur * cur / norm
            out.append(1 / total)
    return out


@pytest.mark.parametrize("kappa, n", [(4.0, 60), (16.0, 200), (16.0, 300)])
def test_partial_fractions_weights_match_mpmath(kappa, n):
    # every 12th node and the 8 highest, whose weights are the smallest (at
    # kappa = 16, n = 300 they reach the subnormal range)
    m = partial_fractions(displaced_recurrence(kappa), n)
    picks = np.unique(np.r_[np.arange(0, n, 12), np.arange(n - 8, n)])
    expect = _mp_christoffel_weights(displaced_recurrence(kappa), m.nodes[picks], n)
    checked = 0
    for w, e in zip(m.weights[picks].tolist(), expect):
        if w > 2.0**-1000:
            assert abs(float((w - e) / e)) <= 1e-12
            checked += 1
    assert checked >= len(picks) - 3


def test_partial_fractions_raises_on_underflowing_weight():
    with pytest.raises(PrecisionExhausted, match="underflows"):
        partial_fractions(displaced_recurrence(16.0), 400)


def test_partial_fractions_raises_past_coagulation_horizon():
    with pytest.raises(PrecisionExhausted, match="coagulation"):
        partial_fractions(displaced_recurrence(0.2), 40)


def test_moment_matching_between_degrees():
    rec = displaced_recurrence(4.0)
    n = 30
    ma, mb = partial_fractions(rec, n), partial_fractions(rec, n + 1)

    def abs_moment(m, j):
        return float(np.sum(m.weights * np.abs(m.nodes) ** j))

    for j in range(2 * n):
        scale = max(abs_moment(ma, j), abs_moment(mb, j))
        assert abs(ma.moment(j) - mb.moment(j)) <= 1e-9 * scale


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=np.array([0.0, 1.0]), weights=np.array([0.5, -0.5]), degree=2)
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=np.array([1.0, 0.0]), weights=np.array([0.5, 0.5]), degree=2)
    with pytest.raises(ValueError):
        DiscreteMeasure(nodes=np.array([0.0, 1.0]), weights=np.array([0.9, 0.4]), degree=2)


def test_stieltjes_at_a_node_raises_pole_hit():
    # z - x_k = 0 there: the sum has a pole, not a value (nor a warning)
    m = partial_fractions(displaced_recurrence(0.5), 5)
    for k in (0, 4):
        with pytest.raises(PoleHit, match=re.escape(f"x_{{5,{k + 1}}}")):
            m.stieltjes(float(m.nodes[k]))
    z = float(np.nextafter(m.nodes[0], -np.inf))
    assert -math.inf < m.stieltjes(z) < -1e10  # one ulp below a node: finite


# -- spectral masses ---------------------------------------------------------


def test_ground_state_mass_is_poisson_weight():
    sm = spectral_mass(displaced_recurrence(0.2), -0.04)
    assert sm.mass == pytest.approx(math.exp(-0.04), abs=1e-10)
    assert sm.tail_estimate * sm.mass < 1e-10


def test_first_masses_match_poisson_ladder():
    rec = displaced_recurrence(0.2)
    for k in range(6):
        expect = math.exp(-0.04) * 0.04**k / math.factorial(k)
        assert spectral_mass(rec, k - 0.04).mass == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("kappa, k", [(1.0, 1), (2**0.5, 2), (3**0.5, 3)])
def test_poisson_ladder_where_P1_vanishes(kappa, k):
    # xi = k - kappa**2 = 0 = c_0 makes the l = 1 term exactly zero, an
    # isolated small term early in the sum that must not cut it
    rec = displaced_recurrence(kappa)
    expect = math.exp(-float(k)) * float(k) ** k / math.factorial(k)
    assert spectral_mass(rec, k - float(k)).mass == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize(
    "kappa, k", [(1.0, 150), (2.0, 150), (4.0, 200), (16.0, 10), (4.0, 15), (10.0, 100)]
)
def test_deep_displaced_levels_match_poisson(kappa, k):
    # the terms climb through the rows where level k lives; at kappa = 4 and
    # 10, xi = -1 and 0 sit deep inside Gershgorin discs of radius about
    # 2 kappa sqrt(k), whose rows set the rounding of the level count
    expect = mpmath.exp(-kappa**2) * mpmath.mpf(kappa**2) ** k / mpmath.factorial(k)
    mass = spectral_mass(displaced_recurrence(kappa), k - kappa**2).mass
    assert mass == pytest.approx(float(expect), rel=1e-10)


def test_masses_sum_below_one_and_approach_it():
    rec = displaced_recurrence(0.2)
    partial = [sum(spectral_mass(rec, l - 0.04).mass for l in range(k)) for k in (3, 6, 10)]
    assert all(s <= 1.0 + 1e-12 for s in partial)
    assert partial[0] < partial[1] < partial[2]
    assert 1.0 - partial[2] < 1e-10


def test_midgap_point_diverges():
    rec = displaced_recurrence(0.2)
    for x in (0.5, 1.43, 7.77):
        with pytest.raises(Divergent):
            spectral_mass(rec, x)


def test_rabi_masses_sum_to_one():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    res = run_flows(rec, 8, tol=1e-12)
    total = sum(spectral_mass(rec, lv.xi).mass for lv in res.levels)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_mass_on_a_short_table_matches_golub_welsch():
    # l_max + 1 = 1001 is clamped to the 25-entry table, whose Jacobi matrix
    # is the whole model: its masses are squared first eigenvector components
    c, lam = np.arange(25.0), np.full(24, 0.3)
    rec = MonicRecurrence.from_arrays(c, lam)
    nodes, vectors = eigh_tridiagonal(c, np.sqrt(lam))
    for k in (0, 1):
        mass = spectral_mass(rec, float(nodes[k])).mass
        assert mass == pytest.approx(vectors[0, k] ** 2, rel=1e-12)


def test_every_mass_of_a_six_row_table():
    # six rows hold no tail below rounding at any level; the whole Jacobi
    # matrix needs none, so every level has its mass whatever l_max is
    c, lam = np.arange(6.0), np.full(5, 0.3)
    rec = MonicRecurrence.from_arrays(c, lam)
    nodes, vectors = eigh_tridiagonal(c, np.sqrt(lam))
    for k in range(6):
        for l_max in (5, 1000):
            mass = spectral_mass(rec, float(nodes[k]), l_max=l_max).mass
            assert mass == pytest.approx(vectors[0, k] ** 2, rel=1e-12)
    for x in (-3.0, 0.5, 2.5, 4.5, 9.0):
        with pytest.raises(Divergent):
            spectral_mass(rec, x)


# -- eigenvector reconstruction ----------------------------------------------


def test_displaced_eigenvector_is_coherent_state():
    rec = displaced_recurrence(0.2)
    raw = rabi_raw_recurrence(RabiParams(kappa=0.2, delta=0.0))
    res = reconstruct_eigenvector(rec, raw, -0.04, 30)
    expect = np.array([(-0.2) ** n / math.factorial(n) for n in range(31)])
    np.testing.assert_allclose(res.phi, expect, atol=1e-15)
    assert res.bargmann_saturated
    assert res.bargmann_partial_sums[-1] == pytest.approx(math.exp(0.04), rel=1e-10)
    assert res.two_term_residual < 1e-10


@pytest.mark.parametrize("k", [6, 7])
def test_displaced_eigenvector_of_small_mass_level(k):
    # xi = k - 0.04 is the level to rounding, but the small mass 0.04**k/k!
    # magnifies the two-term residual of a solution run backward through the
    # head to 1.7e-6 and 3.8e-4.  The state is ill-conditioned in xi by
    # 1/sqrt(mass): the Fock-normalized vector matches to the coherent-state
    # test's 1e-15 times that, and the Bargmann norm is 1/mass.
    kappa = 0.2
    mass = math.exp(-kappa**2) * kappa ** (2 * k) / math.factorial(k)
    raw = rabi_raw_recurrence(RabiParams(kappa=kappa, delta=0.0))
    res = reconstruct_eigenvector(displaced_recurrence(kappa), raw, k - kappa**2, 40)
    expect = _displaced_eigenvector(kappa, k, 40)
    root_fact = np.sqrt([float(math.factorial(n)) for n in range(41)])

    def unit(phi):
        v = phi * root_fact
        return v / np.linalg.norm(v)

    np.testing.assert_allclose(unit(res.phi), unit(expect), rtol=0, atol=1e-15 / math.sqrt(mass))
    assert res.bargmann_saturated
    assert res.bargmann_partial_sums[-1] == pytest.approx(1.0 / mass, rel=1e-13)


def _displaced_eigenvector(kappa, k, n_max):
    """phi_n of (z + kappa)**k exp(-kappa z), the displaced number state k,
    normalized to phi_0 = 1, in exact rational arithmetic."""
    kappa = Fraction(kappa)
    return np.array([
        float(sum(
            math.comb(k, j) * kappa ** -j * (-kappa) ** (n - j) / math.factorial(n - j)
            for j in range(min(k, n) + 1)
        ))
        for n in range(n_max + 1)
    ])


@pytest.mark.parametrize(
    "kappa, k",
    [(0.2, 7), (0.2, 8), (0.2, 9), (0.5, 11), (0.5, 12), (0.5, 13),
     (1.0, 17), (1.0, 18), (1.0, 19), (4.0, 13), (4.0, 15), (4.0, 17)],
)
def test_displaced_eigenvector_matches_taylor_coefficients(kappa, k):
    # the state grows through the head rows, where a solution run backward
    # loses it; forward up to the dominance index and backward past it, it
    # matches the exact coefficients to rounding of the largest one
    n_max = int(4 * (k + kappa**2)) + 40
    raw = rabi_raw_recurrence(RabiParams(kappa=kappa, delta=0.0))
    res = reconstruct_eigenvector(displaced_recurrence(kappa), raw, k - kappa**2, n_max)
    expect = _displaced_eigenvector(kappa, k, n_max)
    assert np.max(np.abs(res.phi - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("kappa", [0.5, 2.0, 4.0])
def test_masses_and_eigenvectors_judge_alike(kappa):
    # both run the same minimal solution and the same count: they accept every
    # level and reject every midgap point together
    rec = displaced_recurrence(kappa)
    raw = rabi_raw_recurrence(RabiParams(kappa=kappa, delta=0.0))
    for k in range(21):
        for xi, level in ((k - kappa**2, True), (k + 0.5 - kappa**2, False)):
            n_max = int(4 * (k + kappa**2)) + 40
            verdicts = []
            for call, error in (
                (lambda: spectral_mass(rec, xi), Divergent),
                (lambda: reconstruct_eigenvector(rec, raw, xi, n_max), NotMinimal),
            ):
                try:
                    call()
                    verdicts.append(True)
                except error:
                    verdicts.append(False)
            assert verdicts == [level, level], (k, xi)


def test_eigenvector_with_vanishing_component():
    # kappa = 1, xi = 0: phi_n = (-1)**n (1 - n) / n!, so phi_1 = 0 exactly
    raw = rabi_raw_recurrence(RabiParams(kappa=1.0, delta=0.0))
    res = reconstruct_eigenvector(displaced_recurrence(1.0), raw, 0.0, 30)
    expect = np.array([(-1) ** n * (1 - n) / math.factorial(n) for n in range(31)])
    np.testing.assert_allclose(res.phi, expect, rtol=0, atol=1e-15)
    assert res.bargmann_saturated
    # kappa = sqrt(2) at its level 2 - 2.0 = 0: phi_1 = 0 again
    kappa = 2**0.5
    raw = rabi_raw_recurrence(RabiParams(kappa=kappa, delta=0.0))
    res = reconstruct_eigenvector(displaced_recurrence(kappa), raw, 2 - 2.0, 30)
    np.testing.assert_allclose(res.phi, _displaced_eigenvector(kappa, 2, 30), rtol=0, atol=1e-15)


def test_backward_runs_disagree_without_minimal_solution():
    # a_n = -x, b_n = 1 (monic c = 0, lambda = 1): at x = 0.5 both solutions
    # of t**2 - x t + 1 = 0 have modulus one, so no solution is minimal: no
    # row is Gershgorin dominated and no tail falls below rounding
    raw = RawRecurrence.from_affine(
        alpha=lambda n: np.ones(np.shape(n)),
        c=lambda n: np.zeros(np.shape(n)),
        b=lambda n: np.ones(np.shape(n)),
    )
    rec = MonicRecurrence(c=lambda n: np.zeros(np.shape(n)), lam=lambda n: np.ones(np.shape(n)))
    with pytest.raises(NotMinimal, match="does not fall below rounding"):
        reconstruct_eigenvector(rec, raw, 0.5, 30)


def test_undominated_rows_are_reported_without_depth_advice():
    # c = 0, lambda = 1: |0 - 0.5| < 2 at every row, which no depth changes
    rec = MonicRecurrence(c=lambda n: np.zeros(np.shape(n)), lam=lambda n: np.ones(np.shape(n)))
    with pytest.raises(ValueError, match="no row within depth 1001 is Gershgorin dominated at 0.5") as exc:
        spectral_mass(rec, 0.5)
    assert "raise" not in str(exc.value)
    # displaced kappa = 16, level 300: rows are dominated, the tail needs depth
    with pytest.raises(ValueError, match="raise l_max"):
        spectral_mass(displaced_recurrence(16.0), 300 - 256.0)


def test_nan_level_is_reported_without_depth_advice():
    # no l_max or n_max can help at NaN: the message names the point
    p = RabiParams(kappa=0.2, delta=0.4)
    with pytest.raises(ValueError, match="nan is not a finite point") as exc:
        spectral_mass(rabi_recurrence(p), math.nan)
    assert "raise" not in str(exc.value)
    with pytest.raises(NotMinimal, match="nan is not a finite point") as exc:
        reconstruct_eigenvector(rabi_recurrence(p), rabi_raw_recurrence(p), math.nan, 30)
    assert "raise" not in str(exc.value)


def test_rabi_eigenvector_two_term_residual():
    p = RabiParams(kappa=0.2, delta=0.4, parity="+")
    rec = rabi_recurrence(p)
    raw = rabi_raw_recurrence(p)
    xi = run_flows(rec, 1, tol=1e-12).xi[0]
    res = reconstruct_eigenvector(rec, raw, xi, 40)
    assert res.two_term_residual < 1e-8
    assert res.bargmann_saturated


def test_midgap_eigenvector_rejected():
    rec = displaced_recurrence(0.2)
    raw = rabi_raw_recurrence(RabiParams(kappa=0.2, delta=0.0))
    with pytest.raises(NotMinimal):
        reconstruct_eigenvector(rec, raw, 0.5, 30)


def test_mismatched_raw_and_monic_rejected():
    rec = displaced_recurrence(0.2)
    raw = rabi_raw_recurrence(RabiParams(kappa=0.7, delta=0.4))
    with pytest.raises(ValueError, match="monic form"):
        reconstruct_eigenvector(rec, raw, -0.04, 10)


# -- associated-zero interlacing ----------------------------------------------


def test_associated_interlacing_strict_at_strong_coupling():
    rec = rabi_recurrence(RabiParams(kappa=4.0, delta=0.4))
    n = 12
    z0 = zeros_of(rec, n, n).zeros
    z1 = zeros_of(rec.associated(1), n - 1, n - 1).zeros
    z2 = zeros_of(rec.associated(2), n - 2, n - 2).zeros
    assert all(z0[l] < z1[l] < z0[l + 1] for l in range(n - 1))
    assert all(z1[l] < z2[l] < z1[l + 1] for l in range(n - 2))


def test_associated_interlacing_up_to_resolution_at_weak_coupling():
    # converged pairs coagulate below bisection resolution, so the ordering
    # is only asserted up to that slack
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    n = 30
    z0 = zeros_of(rec, n, 12).zeros
    z1 = zeros_of(rec.associated(1), n - 1, 12).zeros
    slack = 8.0 * 2.0**-50 * np.maximum(1.0, np.abs(z0[:11]))
    assert np.all(z0[:11] < z1[:11] + slack)
    assert np.all(z1[:11] < z0[1:12] + slack)
