
import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from zeroflow import (
    MonicRecurrence,
    NonlinearCoefficient,
    NonPositiveLambda,
    PrecisionExhausted,
    RabiParams,
    RawRecurrence,
    count_zeros_below,
    displaced_recurrence,
    rabi_raw_recurrence,
    rabi_recurrence,
    to_monic,
)

from zeroflow import recurrence
from zeroflow.recurrence import (
    _BLOCK_SIZE,
    _backward_fraction,
    _frozen_counts,
    _pivot_sweep,
    _sturm_counts,
    _sturm_newton,
    _zero_bounds,
)

from conftest import LargeAllocation, hermite_recurrence, random_recurrence, wide_range_recurrence


# -- monic normalization -----------------------------------------------------


def test_to_monic_matches_rabi_closed_form():
    for parity in "+-":
        p = RabiParams(kappa=0.2, delta=0.4, parity=parity)
        derived = to_monic(rabi_raw_recurrence(p))
        closed = rabi_recurrence(p)
        c1, l1 = derived.coeff_arrays(40)
        c2, l2 = closed.coeff_arrays(40)
        np.testing.assert_allclose(c1, c2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(l1, l2, rtol=1e-12)


def test_to_monic_zero_sets_match_raw_truncation():
    # the zeros of P_n are the energies where the raw truncated system has a
    # nontrivial solution with phi_n = 0: the forward-propagated phi_n and
    # the monic P_n must flip sign together
    p = RabiParams(kappa=0.2, delta=0.4, parity="+")
    raw = rabi_raw_recurrence(p)
    rec = to_monic(raw)
    xs = np.linspace(-0.5, 12.0, 400)
    for n in (5, 13, 30):
        idx = np.arange(n + 1)
        signs_raw = []
        for x in xs:
            a = np.asarray(raw.a(idx, float(x)), dtype=float)
            b = np.asarray(raw.b(idx), dtype=float)
            phi_prev, phi = 1.0, -a[0]
            for k in range(1, n):
                phi_prev, phi = phi, -a[k] * phi - b[k] * phi_prev
            signs_raw.append(np.sign(phi))
        # sign P_n(x) = (-1)**(number of zeros of P_n above x)
        signs_p = [(-1) ** (n - count_zeros_below(rec, float(x), n)) for x in xs]
        flips_raw = np.nonzero(np.diff(signs_raw))[0]
        flips_p = np.nonzero(np.diff(signs_p))[0]
        np.testing.assert_array_equal(flips_raw, flips_p)


def test_to_monic_displaced_limit():
    rec = to_monic(rabi_raw_recurrence(RabiParams(kappa=0.2, delta=0.0)))
    c, lam = rec.coeff_arrays(10)
    np.testing.assert_allclose(c, np.arange(10), atol=1e-13)
    np.testing.assert_allclose(lam[1:], 0.04 * np.arange(1, 10), rtol=1e-12)


def test_to_monic_rejects_degenerate_lambda():
    raw = RawRecurrence.from_affine(
        alpha=lambda n: np.ones(np.shape(n)),
        c=lambda n: np.asarray(n, dtype=float),
        b=lambda n: np.where(np.asarray(n) == 5, 0.0, 1.0),
    )
    with pytest.raises(NonPositiveLambda) as err:
        to_monic(raw)
    assert err.value.index == 5


def test_to_monic_rejects_nonlinear_coefficient():
    raw = RawRecurrence(
        a=lambda n, x: np.asarray(n, dtype=float) + x * x,
        b=lambda n: np.ones(np.shape(n)),
    )
    with pytest.raises(NonlinearCoefficient):
        to_monic(raw)


def test_monic_construction_rejects_nonpositive_lambda_eagerly():
    with pytest.raises(NonPositiveLambda):
        MonicRecurrence(
            c=lambda n: np.zeros(np.shape(n)),
            lam=lambda n: np.asarray(n, dtype=float) - 3.0,
        )


def test_lambda0_convention_and_cap():
    rec = MonicRecurrence.from_arrays([0.0, 1.0, 2.0], [1.0, 2.0])
    c, lam = rec.coeff_arrays(3)
    assert lam[0] == 1.0
    assert rec.n_cap == 3
    with pytest.raises(ValueError):
        rec.coeff_arrays(4)


# -- Sturm counts ------------------------------------------------------------


def test_count_zeros_below_hermite_examples():
    rec = hermite_recurrence()
    assert count_zeros_below(rec, 0.0, 2) == 1
    assert count_zeros_below(rec, -2.0, 2) == 0
    assert count_zeros_below(rec, 2.0, 2) == 2


def test_count_zeros_below_charlier_example():
    rec = displaced_recurrence(0.2)
    assert count_zeros_below(rec, 0.5 - 0.04, 50) == 1


def test_exact_hit_convention_keeps_count_consistent():
    # P_1(0) = 0 exactly for the Hermite-style recurrence
    rec = hermite_recurrence()
    for n in range(1, 8):
        assert 0 <= count_zeros_below(rec, 0.0, n) <= n


def test_exact_hit_at_degree_one_is_not_below():
    rec = MonicRecurrence.from_arrays([0.75, 2.0], [1.0])
    assert count_zeros_below(rec, 0.75, 1) == 0


def test_count_at_infinities_is_the_limit_and_nan_raises():
    rec = displaced_recurrence(0.5)
    assert count_zeros_below(rec, -np.inf, 30) == 0
    assert count_zeros_below(rec, np.inf, 30) == 30
    with pytest.raises(ValueError, match="NaN"):
        count_zeros_below(rec, np.nan, 30)


@pytest.mark.parametrize("n, below", [(3, 1), (5, 2)])
def test_exact_hit_at_middle_hermite_zero(n, below):
    # x = 0 is a zero of the odd Hermite-style P_n, and of every odd P_j on
    # the way: each exact hit counts as not below, so the count is the
    # number of zeros strictly below 0
    assert count_zeros_below(hermite_recurrence(), 0.0, n) == below


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.booleans())
def test_count_matches_lapack_eigenvalues(seed, n, wide):
    rng = np.random.default_rng(seed)
    rec = (wide_range_recurrence if wide else random_recurrence)(rng)
    c, lam = rec.coeff_arrays(n)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:])) if n > 1 else c.copy()
    scale = max(1.0, float(np.max(np.abs(eig))))
    span = eig[-1] - eig[0] + scale
    probes = np.concatenate(
        (
            rng.uniform(eig[0] - 0.1 * span, eig[-1] + 0.1 * span, size=20),
            0.5 * (eig[1:] + eig[:-1]),
        )
    )
    gap = np.min(np.abs(probes[:, None] - eig[None, :]), axis=1)
    for x in probes[gap > 1e-8 * scale]:
        assert count_zeros_below(rec, float(x), n) == int(np.sum(eig < x))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_count_monotone_in_x_and_degree_consistent(seed, n):
    rec = random_recurrence(np.random.default_rng(seed))
    xs = np.linspace(-3.0, 3.0 + 2.0 * n, 25)
    counts = [count_zeros_below(rec, float(x), n) for x in xs]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] <= n
    # interlacing: one degree step changes any count by 0 or 1
    for x in xs[::4]:
        delta = count_zeros_below(rec, float(x), n + 1) - count_zeros_below(rec, float(x), n)
        assert delta in (0, 1)


def test_count_equals_n_above_all_zeros():
    rec = displaced_recurrence(0.5)
    c, lam = rec.coeff_arrays(30)
    hi = float(np.max(c) + 2.0 * np.sqrt(np.max(lam)) * 30)
    assert count_zeros_below(rec, hi, 30) == 30


@pytest.mark.parametrize("x", [0.0, -0.0])
@pytest.mark.parametrize("c", [[-0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]])
def test_signed_zero_diagonal_counts_like_positive_zero(c, x):
    # to_monic gives c_k = -0.0 where c~_k = 0 and alpha_k < 0.  With lambda = 1
    # P_2 = x**2 - 1 and P_3 = x**3 - 2x, each with one zero strictly below 0;
    # the exact hit P_1(0) = 0 must count the same whatever the signs of zero
    lam = np.ones(len(c))
    assert _sturm_counts(np.array(c), lam, np.array([x])).tolist() == [1]
    assert _sturm_counts(np.zeros(len(c)), lam, np.array([x])).tolist() == [1]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([255, 256, 257, 513]),
    st.sampled_from([1, 20, 240, 5000]),
    st.booleans(),
)
def test_block_counts_match_lapack_across_chunk_edges(seed, n, batch, wide):
    # whole probe arrays, so the recurrence crosses block boundaries at every
    # block height and at the element cap
    rng = np.random.default_rng(seed)
    c, lam = (wide_range_recurrence if wide else random_recurrence)(rng, n).coeff_arrays(n)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))
    scale = max(1.0, float(np.max(np.abs(eig))))
    span = eig[-1] - eig[0] + scale
    xs = np.empty(0)
    while xs.size < batch:
        draw = rng.uniform(eig[0] - 0.1 * span, eig[-1] + 0.1 * span, size=batch)
        i = np.clip(np.searchsorted(eig, draw), 1, n - 1)
        gap = np.minimum(np.abs(draw - eig[i - 1]), np.abs(draw - eig[i]))
        xs = np.concatenate((xs, draw[gap > 1e-8 * scale]))[:batch]
    np.testing.assert_array_equal(_sturm_counts(c, lam, xs), np.searchsorted(eig, xs))
    # monotone in x also at the eigenvalues, where rounding decides the count
    grid = np.sort(np.concatenate((xs, eig)))
    assert np.all(np.diff(_sturm_counts(c, lam, grid)) >= 0)


def _exact_count(c, lam, x):
    """Zeros of P_n strictly below x in rational arithmetic: the sign
    agreements of consecutive P_j(x), where a zero P_j takes the sign of
    -P_{j-1}(x)."""
    x = Fraction(x)
    p_prev, p, sign, count = Fraction(0), Fraction(1), 1, 0
    for ck, lk in zip(c, lam):
        p_prev, p = p, (x - Fraction(ck)) * p - Fraction(lk) * p_prev
        new = (p > 0) - (p < 0) or -sign
        count += new == sign
        sign = new
    return count


def _integer_tables(n):
    rng = np.random.default_rng(n)
    yield np.zeros(n), np.ones(n)  # P_j(0) = 0 for every odd j
    yield rng.integers(-2, 3, n).astype(float), 2.0 ** rng.integers(0, 3, n)
    yield np.arange(n) + rng.integers(-3, 4, n).astype(float), rng.integers(1, 5, n).astype(float)


def _sweep_rows(kernel, n, batch):
    """Rows per block of the kernel's sweep of n rows at this batch, as the
    kernel itself asks recurrence._block_rows for them: at x = 0 no row of
    c = 0, lambda = 1 passes the head test, so every window starts at row 1
    and every block asks for the same height."""
    asked = []
    block_rows = recurrence._block_rows

    def recording(*args):
        asked.append(block_rows(*args))
        return asked[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_block_rows", recording)
        kernel(np.zeros(n), np.ones(n), np.zeros(batch))
    assert len(set(asked)) == 1
    return min(asked[0], n)


@contextlib.contextmanager
def _head_rows_at(head_rows):
    """Sweeps that start _HEAD_ROWS = head_rows rows below their head row;
    head_rows >= n sweeps every point from row 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_HEAD_ROWS", head_rows)
        yield


@pytest.mark.parametrize("n", [255, 256, 257, 513])
@pytest.mark.parametrize("batch", [1, 20, 240, 5000])
def test_integer_tables_probed_at_diagonal_match_exact_count(n, batch):
    # x = c_k makes row k of the block exactly zero; with k on either side of
    # every block edge, and small integer tables, the pivots hit 0 and +-inf
    # exactly there and carry them into the next block.  Block edges are
    # rows of the table where every window starts at row 1 (head rows n);
    # with the default head rows the windows move them
    rows = _sweep_rows(_sturm_counts, n, batch)
    edges = [k for e in range(rows, n + 1, rows) for k in (e - 2, e - 1, e, e + 1) if 0 <= k < n]
    for c, lam in _integer_tables(n):
        lam[0] = 1.0
        xs = c[np.resize(edges, batch)]
        exact = {x: _exact_count(c, lam, x) for x in set(xs.tolist())}
        for head_rows in (recurrence._HEAD_ROWS, n):
            with _head_rows_at(head_rows):
                assert _sturm_counts(c, lam, xs).tolist() == [exact[x] for x in xs.tolist()]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([255, 256, 257, 513]),
    st.sampled_from([1, 20, 240, 5000]),
    st.booleans(),
)
def test_newton_sweep_counts_and_log_derivative(seed, n, batch, wide):
    # the sweep's counts are the kernel's, bitwise, across block edges, and
    # s = Q'/Q = sum_j 1/(x - x_j) over LAPACK's eigenvalues of the rows Q
    # spans: all of them (Q = P_n) for a point swept from row 1, rows
    # k0 - 1 .. n - 1 for a point whose head starts at row k0 > 0.  Points
    # over the whole spectrum, then over its top fifth, where most sweeps
    # take heads
    rng = np.random.default_rng(seed)
    c, lam = (wide_range_recurrence if wide else random_recurrence)(rng, n).coeff_arrays(n)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]))
    scale = max(1.0, float(np.max(np.abs(eig))))
    for lo in (eig[0] - 1.0, eig[-1] - 0.2 * (eig[-1] - eig[0])):
        xs = rng.uniform(lo, eig[-1] + 1.0, size=batch)
        start = _window_starts(lambda: _sturm_newton(c, lam, xs), xs)
        counts, s = _sturm_newton(c, lam, xs)
        np.testing.assert_array_equal(counts, _sturm_counts(c, lam, xs))
        for k0 in np.unique(start):
            at = np.flatnonzero(start == k0)
            top = max(k0 - 1, 0)
            eig_q = eigvalsh_tridiagonal(c[top:], np.sqrt(lam[top + 1 :]))
            gap = np.min(np.abs(xs[at, None] - eig_q[None, :]), axis=1)
            far = at[gap > 1e-3 * scale]
            expect = np.sum(1.0 / (xs[far, None] - eig_q[None, :]), axis=1)
            bound = np.sum(1.0 / (xs[far, None] - eig_q[None, :]) ** 2, axis=1) * 1e-12 * scale
            assert np.all(np.abs(s[far] - expect) <= bound)


def _recorded_lockstep(sweep):
    """The (xs, k0, stops) of each recurrence._lockstep call of sweep():
    the head passes (lower ends, then upper ends, of the same points), and
    last the sweep of every point from its start (k0 = 0 where the call
    passes None, every point from row 1)."""
    calls = []
    lockstep = recurrence._lockstep

    def recording(c, lam, x, k0, stops, v, r, derivative):
        calls.append((x.copy(), np.zeros(x.size, dtype=np.int64) if k0 is None else k0.copy(), stops.copy()))
        return lockstep(c, lam, x, k0, stops, v, r, derivative)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_lockstep", recording)
        sweep()
    return calls


def _window_starts(sweep, xs):
    """The row k0 from which the sweep run by sweep() took each x of xs:
    the lower end's row of the head pass that it kept, 0 for a point swept
    from row 1."""
    *heads, (x, start, _) = _recorded_lockstep(sweep)
    assert x.tobytes() == xs.tobytes()
    k0 = {}
    for x, k, _ in heads:
        k0.update(zip(x[: x.size // 2].tolist(), k[: x.size // 2].tolist()))
    return np.array([k0[x] if k > 0 else 0 for x, k in zip(xs.tolist(), start.tolist())])


@pytest.mark.parametrize("n", [255, 513])
@pytest.mark.parametrize("batch", [1, 240, 2000])
def test_newton_sweep_counts_exact_hits(n, batch):
    # probes at the diagonal of integer tables hit pivots 0 and +-inf; the
    # counts stay exact, s may be inf or NaN there, and no warning escapes
    rows = _sweep_rows(_sturm_newton, n, batch)
    edges = [k for e in range(rows, n + 1, rows) for k in (e - 2, e - 1, e, e + 1) if 0 <= k < n]
    for c, lam in _integer_tables(n):
        lam[0] = 1.0
        xs = c[np.resize(edges, batch)]
        exact = {x: _exact_count(c, lam, x) for x in set(xs.tolist())}
        for head_rows in (recurrence._HEAD_ROWS, n):
            with _head_rows_at(head_rows):
                assert _sturm_newton(c, lam, xs)[0].tolist() == [exact[x] for x in xs.tolist()]


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("kernel", [_sturm_counts, _sturm_newton])
def test_every_pivot_negative_over_whole_blocks(kernel, batch):
    # above the Gershgorin bound every pivot is negative, so each full block
    # adds 255 to the count: the most its uint8 sum holds.  Batch 64 fills
    # blocks of 255 rows in both kernels; 256-row blocks would wrap to 0.
    # Swept from row 1 (head rows n) the blocks are full; by default each
    # point sweeps only a window past its head
    n = 3 * 255 + 1
    assert _sweep_rows(kernel, n, batch) >= 255
    rng = np.random.default_rng(batch)
    c, lam = random_recurrence(rng, n).coeff_arrays(n)
    xs = _zero_bounds(c, lam)[1] + rng.uniform(0.0, 10.0, size=batch)
    for head_rows in (recurrence._HEAD_ROWS, n):
        with _head_rows_at(head_rows):
            counts = kernel(c, lam, xs)
        counts = counts[0] if kernel is _sturm_newton else counts
        assert counts.tolist() == [n] * batch


def _same(a, b):
    return a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 600),
    st.sampled_from([1, 7, 150, 1200]),
    st.sampled_from(["random", "wide", "integer"]),
    st.booleans(),
)
def test_per_point_stops_are_each_points_own_sweep(seed, n, batch, kind, derivative):
    # under per-point stops each point's count and last pivot are bitwise
    # those of a sweep over its own rows alone; equal stops give today's
    # sweep of those rows bitwise, counts, last pivots and s
    rng = np.random.default_rng(seed)
    if kind == "integer":
        c, lam = list(_integer_tables(n))[seed % 3]
        lam[0] = 1.0
        xs = np.sort(np.concatenate((c[rng.integers(0, n, batch // 2)], rng.uniform(-4.0, n + 4.0, batch - batch // 2))))
    else:
        rec = (wide_range_recurrence if kind == "wide" else random_recurrence)(rng, max(n, 2))
        c, lam = rec.coeff_arrays(n)
        lo, hi = _zero_bounds(c, lam)
        xs = np.sort(rng.uniform(lo - 1.0, hi + 1.0, batch))
    stops = np.sort(rng.integers(0, n + 1, batch))
    counts, last, _ = _pivot_sweep(c, lam, xs, derivative, stops=stops)
    for i in rng.choice(batch, min(batch, 25), replace=False):
        own, own_last, _ = _pivot_sweep(c[: stops[i]], lam[: stops[i]], xs[i : i + 1], derivative)
        assert counts[i] == own[0] == _sturm_counts(c[: stops[i]], lam[: stops[i]], xs[i : i + 1])[0]
        assert _same(last[i : i + 1], own_last)
    t = int(rng.integers(0, n + 1))
    for rows, equal in ((t, np.full(batch, t)), (n, None), (n, np.full(batch, n))):
        got = _pivot_sweep(c, lam, xs, derivative, stops=equal)
        today = _pivot_sweep(c[:rows], lam[:rows], xs, derivative)
        assert all(a is b is None or _same(a, b) for a, b in zip(got, today))


def _row_by_row(c, lam, xs, stops):
    """The counts and last negated pivots of each point's sweep over its
    rows 1..stops[i], one row at a time from row 1 over all points, with
    the kernel's IEEE operations: the oracle of the windowed sweep."""
    c = c + 0.0
    v = np.full(xs.size, np.inf)
    counts = np.zeros(xs.size, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(int(stops.max(initial=0))):
            live = k < stops
            v[live] = (c[k] - xs[live]) - lam[k] / v[live]
            counts[live] += v[live] < 0.0
    return counts, v


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 700),
    st.sampled_from([1, 7, 150, 1200]),
    st.sampled_from(["random", "wide", "integer", "rabi"]),
    st.booleans(),
    st.booleans(),
)
def test_windowed_sweeps_are_full_sweeps_bitwise(seed, n, batch, kind, derivative, top):
    # a point with a head sweeps only the rows from _HEAD_ROWS below its
    # head row to its stop, yet its count and last pivot are bitwise those
    # of a sweep from row 1; on integer tables half the points sit on a
    # diagonal entry, so pivots hit 0 and +-inf.  With `top` the points lie
    # in the top fifth of the range and the stops near n, where deep Rabi
    # sweeps take heads
    rng = np.random.default_rng(seed)
    if kind == "integer":
        c, lam = list(_integer_tables(n))[seed % 3]
        lam[0] = 1.0
        lo, hi = -4.0, n + 4.0
    elif kind == "rabi":
        n += 300
        c, lam = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4)).coeff_arrays(n)
        lo, hi = -1.0, float(n)
    else:
        rec = (wide_range_recurrence if kind == "wide" else random_recurrence)(rng, max(n, 2))
        c, lam = rec.coeff_arrays(n)
        lo, hi = _zero_bounds(c, lam)
        lo, hi = lo - 1.0, hi + 1.0
    if top:
        lo = hi - 0.2 * (hi - lo)
    xs = rng.uniform(lo, hi, batch)
    if kind == "integer":
        xs[: batch // 2] = c[rng.integers(0, n, batch // 2)]
    stops = rng.integers(n - n // 10 if top else 0, n + 1, batch)
    stops[: batch // 2] = n
    calls = _recorded_lockstep(lambda: _pivot_sweep(c, lam, xs, derivative, stops=stops))
    counts, last, _ = _pivot_sweep(c, lam, xs, derivative, stops=stops)
    expect, pivots = _row_by_row(c, lam, xs, stops)
    np.testing.assert_array_equal(counts, expect)
    assert _same(last, pivots)
    if kind == "rabi" and top:
        assert len(calls) > 1  # heads were taken


def test_heads_whose_ends_differ_fall_back_to_the_full_sweep():
    # with one head row the two ends of a head rarely coincide: those points
    # take 2, 4, ... head rows, and are swept from row 1 once their head row
    # is no larger; c = 0, lambda = 1 at x just above 2 contracts the ends
    # slowly, so some points go all the way.  Counts and pivots stay those
    # of the full sweep
    n = 300
    tables = [
        (np.zeros(n), np.ones(n), np.linspace(2.0 + 1e-6, 2.5, 40)),
        (*rabi_recurrence(RabiParams(kappa=0.2, delta=0.4)).coeff_arrays(n), np.linspace(50.0, 300.0, 200)),
    ]
    for c, lam, xs in tables:
        for derivative in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(recurrence, "_HEAD_ROWS", 1)
                calls = _recorded_lockstep(lambda: _pivot_sweep(c, lam, xs, derivative))
                counts, last, _ = _pivot_sweep(c, lam, xs, derivative)
            expect, pivots = _row_by_row(c, lam, xs, np.full(xs.size, n))
            np.testing.assert_array_equal(counts, expect)
            assert _same(last, pivots)
            *heads, (_, start, _) = calls
            assert [np.unique(stops - k0).tolist() for _, k0, stops in heads] == [[2**i] for i in range(len(heads))]
            sizes = [x.size for x, _, _ in heads]
            assert len(heads) > 1 and all(a >= b for a, b in zip(sizes, sizes[1:]))
            if c[0] == 0.0:
                assert np.any(start == 0)  # swept from row 1 at the end


def test_backward_fraction_in_chunks_is_one_pass_bitwise():
    # a grid over several _BLOCK_SIZE chunks, with the integer points of the
    # small integer tables spread through it (exact hits t = 0 carry +-inf
    # and -0 on), gives F bitwise equal to one pass over the whole grid
    n = 161
    xs = np.sort(
        np.concatenate((np.linspace(-3.0, n + 3.0, 3 * _BLOCK_SIZE + 17), np.arange(-3.0, n + 4.0)))
    )
    hits = 0
    for c, lam in _integer_tables(n):
        got = _backward_fraction(c, lam, xs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "_BLOCK_SIZE", xs.size)
            whole = _backward_fraction(c, lam, xs)
        assert got.tobytes() == whole.tobytes()
        hits += np.count_nonzero(~np.isfinite(whole) | (whole == 0.0))
    assert hits > 0


def _frozen_schedule(rec, xs, first, rounds):
    """The frozen count's sweeps and counts, simulated row by row apart from
    the kernel: each point is checked first at the first multiple of
    `first` at least `first` rows past its dominance index M, then twice as
    many rows past each check that it fails, until its pivot passes the
    margin.  Returns the counts, the (rows, points) of each round of sweeps,
    every sweep from row 1, and each point's last checked row."""
    m = np.maximum.accumulate(rec.dominance_index(xs))
    checks = [first * ((m + 2 * first - 1) // first)]
    while len(checks) < rounds:
        checks.append(checks[-1] + first * 2 ** len(checks))
    checks = np.array(checks)
    c, lam = rec.coeff_arrays(int(checks.max()) + 1)
    v, neg = np.full(xs.size, np.inf), np.zeros(xs.size, dtype=np.int64)
    counts, passed = np.full(xs.size, -1), np.full(xs.size, rounds)
    for k in range(int(checks.max())):
        v = (c[k] - xs) - lam[k] / v
        neg += v < 0.0
        r = np.argmax(checks == k + 1, axis=0)
        at = (passed == rounds) & (checks[r, np.arange(xs.size)] == k + 1)
        ok = at & (v >= 2.0 * np.sqrt(lam[k + 1]))
        counts[ok], passed[ok] = neg[ok], r[ok]
    assert np.all(passed < rounds)
    swept = []
    for r in range(int(passed.max()) + 1):
        alive = passed >= r
        swept.append((int(checks[r, alive].max()), int(alive.sum())))
    return counts, swept, checks[passed, np.arange(xs.size)]


def test_frozen_recount_sweeps_afresh_to_the_next_stop():
    # each point is swept to its own check row past its own dominance index
    # M; points whose pivot misses the margin there are swept afresh from
    # row 1 to their next check, each dropped at the first check it passes,
    # with the counts of a sweep over rows 1..2M+1; every round's counts and
    # last pivots are bitwise one sweep to its stops.  Shorter first steps
    # drop the re-counted points over several sweeps
    xs = np.linspace(0.0, 1000.0, 2001)
    pivot_sweep = recurrence._pivot_sweep
    for kappa, first in [(1.0, recurrence._FROZEN_ROWS), (0.2, 3), (3.0, 3)]:
        rec = rabi_recurrence(RabiParams(kappa=kappa, delta=0.4))
        calls = []

        def recording(c, lam, xs, derivative, stops):
            out = pivot_sweep(c, lam, xs, derivative, stops=stops)
            calls.append((c, lam, xs.copy(), np.asarray(stops).copy(), out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "_pivot_sweep", recording)
            mp.setattr(recurrence, "_FROZEN_ROWS", first)
            got = _frozen_counts(rec, xs)
        expect, rounds, stop = _frozen_schedule(rec, xs, first, 8)
        assert [(int(stops.max()), x.size) for _, _, x, stops, _ in calls] == rounds
        np.testing.assert_array_equal(got, expect)
        for c, lam, x, stops, (counts, last, _) in calls[1:]:
            oracle, pivots = _row_by_row(c, lam, x, stops)
            np.testing.assert_array_equal(counts, oracle)
            assert _same(last, pivots)
        m = rec.dominance_index(xs)
        recounted = stop > m + first
        assert 0 < np.count_nonzero(recounted) < xs.size
        rows = 2 * int(m.max()) + 1
        assert stop.max() < rows  # the re-counted points stop before the batch's doubling
        c, lam = rec.coeff_arrays(rows)
        np.testing.assert_array_equal(got, _sturm_counts(c, lam, xs))
        for i in np.flatnonzero(~recounted)[::50]:
            np.testing.assert_array_equal(got[i], _sturm_counts(c[: stop[i]], lam[: stop[i]], xs[i : i + 1]))


def test_table_counts_freeze_at_their_own_dominance_row():
    # a table's count at a point stops past the last row that is not
    # dominated there (lambda_{n_cap} = 0), or runs the whole table; either
    # way it is the count of the whole table, also with a deep site in the
    # last rows and on the trap table
    rng = np.random.default_rng(11)
    trap_c = np.arange(400.0)
    trap_c[200] = -5.0
    tables = [(trap_c, np.full(399, 0.04))]
    for n in (2, 30, 300):
        for site in (n // 2, n - 2, n - 1):
            c = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, size=n)
            c[max(site, 0)] = -float(rng.uniform(2.0, 6.0))
            tables.append((c, rng.uniform(0.02, 0.5, size=n - 1)))
    pivot_sweep = recurrence._pivot_sweep
    for c, lam in tables:
        rec = MonicRecurrence.from_arrays(c, lam)
        cc, ll = rec.coeff_arrays(rec.n_cap)
        eig = eigvalsh_tridiagonal(cc, np.sqrt(ll[1:]))
        xs = np.concatenate((eig - 1e-9, eig + 1e-9, 0.5 * (eig[:-1] + eig[1:]), rng.uniform(-8.0, c.size + 2.0, 64)))
        swept = []

        def recording(c, lam, xs, derivative, stops):
            swept.append((xs.copy(), np.asarray(stops).copy()))
            return pivot_sweep(c, lam, xs, derivative, stops=stops)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence, "_pivot_sweep", recording)
            got = _frozen_counts(rec, xs)
        np.testing.assert_array_equal(got, _sturm_counts(cc, ll, xs))
        if c.size == 400:
            # the trap table's points below row 10 stop just past its site
            x0, stops = swept[0]
            assert stops[x0 < 10.0].max() < 250


# -- associated recurrences --------------------------------------------------


def test_associated_shift_indices():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    shifted = rec.associated(2)
    c0, lam0 = rec.coeff_arrays(8)
    c2, lam2 = shifted.coeff_arrays(6)
    np.testing.assert_allclose(c2, c0[2:8])
    np.testing.assert_allclose(lam2[1:], lam0[3:8])


def test_associated_zero_is_identity():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    assert rec.associated(0) is rec


# -- monic structure -----------------------------------------------------------


def test_evaluation_is_monic_of_full_degree():
    # fit a cubic through P_3 samples: leading coefficient exactly 1
    rec = rabi_recurrence(RabiParams(kappa=0.7, delta=0.3))
    xs = np.array([-1.0, 0.5, 2.0, 3.5])
    c, lam = rec.coeff_arrays(3)
    p_prev, p = np.zeros_like(xs), np.ones_like(xs)
    for ck, lk in zip(c, lam):
        p_prev, p = p, (xs - ck) * p - lk * p_prev
    vals = p
    coeffs = np.polyfit(xs, vals, 3)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from("+-"),
)
def test_rabi_recurrence_always_positive_definite(kappa, delta, parity):
    rec = rabi_recurrence(RabiParams(kappa=kappa, delta=delta, parity=parity))
    _, lam = rec.coeff_arrays(40)
    assert np.all(lam[1:] > 0.0)


# -- counts frozen at degree infinity ----------------------------------------


@pytest.mark.parametrize("kappa, parity", [(0.2, "+"), (1.0, "-"), (3.0, "+"), (8.0, "-")])
def test_frozen_counts_match_lapack(kappa, parity):
    # points between the levels of a truncation far past every dominance
    # index used; the last pivot also comes back from the one kernel
    rec = rabi_recurrence(RabiParams(kappa=kappa, delta=0.4, parity=parity))
    c, lam = rec.coeff_arrays(1200)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, 299))
    xs = np.concatenate(([eig[0] - 5.0], 0.5 * (eig[:-1] + eig[1:])))
    np.testing.assert_array_equal(_frozen_counts(rec, xs), np.arange(xs.size))
    counts, pivot, _ = _pivot_sweep(c[:50], lam[:50], xs[:3], False)
    np.testing.assert_array_equal(counts, _sturm_counts(c[:50], lam[:50], xs[:3]))
    assert np.all(pivot > 0.0)


def test_frozen_counts_need_a_table_or_an_index():
    with pytest.raises(ValueError, match="neither a table length nor a dominance index"):
        _frozen_counts(to_monic(rabi_raw_recurrence(RabiParams(0.5))), np.array([1.0]))
    table = MonicRecurrence.from_arrays(np.arange(30.0), np.full(29, 0.3))
    c, lam = table.coeff_arrays(30)
    xs = np.linspace(-2.0, 40.0, 97)
    np.testing.assert_array_equal(_frozen_counts(table, xs), _sturm_counts(c, lam, xs))


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
def test_frozen_count_refuses_a_non_finite_point(x):
    # at inf the int64 dominance index would wrap to -2^63, and the count
    # over zero rows would come back as 0
    with pytest.raises(ValueError, match="finite"):
        _frozen_counts(displaced_recurrence(0.5), np.array([1.0, x]))


def test_frozen_count_refuses_an_index_past_int64():
    # M ~ x past 2^63 ~ 9.2e18 would wrap in the int64 cast
    with pytest.raises(PrecisionExhausted, match="int64"):
        _frozen_counts(displaced_recurrence(0.5), np.array([0.0, 1e19]))


def test_frozen_count_refuses_rows_past_int64_before_any_sweep(small_coeff_arrays):
    # at x = 8e16 the displaced index M ~ 8e16 fits int64, but the last row
    # of its doublings, 128 (M + 1) - 1, would wrap to a negative row: M is
    # checked against the row limit before any row is computed
    with pytest.raises(PrecisionExhausted, match=r"x=8e\+16 .* M = \d+, past the row limit 4194304"):
        _frozen_counts(displaced_recurrence(0.5), np.array([0.0, 8e16]))


def test_frozen_count_refuses_a_billion_rows(small_coeff_arrays):
    # x = 1e9 on displaced kappa = 0.5 would ask coeff_arrays for about 1e9
    # rows, 16 GB of c and lambda
    with pytest.raises(PrecisionExhausted, match=r"x=1000000000\.0 .*past the row limit"):
        _frozen_counts(displaced_recurrence(0.5), np.array([1e9]))


@pytest.mark.parametrize("past", [0, 1])
def test_frozen_count_row_limit_is_exact(small_coeff_arrays, past):
    # the first check row of M = _ROW_LIMIT - 32 is _ROW_LIMIT - 16, so its
    # round asks coeff_arrays for _ROW_LIMIT - 15 rows; one more M would
    # need _ROW_LIMIT + 1 rows and is refused before they are materialized
    m = recurrence._ROW_LIMIT - 2 * recurrence._FROZEN_ROWS + past
    rec = MonicRecurrence(
        c=lambda n: np.asarray(n, dtype=float),
        lam=lambda n: np.ones(np.shape(n)),
        dominance_index=lambda x: np.full(np.shape(x), m, dtype=np.int64),
    )
    with pytest.raises(LargeAllocation if past == 0 else PrecisionExhausted):
        _frozen_counts(rec, np.array([1.0]))


def test_frozen_count_refuses_a_later_round_past_the_row_limit(monkeypatch):
    # c = 0, lambda = 1 is dominated nowhere above 2 either, so a wrong
    # index lets the rounds run on; the round whose stop would pass the
    # limit is refused before coeff_arrays is asked for its rows
    monkeypatch.setattr(recurrence, "_ROW_LIMIT", 4096)
    rec = MonicRecurrence(
        c=lambda n: np.zeros(np.shape(n)),
        lam=lambda n: np.ones(np.shape(n)),
        dominance_index=lambda x: np.full(np.shape(x), 1000),
    )
    asked = []
    coeff_arrays = MonicRecurrence.coeff_arrays

    def recording(self, n):
        asked.append(n)
        return coeff_arrays(self, n)

    monkeypatch.setattr(MonicRecurrence, "coeff_arrays", recording)
    with pytest.raises(PrecisionExhausted, match=r"x=5\.0 .*needs 5089 rows .*M = 1000, past the row limit 4096"):
        _frozen_counts(rec, np.array([5.0]))
    assert len(asked) > 1 and max(asked) <= 4096


def test_wrong_dominance_index_raises_instead_of_counting_on():
    # c = 0, lambda = 1 is dominated nowhere in [-2, 2] nor above it, so a
    # claimed index cannot freeze the count there
    rec = MonicRecurrence(
        c=lambda n: np.zeros(np.shape(n)),
        lam=lambda n: np.ones(np.shape(n)),
        dominance_index=lambda x: np.full(np.shape(x), 3),
    )
    with pytest.raises(PrecisionExhausted, match="does not freeze"):
        _frozen_counts(rec, np.array([0.0, 5.0]))
    np.testing.assert_array_equal(_frozen_counts(rec, np.array([-10.0])), [0])
