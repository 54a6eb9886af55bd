import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from zeroflow import (
    GrowthSchedule,
    MonicRecurrence,
    NonMonotoneFlow,
    RabiParams,
    RawRecurrence,
    RecurrenceAsymptotics,
    ZeroCoagulation,
    classify,
    displaced_oscillator_spectrum,
    displaced_recurrence,
    flow_trace,
    rabi_raw_recurrence,
    rabi_recurrence,
    run_flows,
    to_monic,
    zeros_of,
)
from zeroflow import classifier, flows, recurrence
from zeroflow.flows import ZeroTableau, _bisect_tol
from zeroflow.recurrence import _first_rows, _zero_bounds

from conftest import (
    hermite_recurrence,
    jacobi_eigenvalues,
    random_recurrence,
    wide_range_recurrence,
)


# -- zeros_of ----------------------------------------------------------------


def test_zeros_of_hermite_cubic():
    tab = zeros_of(hermite_recurrence(), 3, 3)
    np.testing.assert_allclose(tab.zeros, [-np.sqrt(3), 0.0, np.sqrt(3)], atol=1e-14)


def test_zeros_of_charlier_quadratic():
    rec = displaced_recurrence(0.2)
    root = np.sqrt(1.16)
    np.testing.assert_allclose(
        zeros_of(rec, 2, 2).zeros, [(1 - root) / 2, (1 + root) / 2], atol=1e-14
    )


def test_zeros_of_degree_one_is_c0():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    np.testing.assert_allclose(zeros_of(rec, 1, 1).zeros, [0.4], atol=1e-15)


def test_zeros_of_validates_count():
    with pytest.raises(ValueError):
        zeros_of(hermite_recurrence(), 3, 4)
    with pytest.raises(ValueError):
        zeros_of(hermite_recurrence(), 3, 0)


def test_zeros_of_matches_jacobi_oracle():
    rec = rabi_recurrence(RabiParams(kappa=0.7, delta=0.3, parity="-"))
    got = zeros_of(rec, 60, 60).zeros
    expect = jacobi_eigenvalues(rec, 60, 60)
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_coagulated_zeros_raise():
    # two eigenvalues split by ~1e-20: below the certifiable resolution
    rec = MonicRecurrence.from_arrays([0.0, 0.0], [1e-40])
    with pytest.raises(ZeroCoagulation):
        zeros_of(rec, 2, 2)


def test_coagulated_zeros_raise_on_the_isolating_path():
    # two identical 20-row halves joined by lambda = 1e-40: each zero of a
    # half is a pair split by ~1e-20, and 40 cold zeros take the wide
    # isolation, whose cells close at the tolerance with two zeros inside
    rng = np.random.default_rng(7)
    c, lam = rng.uniform(-1.0, 1.0, 20), rng.uniform(0.5, 2.0, 19)
    rec = MonicRecurrence.from_arrays(np.tile(c, 2), np.concatenate((lam, [1e-40], lam)))
    with pytest.raises(ZeroCoagulation):
        zeros_of(rec, 40, 40)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.booleans())
def test_cold_zeros_match_lapack(seed, n, wide):
    # counts of 16 or fewer zeros multisect their brackets; more take the
    # isolating path: either way the zeros are those of an independent
    # eigensolver
    rng = np.random.default_rng(seed)
    rec = (wide_range_recurrence if wide else random_recurrence)(rng)
    count = int(rng.integers(1, n))
    got = zeros_of(rec, n, count).zeros
    c, lam = rec.coeff_arrays(n)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, count - 1))
    # LAPACK's eigenvalue error scales with the matrix norm, not the zero
    norm = max(1.0, float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam))))
    np.testing.assert_allclose(got, eig, rtol=0, atol=1e-12 * norm)


def test_zeros_far_above_the_gershgorin_bound():
    # two sublattices, diagonal 0 and 1e6 with couplings 1e3: the Gershgorin
    # bound is near -2000, the first zero near -4.  The 200 zeros sit in one
    # cell of the first pass's wide isolation; multisection alone gives each
    # bracket one probe per pass, halving it from the Gershgorin bound
    n, count = 600, 200
    rec = MonicRecurrence.from_arrays(
        np.where(np.arange(n) % 2 == 0, 0.0, 1e6), np.full(n, 1e6)
    )
    c, lam = rec.coeff_arrays(n)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, count - 1))
    np.testing.assert_allclose(zeros_of(rec, n, count).zeros, eig, rtol=0, atol=1e-12 * 2e6)
    np.testing.assert_allclose(_multisected(rec, n, count), eig, rtol=0, atol=1e-12 * 2e6)


# -- isolate, then Newton ------------------------------------------------------


def _multisected(rec, n, count):
    """The cold zeros by multisection alone, to the bisection tolerance."""
    c, lam = rec.coeff_arrays(n)
    lo_glob, hi_glob = _zero_bounds(c, lam)
    lo, hi = np.full(count, lo_glob), np.full(count, hi_glob)
    targets = np.arange(1, count + 1)
    lo_ct, hi_ct = np.zeros(count, dtype=np.int64), np.full(count, n, dtype=np.int64)
    flows._multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, np.arange(count))
    return 0.5 * (lo + hi)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 400), st.booleans())
def test_polished_zeros_match_multisection_and_lapack(seed, n, wide):
    # cold zeros, from one to all: isolated in cells by a wide multisection
    # of their shared bracket, then polished by Newton steps; the result must
    # be the multisection one
    rng = np.random.default_rng(seed)
    rec = (wide_range_recurrence if wide else random_recurrence)(rng, n)
    count = int(rng.integers(1, n + 1))
    sweeps = [0]
    with pytest.MonkeyPatch.context() as mp:
        sturm_newton = flows._sturm_newton

        def counting(c, lam, xs):
            sweeps[0] += 1
            return sturm_newton(c, lam, xs)

        mp.setattr(flows, "_sturm_newton", counting)
        got = zeros_of(rec, n, count).zeros
    assert sweeps[0] > 0
    ref = _multisected(rec, n, count)
    assert np.all(np.abs(got - ref) <= 4.0 * _bisect_tol(ref))
    c, lam = rec.coeff_arrays(n)
    norm = max(1.0, float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam))))
    np.testing.assert_allclose(got, jacobi_eigenvalues(rec, n, count), rtol=0, atol=1e-12 * norm)


@pytest.mark.parametrize("count", [10, 16])
def test_few_zeros_are_isolated_and_polished_in_few_sweeps(count):
    # a solve of few zeros takes the path of a solve of many: one wide
    # multisection isolates them, Newton polishes them, and the re-count
    # checks them, in at most 8 pivot sweeps (multisection alone takes more)
    rec = rabi_recurrence(RabiParams(1.0, 0.4))
    sweeps = [0]
    pivot_sweep = recurrence._pivot_sweep

    def counting(*args, **kwargs):
        sweeps[0] += 1
        return pivot_sweep(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_pivot_sweep", counting)
        got = zeros_of(rec, 48, count).zeros
    assert sweeps[0] <= 8
    c, lam = rec.coeff_arrays(48)
    norm = max(1.0, float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam))))
    np.testing.assert_allclose(got, jacobi_eigenvalues(rec, 48, count), rtol=0, atol=1e-12 * norm)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda x, s: -s,  # steps away from the zero
        lambda x, s: 3.0 * s,  # a third of the step: slow and never within tol in time
        lambda x, s: np.full_like(s, np.nan),  # every point an apparent exact hit
        lambda x, s: 1.0 / (x - np.round(x, 3)),  # converges onto a wrong grid point
        lambda x, s: s * (1.0 + 1e-3 * np.sign(np.sin(1e6 * x))),  # slightly off
    ],
)
def test_wrong_newton_steps_cannot_pass_silently(monkeypatch, wrong):
    # whatever the derivative sweep says, the count-verified brackets and the
    # final re-count decide: every zero is right, or the solve raises
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    ref = _multisected(rec, 300, 200)
    sturm_newton = flows._sturm_newton

    def lying(c, lam, xs):
        counts, s = sturm_newton(c, lam, xs)
        with np.errstate(divide="ignore"):
            return counts, wrong(xs, s)

    monkeypatch.setattr(flows, "_sturm_newton", lying)
    try:
        got = zeros_of(rec, 300, 200).zeros
    except ZeroCoagulation:
        return
    assert np.all(np.abs(got - ref) <= 4.0 * _bisect_tol(ref))


def test_exact_hits_in_the_newton_sweep():
    # c = 0, lambda = 1: 0 is a zero of every odd P_k and the zeros of P_6 and
    # P_42 are zeros of P_300 (301 = 7 * 43), so sweeps meet exact hits; the
    # suite turns any escaping RuntimeWarning into an error
    rec = MonicRecurrence.from_arrays(np.zeros(300), np.ones(299))
    nonfinite = [0]
    sturm_newton = flows._sturm_newton

    def watching(c, lam, xs):
        counts, s = sturm_newton(c, lam, xs)
        nonfinite[0] += int(np.count_nonzero(~np.isfinite(s)))
        return counts, s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_sturm_newton", watching)
        got = zeros_of(rec, 300, 300).zeros
    assert nonfinite[0] > 0
    np.testing.assert_allclose(got, jacobi_eigenvalues(rec, 300, 300), rtol=0, atol=1e-14)
    np.testing.assert_allclose(got, 2.0 * np.cos(np.arange(300, 0, -1) * np.pi / 301), atol=1e-14)


@pytest.mark.parametrize("n", [1020, 1530, 2295])
def test_cold_degree_takes_few_kernel_calls(monkeypatch, n):
    # 1000 Rabi zeros at each degree of the growth schedule from 1020 cost
    # one or two isolating counts, Newton sweeps and one re-count, not ~57
    # bisection passes; the re-count skips the sides that the brackets
    # already prove
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    ref = _multisected(rec, n, 1000)
    calls = []  # (kernel, points) per call
    sturm_counts, sturm_newton = flows._sturm_counts, flows._sturm_newton

    def counting(kernel, name):
        def wrapped(c, lam, xs):
            calls.append((name, xs.size))
            return kernel(c, lam, xs)

        return wrapped

    monkeypatch.setattr(flows, "_sturm_counts", counting(sturm_counts, "count"))
    monkeypatch.setattr(flows, "_sturm_newton", counting(sturm_newton, "newton"))
    got = zeros_of(rec, n, 1000).zeros
    names = [name for name, _ in calls]
    assert len(calls) <= 13
    assert names.index("newton") <= 2  # isolating counts
    last_newton = len(names) - 1 - names[::-1].index("newton")
    recount = calls[last_newton + 1]
    assert recount[0] == "count" and recount[1] <= 1100
    assert np.all(np.abs(got - ref) <= 4.0 * _bisect_tol(ref))
    # every returned zero passes the re-count of [x - tol/2, x + tol/2]
    c, lam = rec.coeff_arrays(n)
    half = 0.5 * _bisect_tol(got)
    np.testing.assert_array_equal(sturm_counts(c, lam, got - half), np.arange(1000))
    np.testing.assert_array_equal(sturm_counts(c, lam, got + half), np.arange(1, 1001))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 400), st.booleans(), st.booleans())
def test_one_sided_recount_accepts_only_zeros_the_full_recount_passes(seed, n, wide, lie):
    # a polished zero is re-counted only on the sides of [x - tol/2, x + tol/2]
    # that lie inside its count-verified bracket; every zero returned must
    # still pass the count at both ends, or the simplicity check must have
    # raised.  A lying derivative sweep steers Newton onto a wrong grid, so
    # the re-count has wrong zeros to reject.
    rng = np.random.default_rng(seed)
    rec = (wide_range_recurrence if wide else random_recurrence)(rng, n)
    count = int(rng.integers(17, n + 1))
    sturm_newton = flows._sturm_newton

    def lying(c, lam, xs):
        with np.errstate(divide="ignore"):
            return sturm_newton(c, lam, xs)[0], 1.0 / (xs - np.round(xs, 3))

    try:
        with pytest.MonkeyPatch.context() as mp:
            if lie:
                mp.setattr(flows, "_sturm_newton", lying)
            got = zeros_of(rec, n, count).zeros
    except ZeroCoagulation:
        return
    c, lam = rec.coeff_arrays(n)
    half = 0.5 * _bisect_tol(got)
    np.testing.assert_array_equal(flows._sturm_counts(c, lam, got - half), np.arange(count))
    np.testing.assert_array_equal(flows._sturm_counts(c, lam, got + half), np.arange(1, count + 1))


def test_recount_failures_multisect_from_a_ladder_bracket():
    # "polished" points put off their zeros by 1.5 to 1.5 * 2**20 half
    # re-count widths, inside brackets as wide as the isolating cells, fail
    # the re-count; the ladder x -/+ (tol/2) 16**j counted in one sweep
    # brackets each zero within 16 times its distance from x, so
    # multisection starts there and not from the cell
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    ref = _multisected(rec, 300, 200)
    multisect = flows._multisect
    moved, entered = {}, []

    def off(c, lam, lo, hi, lo_ct, hi_ct, targets, idx, steps=None):
        shift = np.where(idx % 2, 1.5, -1.5) * 2.0 ** (idx % 21) * 0.5 * _bisect_tol(ref[idx])
        y = np.clip(ref[idx] + shift, lo[idx], hi[idx])
        moved.update(zip(idx.tolist(), y.tolist()))
        return y

    def recording(c, lam, lo, hi, lo_ct, hi_ct, targets, active, steps=None):
        entered.extend(zip(active.tolist(), (hi[active] - lo[active]).tolist()))
        multisect(c, lam, lo, hi, lo_ct, hi_ct, targets, active, steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_polish", off)
        mp.setattr(flows, "_multisect", recording)
        got = zeros_of(rec, 300, 200).zeros
    assert np.all(np.abs(got - ref) <= 4.0 * _bisect_tol(ref))
    assert len(entered) > 150
    for i, width in entered:
        assert width <= 16.0 * (abs(moved[i] - ref[i]) + 4.0 * _bisect_tol(ref[i]))


def test_tol_below_the_double_spacing_is_a_usage_error():
    # at kappa = 100 the levels lie near -10**4, where doubles are 1.8e-12
    # apart: x - 1e-13 rounds to x, so no count can prove an enclosure
    rec = displaced_recurrence(100.0)
    with pytest.raises(ValueError, match=r"tol=1e-13 .*np\.spacing\(x\)"):
        run_flows(rec, 3, tol=1e-13)
    res = run_flows(rec, 3, tol=1e-12)
    assert res.complete


def test_4000_displaced_levels_enclose_the_exact_ladder():
    # levels k - kappa**2, k = 0 .. 3999: each lies in [xi - tol, xi] up to
    # the bisection resolution of xi, 2**-50 * max(1, |xi|)
    res = run_flows(displaced_recurrence(0.5), 4000, tol=1e-8)
    exact = np.arange(4000) - 0.25
    slack = _bisect_tol(res.xi)
    assert res.complete
    assert np.all(exact >= res.xi - res.tolerance - slack)
    assert np.all(exact <= res.xi + slack)


# -- interlacing (property) --------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
def test_interlacing_across_degree(seed, n):
    rec = random_recurrence(np.random.default_rng(seed))
    z_n = zeros_of(rec, n, n).zeros
    z_up = zeros_of(rec, n + 1, n + 1).zeros
    slack = 4.0 * 2.0**-50 * np.maximum(1.0, np.abs(z_n))
    assert np.all(z_up[:n] < z_n + slack)
    assert np.all(z_n < z_up[1:] + slack)


# -- run_flows ---------------------------------------------------------------


def test_run_flows_displaced_oracle():
    rec = displaced_recurrence(0.2)
    res = run_flows(rec, 5, tol=1e-10)
    assert res.complete
    np.testing.assert_allclose(res.xi, displaced_oscillator_spectrum(0.2, 5), atol=1e-10)
    first = flows._steps(rec, 5)
    for lv in res.levels:
        assert lv.converged and lv.n_converged == first


def test_run_flows_rabi_vs_jacobi_oracle():
    for parity in "+-":
        rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity=parity))
        res = run_flows(rec, 10, tol=1e-10)
        expect = jacobi_eigenvalues(rec, 800, 10)
        np.testing.assert_allclose(res.xi, expect, atol=1e-9)


@pytest.mark.parametrize(
    "kappa, parity", [(1.75, "+"), (2.4, "+"), (2.5, "-"), (2.6, "+"), (2.75, "-")]
)
def test_run_flows_strong_coupling_is_monotone(kappa, parity):
    # points where a count that is not monotone in floating point made a
    # flow rise by more than the bisection slack (NonMonotoneFlow); the
    # default schedule solves one degree here, so the flows are also
    # followed from degree 40 up, across the degrees where that fault hit
    rec = rabi_recurrence(RabiParams(kappa=kappa, delta=0.4, parity=parity))
    for schedule in (None, GrowthSchedule(40)):
        res = run_flows(rec, 20, tol=1e-10, schedule=schedule)
        assert res.complete
        n_final = max(lv.n_converged for lv in res.levels)
        expect = jacobi_eigenvalues(rec, 3 * n_final, 20)
        np.testing.assert_allclose(res.xi, expect, rtol=0, atol=1e-10)


def test_run_flows_histories_strictly_decrease():
    rec = displaced_recurrence(0.5)
    res = run_flows(rec, 4, tol=1e-12)
    assert res.tolerance == 1e-12
    assert res.model_descriptor.startswith("displaced")


def test_run_flows_budget_exhaustion_returns_partial():
    # at degree 8 the displaced kappa = 1 flows are 6e-5 to 3e-2 above their
    # levels: no certificate within tol
    rec = displaced_recurrence(1.0)
    res = run_flows(rec, 3, tol=1e-10, schedule=[6, 8])
    assert not res.complete
    assert all(not lv.converged for lv in res.levels)
    # the partial values are still the best tableau so far: upper bounds
    error = res.xi - displaced_oscillator_spectrum(1.0, 3)
    assert np.all(error > 0.0) and np.all(error < 0.1)
    assert np.max(error) > res.tolerance


def test_run_flows_parity_swap_matches_delta_flip():
    a = run_flows(rabi_recurrence(RabiParams(0.2, 0.4, "-")), 8, tol=1e-10)
    b = run_flows(rabi_recurrence(RabiParams(0.2, -0.4, "+")), 8, tol=1e-10)
    np.testing.assert_array_equal(a.xi, b.xi)


def test_run_flows_is_deterministic():
    rec = rabi_recurrence(RabiParams(kappa=0.4, delta=0.7))
    a = run_flows(rec, 6, tol=1e-9)
    b = run_flows(rec, 6, tol=1e-9)
    assert a == b


def test_run_flows_coagulation_diagnostics():
    # associated-polynomial flows land on the main flows to 5+ decimals for
    # l a few levels up: the numerical-invisibility mechanism
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    main = run_flows(rec, 10, tol=1e-11)
    assoc = run_flows(rec.associated(1), 9, tol=1e-11)
    for l in range(5, 9):
        assert abs(assoc.xi[l - 1] - main.xi[l]) < 1e-5


def test_run_flows_rejects_bad_args():
    rec = displaced_recurrence(0.2)
    with pytest.raises(ValueError):
        run_flows(rec, 0, tol=1e-8)
    with pytest.raises(ValueError):
        run_flows(rec, 3, tol=0.0)
    with pytest.raises(ValueError, match="tol must be finite and > 0; got inf"):
        run_flows(rec, 3, tol=math.inf)
    with pytest.raises(ValueError):
        run_flows(rec, 10, tol=1e-8, schedule=GrowthSchedule(5))


# -- certified stop rule -----------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _assert_enclosed(res, exact, oracle_error=0.0):
    # xi_l in [xi - tol, xi], up to the bisection resolution of xi and the
    # oracle's own rounding
    slack = 4.0 * _bisect_tol(res.xi) + oracle_error
    assert res.complete
    assert np.all(exact >= res.xi - res.tolerance - slack)
    assert np.all(exact <= res.xi + slack)


def test_trap_table_finds_the_deep_level():
    # a deep site at index 200, far past the degree where the flows above it
    # stop moving: nothing certifies before the cut-off includes the site.
    # The default schedule starts past the site; a growth from degree 40
    # climbs to it across four degrees
    c = np.arange(400.0)
    c[200] = -5.0
    lam = np.full(399, 0.04)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam), select="i", select_range=(0, 19))
    for schedule in (None, GrowthSchedule(40)):
        res = run_flows(MonicRecurrence.from_arrays(c, lam), 20, tol=1e-10, schedule=schedule)
        assert res.complete
        assert abs(res.xi[0] - eig[0]) <= 1e-10
        assert res.xi[0] < -5.0
        assert min(lv.n_converged for lv in res.levels) > 200


@pytest.mark.parametrize("kappa", [0.2, 1.0, 3.0])
def test_displaced_enclosures_contain_the_exact_levels(kappa):
    res = run_flows(displaced_recurrence(kappa), 50, tol=1e-10)
    assert res.complete
    _assert_enclosed(res, displaced_oscillator_spectrum(kappa, 50))


def test_scan_grid_enclosures_contain_lapack():
    # the benchmark's scan grid: both parities, kappa = 0.25 ... 3, 20 levels
    for kappa in 0.25 * np.arange(1, 13):
        for parity in "+-":
            rec = rabi_recurrence(RabiParams(kappa=float(kappa), delta=0.4, parity=parity))
            res = run_flows(rec, 20, tol=1e-10)
            n_final = max(lv.n_converged for lv in res.levels)
            c, lam = rec.coeff_arrays(3 * n_final)
            norm = float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam)))
            _assert_enclosed(res, jacobi_eigenvalues(rec, 3 * n_final, 20), 8 * _EPS * norm)


def test_scan_oracle_size_from_the_degrees_is_converged():
    # the benchmark's scan checker sizes its LAPACK oracle as
    # max(3 * max n_converged, 200) rows: at that size the 20 lowest
    # eigenvalues of every Rabi request agree with 4000 rows within tol / 100
    tol = 1e-10
    for kappa in 0.25 * np.arange(1, 13):
        for parity in "+-":
            rec = rabi_recurrence(RabiParams(kappa=float(kappa), delta=0.4, parity=parity))
            res = run_flows(rec, 20, tol=tol)
            dim = max(3 * max(lv.n_converged for lv in res.levels), 200)
            error = jacobi_eigenvalues(rec, dim, 20) - jacobi_eigenvalues(rec, 4000, 20)
            assert np.max(np.abs(error)) <= tol / 100, (kappa, parity, dim)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(80, 240))
def test_deep_site_beyond_the_first_degree_is_found(seed, count, n):
    # a table whose deep site lies past degree count + 20: a stop rule that
    # trusts slow flows misses it, the frozen count does not.  The default
    # first degree reads the site off the table's dominance rows; a growth
    # from count + 20 reaches it only across several degrees
    rng = np.random.default_rng(seed)
    c = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, size=n)
    site = int(rng.integers(count + 21, n))
    c[site] = -float(rng.uniform(2.0, 6.0))
    lam = rng.uniform(0.02, 0.5, size=n - 1)
    eig = eigvalsh_tridiagonal(c, np.sqrt(lam), select="i", select_range=(0, count - 1))
    norm = float(np.max(np.abs(c)) + 2.0 * np.sqrt(np.max(lam)))
    for schedule in (None, GrowthSchedule(count + 20)):
        res = run_flows(MonicRecurrence.from_arrays(c, lam), count, tol=1e-10, schedule=schedule)
        _assert_enclosed(res, eig, 8 * _EPS * norm)
        assert res.xi[0] < -1.0


def _count_solves(monkeypatch) -> list:
    """The degrees zeros_of is asked to solve, in order."""
    solved = []
    zeros_of = flows.zeros_of

    def counting(rec, n, count):
        solved.append(n)
        return zeros_of(rec, n, count)

    monkeypatch.setattr(flows, "zeros_of", counting)
    return solved


def test_models_without_a_frozen_count_are_refused(monkeypatch):
    # no frozen count, no stop rule: refused before any zero is computed;
    # with the Rabi index attached, the same to_monic model certifies its
    # levels
    p = RabiParams(kappa=0.5, delta=0.4)
    rec = to_monic(rabi_raw_recurrence(p))
    assert rec.dominance_index is None and rec.n_cap is None
    solved = _count_solves(monkeypatch)
    remedies = r"dataclasses\.replace\(to_monic\(raw\), dominance_index=m\).*from_arrays"
    with pytest.raises(ValueError, match=remedies):
        run_flows(rec, 5, tol=1e-10)
    with pytest.raises(ValueError, match=remedies):
        flow_trace(rec, 1, tol=1e-10)
    assert solved == []
    indexed = dataclasses.replace(rec, dominance_index=rabi_recurrence(p).dominance_index)
    res = run_flows(indexed, 5, tol=1e-10)
    assert res.complete
    expect = jacobi_eigenvalues(rabi_recurrence(p), 400, 5)
    np.testing.assert_allclose(res.xi, expect, rtol=0, atol=1e-10)


def test_deep_rabi_certifies_at_the_first_degree(monkeypatch):
    # every one of the 1000 levels is certified in the first solve, each at
    # its own degree N(xi) of the first step function, which tops out at
    # the frozen count's first rows at the top level, 1056, so no other
    # degree is solved
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4))
    assert flows._steps(rec, 1000).top == 1056
    solved = _count_solves(monkeypatch)
    res = run_flows(rec, 1000, tol=1e-6)
    assert len(solved) == 1
    assert res.complete
    n_conv = np.array([lv.n_converged for lv in res.levels])
    np.testing.assert_array_equal(n_conv, solved[0].at(res.xi))
    assert n_conv.max() <= 1056
    assert n_conv.sum() <= 0.6 * 1000 * 1039


@pytest.mark.parametrize("kind", ["rabi", "displaced", "table"])
@pytest.mark.parametrize("count", [20, 127, 128, 300, 1000])
def test_default_steps_never_decrease_nor_pass_the_first_degree(kind, count):
    # under 128 levels the default degree is one; from 128 on it is a step
    # function with at most count // 64 steps, nondecreasing in x.  Each
    # degree is the frozen count's first rows, the first multiple of 16 at
    # least 16 past the dominance rows M at its end, floored at its level
    # count and at the step before, and capped at the table length
    if kind == "rabi":
        rec = rabi_recurrence(RabiParams(kappa=0.7, delta=0.4))
    elif kind == "displaced":
        rec = displaced_recurrence(1.5)
    else:
        rng = np.random.default_rng(count)
        c = np.arange(1500.0) + rng.uniform(-0.3, 0.3, size=1500)
        c[700] = -4.0
        rec = MonicRecurrence.from_arrays(c, rng.uniform(0.02, 0.5, size=1499))
    head_c, head_lam = rec.coeff_arrays(count)
    if rec.n_cap is None:
        dominance = lambda x: int(rec.dominance_index(np.array([x]))[0])
    else:
        c, lam = rec.coeff_arrays(rec.n_cap)
        root = np.sqrt(np.append(lam, 0.0))
        # one past the last row k with c_k - x < sqrt(lambda_k) + sqrt(lambda_{k+1})
        dominance = lambda x: int(np.flatnonzero(np.append(True, c - x < root[:-1] + root[1:]))[-1])
    steps = flows._steps(rec, count)
    if count < 128:
        x = _zero_bounds(head_c, head_lam)[1]
        assert steps == min(max(count, 16 * math.ceil((dominance(x) + 16) / 16)), rec.n_cap or math.inf)
        return
    assert 2 <= steps.degrees.size <= count // 64 and steps.ends.size == steps.degrees.size - 1
    assert np.all(np.diff(steps.ends) >= 0) and np.all(np.diff(steps.degrees) >= 0)
    assert steps.degrees[0] >= 64
    levels = [64 * j for j in range(1, steps.degrees.size)] + [count]
    before = 0
    for k, degree in zip(levels, steps.degrees):
        x = _zero_bounds(head_c[:k], head_lam[:k])[1]
        if k < count:
            assert x == steps.ends[k // 64 - 1]
        before = min(max(k, 16 * math.ceil((dominance(x) + 16) / 16), before), rec.n_cap or math.inf)
        assert degree == before
    xs = np.linspace(steps.ends[0] - 10.0, steps.ends[-1] + 10.0, 999)
    assert np.all(np.diff(steps.at(xs)) >= 0)
    if kind == "table":
        assert steps.degrees[0] > 700  # the deep site is below every level


@pytest.mark.parametrize("cut", [14, None])
def test_short_steps_grow_pointwise_and_still_certify(monkeypatch, cut):
    # steps 14 rows short of the frozen count's first rows fail to certify
    # some levels: the growth schedule grows each step by 1.5 until they
    # do.  Steps far too short (each at its own level count) make the count
    # jump by many levels at their ends: that solve falls back to the step
    # function's top degree, and so do the cut-offs after it.  Every level
    # matches LAPACK
    rec = rabi_recurrence(RabiParams(kappa=1.0, delta=0.4))
    short = (lambda m: 0 * m) if cut is None else (lambda m: _first_rows(m) - cut)
    monkeypatch.setattr(flows, "_first_rows", short)
    solved = _count_solves(monkeypatch)
    res = run_flows(rec, 300, tol=1e-8)
    assert len(solved) >= 2 and isinstance(solved[0], flows._Steps)
    for a, b in zip(solved, solved[1:]):
        if isinstance(b, flows._Steps):
            np.testing.assert_array_equal(b.degrees, np.maximum(np.ceil(1.5 * a.degrees), a.degrees + 1))
        elif isinstance(a, flows._Steps):  # the fall-back solve
            assert b == a.top
        else:
            assert b > a
    assert isinstance(solved[-1], flows._Steps) == (cut is not None)
    expect = jacobi_eigenvalues(rec, 3 * max(lv.n_converged for lv in res.levels), 300)
    _assert_enclosed(res, expect, 1e-12 * 300)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(17, 120), st.booleans())
def test_zeros_under_a_step_function_are_the_steps_of_its_count(seed, count, wide):
    # with a degree N(x) per point, zero l is where C(x) = count of P_{N(x)}
    # below x steps from l - 1 to l, checked against counts of each degree
    # alone; a step of N inside a cell is found like any other
    rng = np.random.default_rng(seed)
    n = count + int(rng.integers(1, 200))
    rec = (wide_range_recurrence if wide else random_recurrence)(rng, n)
    c, lam = rec.coeff_arrays(n)
    lo, hi = _zero_bounds(c, lam)
    pieces = int(rng.integers(2, 6))
    ends = np.sort(rng.uniform(lo, hi, pieces - 1))
    degrees = np.sort(rng.integers(count, n + 1, pieces))
    degrees[-1] = n
    steps = flows._Steps(ends=ends, degrees=degrees)
    try:
        got = zeros_of(rec, steps, count).zeros
    except ZeroCoagulation:
        return  # C may step by two at an end of a step
    half = 0.5 * _bisect_tol(got)

    def count_at(x):
        d = int(steps.at(np.array([x]))[0])
        return int(flows._sturm_counts(c[:d], lam[:d], np.array([x]))[0])

    for l, (x, h) in enumerate(zip(got, half), start=1):
        assert count_at(x - h) <= l - 1 and count_at(x + h) >= l


def test_pole_fit_finds_the_pole_of_a_pole_plus_constant():
    # s = 1 / (x - z) + g sampled at two points on either side of z, or on
    # one side, gives z back as one of the two fits
    for z, g, x0, x1 in [(0.3, -7.5, 0.9, 0.6), (0.3, 4.0, -0.2, 0.1), (2.0, -1e3, 2.5, 2.2), (1.0, 0.0, 0.5, 1.25)]:
        s0, s1 = 1.0 / (x0 - z) + g, 1.0 / (x1 - z) + g
        fits = flows._pole_fit(np.array([x0]), np.array([s0]), np.array([x1]), np.array([s1]))
        assert min(abs(float(f[0]) - z) for f in fits) <= 1e-12


def test_every_scan_request_solves_one_degree(monkeypatch):
    # the benchmark's scan grid, seeded tables with a site in [40, 50) and
    # the trap table each certify all 20 levels at the first degree
    recs = [
        rabi_recurrence(RabiParams(kappa=float(kappa), delta=0.4, parity=parity))
        for kappa in 0.25 * np.arange(1, 13)
        for parity in "+-"
    ]
    rng = np.random.default_rng(2)
    for _ in range(4):
        c = np.arange(300.0) + rng.uniform(-0.3, 0.3, size=300)
        c[int(rng.integers(40, 50))] = -float(rng.uniform(2.0, 6.0))
        recs.append(MonicRecurrence.from_arrays(c, rng.uniform(0.02, 0.5, size=299)))
    c = np.arange(400.0)
    c[200] = -5.0
    trap = MonicRecurrence.from_arrays(c, np.full(399, 0.04))
    recs.append(trap)
    solved = _count_solves(monkeypatch)
    for rec in recs:
        solved.clear()
        res = run_flows(rec, 20, tol=1e-10)
        assert res.complete
        assert solved == [flows._steps(rec, 20)], rec.description
    assert solved[0] > 200  # the trap table's


def test_a_short_first_degree_grows_by_the_schedule(monkeypatch):
    # where the default degree falls short, the growth schedule from it
    # goes on: forced to start at the flow count, Rabi kappa = 3 visits
    # ceil(1.5 * 20) = 30 next and still certifies every level
    rec = rabi_recurrence(RabiParams(kappa=3.0, delta=0.4))
    monkeypatch.setattr(flows, "_steps", lambda rec, count: count)
    solved = _count_solves(monkeypatch)
    res = run_flows(rec, 20, tol=1e-10)
    assert solved[:2] == [20, 30]
    assert res.complete
    expect = jacobi_eigenvalues(rec, 3 * max(lv.n_converged for lv in res.levels), 20)
    np.testing.assert_allclose(res.xi, expect, rtol=0, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from(["rabi", "table", "short"]))
def test_first_degree_is_clamped(seed, count, kind):
    rng = np.random.default_rng(seed)
    if kind == "rabi":
        p = RabiParams(kappa=float(rng.uniform(0.05, 4.0)), delta=float(rng.uniform(-1, 1)))
        rec = rabi_recurrence(p)
    else:
        # a short table may end before the flows could certify, or hold
        # a deep site on its last row
        n = count + int(rng.integers(0, 3 if kind == "short" else 300))
        c = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, size=n)
        c[int(rng.integers(0, n))] = -float(rng.uniform(0.0, 6.0))
        rec = MonicRecurrence.from_arrays(c, rng.uniform(0.02, 0.5, size=n - 1))
    first = flows._steps(rec, count)
    assert count <= first <= min(rec.n_cap or flows._DEFAULT_N_MAX, flows._DEFAULT_N_MAX)


def test_first_degree_stays_under_the_default_budget(monkeypatch):
    # a default degree past _DEFAULT_N_MAX is never taken, nor is one past
    # a table; the flow count itself is the floor, also past that budget.
    # Displaced kappa = 600 has its dominance index near kappa^2 = 360000:
    # its first degree is the budget, and a growth schedule from there is valid
    assert flows._degrees(displaced_recurrence(600.0), 3)[0] == flows._DEFAULT_N_MAX
    rec = rabi_recurrence(RabiParams(kappa=3.0, delta=0.4))
    assert flows._steps(rec, 20) > 100
    monkeypatch.setattr(flows, "_DEFAULT_N_MAX", 100)
    assert flows._steps(rec, 20) == 100
    assert flows._steps(rec, 100) == 100
    steps = flows._steps(rec, 150)
    assert steps.top == 150 and 64 <= steps.degrees[0] <= 150
    c = np.arange(30.0)
    c[28] = -5.0  # loose up to the table's end: no row certifies
    table = MonicRecurrence.from_arrays(c, np.full(29, 0.04))
    assert flows._steps(table, 5) == 30
    assert flows._steps(table, 30) == 30


def test_dominance_index_of_associated_models():
    rec = rabi_recurrence(RabiParams(kappa=2.0, delta=0.4))
    xs = np.array([-10.0, 0.0, 50.0, 500.0])
    m = rec.dominance_index(xs)
    np.testing.assert_array_equal(rec.associated(30).dominance_index(xs), np.maximum(m - 30, 0))
    # every row from the index on is Gershgorin dominated
    c, lam = rec.coeff_arrays(int(m.max()) + 200)
    root = np.sqrt(lam)
    for x, mx in zip(xs, m):
        k = np.arange(mx, c.size - 1)
        assert np.all(c[k] - x >= root[k] + root[k + 1])


# -- flow_trace --------------------------------------------------------------


def test_flow_trace_displaced_converges_to_ground():
    # early cut-offs, where the flow still moves by resolvable amounts
    rec = displaced_recurrence(0.2)
    trace = flow_trace(rec, 1, [2, 4, 8, 16], tol=1e-6)
    xs = [x for _, x in trace.history]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert abs(xs[-1] + 0.04) < 1e-6


def test_flow_trace_single_point_schedule():
    rec = displaced_recurrence(1.0)
    trace = flow_trace(rec, 1, [8])
    assert len(trace.history) == 1
    assert not trace.converged
    assert trace.xi is None
    assert trace.history[0][1] - (-1.0) > 1e-8  # 6e-5 above the ground state


def test_flow_trace_hermite_strict_decrease():
    # Hermite has no dominance index: its first 8 rows, tabulated
    rec = MonicRecurrence.from_arrays(np.zeros(8), np.arange(1.0, 8.0))
    trace = flow_trace(rec, 1, [2, 4, 8])
    xs = [x for _, x in trace.history]
    assert xs[0] == pytest.approx(-1.0, abs=1e-12)
    assert xs[0] > xs[1] > xs[2]


def test_flow_trace_agrees_with_run_flows():
    # the two loops solve different counts (l versus n_levels), which split
    # the brackets differently, so they agree within the bisection
    # resolution, not bitwise
    rec = rabi_recurrence(RabiParams(kappa=1.0, delta=0.4))
    schedule = [10, 11, 12, 13, 14]
    full = run_flows(rec, 10, tol=1e-12, schedule=schedule)
    # short of every level: at degree 14, level 1 is 7e-11 and level 10 is
    # 0.9 above LAPACK
    error = full.xi - jacobi_eigenvalues(rec, 800, 10)
    assert np.min(error) > 1e-12
    for l in (1, 5, 10):
        trace = flow_trace(rec, l, schedule, tol=1e-12)
        level = full.levels[l - 1]
        assert trace.converged == level.converged
        assert trace.history[-1][0] == level.n_converged
        for k, (n, x) in enumerate(trace.history):
            res = run_flows(rec, 10, tol=1e-12, schedule=schedule[: k + 1])
            assert not res.complete  # so res.xi is the value at degree n
            assert abs(res.levels[l - 1].xi - x) <= 4.0 * _bisect_tol(np.array(x))


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_flow_trace_validates_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        flow_trace(displaced_recurrence(0.5), 1, tol=tol)


def test_flow_trace_validates_schedule():
    rec = displaced_recurrence(0.2)
    with pytest.raises(ValueError):
        flow_trace(rec, 2, [5, 5])
    with pytest.raises(ValueError):
        flow_trace(rec, 2, [])
    with pytest.raises(ValueError):
        flow_trace(rec, 4, [2, 8])


# -- the class verdict is not consulted ----------------------------------------


def test_solver_never_consults_the_class_verdict(monkeypatch):
    # the frozen count decides: with classify unusable, a Rabi model (which
    # carries asymptotics) still solves and traces to certified levels
    def refuse(asym):
        raise AssertionError("the solver consulted classify")

    monkeypatch.setattr(classifier, "classify", refuse)
    rec = rabi_recurrence(RabiParams(kappa=0.5, delta=0.4))
    assert rec.asymptotics is not None
    res = run_flows(rec, 5, tol=1e-10)
    assert res.complete
    assert flow_trace(rec, 3, tol=1e-10).converged
    assert flow_trace(rec, 2, [10, 20, 40, 80], tol=1e-10).converged


def test_a_model_outside_the_class_is_certified():
    # c = n, lambda = 1 carries a negative class verdict (beta = 0), yet its
    # dominance index is correct, so every level certifies and matches LAPACK
    raw = RawRecurrence.from_affine(
        alpha=lambda n: np.ones(np.shape(n)),
        c=lambda n: np.asarray(n, dtype=float),
        b=lambda n: np.ones(np.shape(n)),
        asymptotics=RecurrenceAsymptotics(0, 0, a=1.0, b=1.0),
    )
    assert not classify(raw.asymptotics).in_class
    # row k is dominated at x once k - x >= 2
    rec = dataclasses.replace(
        to_monic(raw),
        dominance_index=lambda x: np.maximum(np.ceil(np.asarray(x) + 2.0), 0.0).astype(np.int64),
    )
    expect = jacobi_eigenvalues(rec, 400, 10)
    res = run_flows(rec, 10, tol=1e-8)
    assert np.all(np.abs(res.xi - expect) <= res.tolerance)
    _assert_enclosed(res, expect, 8 * _EPS * 402.0)
    trace = flow_trace(rec, 2, [10, 20], tol=1e-8)
    assert trace.converged and abs(trace.xi - expect[1]) <= 1e-8


def test_unclassified_models_run_without_override():
    rec = MonicRecurrence.from_arrays(np.arange(50.0), 0.04 * np.arange(1, 50))
    assert rec.asymptotics is None
    assert run_flows(rec, 2, tol=1e-8).complete


# -- monotony guard ----------------------------------------------------------


def test_monotone_guard_triggers_on_real_increase(monkeypatch):
    # flow 2 sits at 1.0 and its second tableau rises by `rise`: 1e-6 is far
    # beyond the bisection slack, one ulp of 1.0 is within it
    def rising(rise):
        def tableau(rec, n, count):
            zeros = np.array([0.5, 1.0, 1.5])
            zeros[1] += rise if n == 15 else 0.0
            return ZeroTableau(n=n, zeros=zeros)

        return tableau

    rec = displaced_recurrence(0.2)
    monkeypatch.setattr(flows, "zeros_of", rising(1e-6))
    with pytest.raises(NonMonotoneFlow, match=r"flow l=2 increased from x_\{10\}=1\.0 to x_\{15\}"):
        run_flows(rec, 3, schedule=[10, 15])
    monkeypatch.setattr(flows, "zeros_of", rising(2.0**-52))
    assert run_flows(rec, 3, schedule=[10, 15]).xi[1] == 1.0 + 2.0**-52


# -- schedules ---------------------------------------------------------------


def test_growth_schedule_degrees():
    sched = GrowthSchedule(n_start=10, n_max=40)
    assert list(sched.degrees()) == [10, 15, 23, 35, 40]
    # each step goes at least one degree up, and never past n_max
    assert list(GrowthSchedule(1, n_max=4).degrees()) == [1, 2, 3, 4]


def test_growth_schedule_validation():
    with pytest.raises(ValueError):
        GrowthSchedule(n_start=0)
    with pytest.raises(TypeError):  # the factor is fixed at 1.5
        GrowthSchedule(n_start=10, growth=2.0)
    with pytest.raises(ValueError):
        GrowthSchedule(n_start=10, n_max=5)


def test_list_schedule_past_a_table_ends_at_its_length():
    # degrees past the 25-row table become one last step at 25, where the
    # frozen count is the table's own and every level certifies
    c = np.arange(25, dtype=float)
    lam = np.full(24, 0.3)
    rec = MonicRecurrence.from_arrays(c, lam)
    assert flows._degrees(rec, 10, [11, 12, 30, 40]) == [11, 12, 25]
    assert flows._degrees(rec, 10, [11, 25, 30]) == [11, 25]
    assert flows._degrees(rec, 10, [11, 12]) == [11, 12]
    res = run_flows(rec, 10, tol=1e-9, schedule=[11, 12, 30])
    assert res.complete
    # levels 7 to 10 are still open at degree 12 and close at the table length
    assert [lv.n_converged for lv in res.levels[6:]] == [25] * 4
    exact = eigvalsh_tridiagonal(c, np.sqrt(lam), select="i", select_range=(0, 9))
    np.testing.assert_allclose(res.xi, exact, atol=1e-9)
    trace = flow_trace(rec, 10, [11, 12, 30], tol=1e-9)
    assert trace.converged and trace.history[-1][0] == 25


def test_flow_trace_default_schedule_is_run_flows_default():
    # the default first degree for three flows is the frozen count's first
    # rows, 32, where the third flow certifies: a one-row history
    rec = displaced_recurrence(0.2)
    first = flows._steps(rec, 3)
    assert first == 32
    trace = flow_trace(rec, 3)
    assert trace.history == flow_trace(rec, 3, GrowthSchedule(first)).history
    assert trace.history[0][0] == first
    assert trace.converged and trace.xi == run_flows(rec, 3).xi[2]


def test_tabulated_cap_limits_schedule():
    c = np.arange(60, dtype=float)
    lam = 0.04 * np.arange(1, 60)
    rec = MonicRecurrence.from_arrays(c, lam)
    res = run_flows(rec, 3, tol=1e-9)
    # cap reached; flows for this shifted-Charlier head still converge
    assert res.complete
    np.testing.assert_allclose(res.xi, displaced_oscillator_spectrum(0.2, 3), atol=1e-9)
