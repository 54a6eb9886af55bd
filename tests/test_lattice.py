import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroflow import lattice
from zeroflow import (
    FAMILIES,
    DegenerateFit,
    RabiParams,
    TooFewLevels,
    best_lattice_fit,
    displaced_oscillator_spectrum,
    displaced_recurrence,
    fit_lattice,
    rabi_recurrence,
    run_flows,
    solvability_distance,
)


def test_charlier_lattice_is_linear():
    spectrum = displaced_oscillator_spectrum(0.2, 4)
    fit = fit_lattice(spectrum, "quadratic")
    assert fit.u2 == pytest.approx(0.0, abs=1e-12)
    assert fit.u1 == pytest.approx(1.0, abs=1e-12)
    assert fit.u0 == pytest.approx(-1.04, abs=1e-12)
    assert fit.residual < 1e-12
    family, residual = solvability_distance(spectrum)
    assert residual < 1e-12


def test_perfect_squares_fit_quadratic():
    fit = fit_lattice([0.0, 1.0, 4.0, 9.0, 16.0], "quadratic")
    assert fit.u2 == pytest.approx(1.0, abs=1e-12)
    assert fit.u1 == pytest.approx(-2.0, abs=1e-11)
    assert fit.u0 == pytest.approx(1.0, abs=1e-11)
    assert fit.residual < 1e-12


def test_geometric_spectrum_identified_q_quadratic():
    q = 0.5
    n = np.arange(1, 13, dtype=float)
    spectrum = np.sort(0.7 * q**(-n))
    family, residual = solvability_distance(spectrum)
    assert family == "q-quadratic"
    assert residual < 1e-10


def test_linear_q_family_round_trip():
    q = 0.8
    n = np.arange(1, 31, dtype=float)
    spectrum = np.sort(3.0 - 2.0 * q**n)
    fit = fit_lattice(spectrum, "linear-q")
    assert fit.q == pytest.approx(q, abs=1e-9)
    assert fit.u0 == pytest.approx(3.0, abs=1e-9)
    assert fit.u1 == pytest.approx(-2.0, abs=1e-8)
    assert fit.residual < 1e-10


def test_rabi_spectrum_is_far_from_every_family():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    spectrum = run_flows(rec, 50, tol=1e-10).xi
    family, residual = solvability_distance(spectrum)
    assert residual > 1e-3


def test_too_few_levels():
    with pytest.raises(TooFewLevels):
        fit_lattice([1.0, 2.0, 3.0], "q-quadratic")
    with pytest.raises(TooFewLevels):
        fit_lattice([1.0, 2.0, 3.0], "linear")


def test_input_validation():
    with pytest.raises(ValueError):
        fit_lattice([3.0, 2.0, 1.0, 0.0], "linear")
    with pytest.raises(ValueError):
        fit_lattice([0.0, 1.0, 2.0, 3.0], "cubic")
    # a NaN level passes the sort check, so finiteness is checked on its own
    for bad in ([0.0, np.nan, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            best_lattice_fit(bad)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_polynomial_round_trip(u0, u1, u2):
    n = np.arange(1, 51, dtype=float)
    spectrum = u2 * n * n + u1 * n + u0  # ascending for u1 > 0, u2 >= 0
    fit = fit_lattice(spectrum, "quadratic")
    scale = max(1.0, abs(u0), abs(u1), abs(u2))
    assert fit.u0 == pytest.approx(u0, abs=1e-8 * scale)
    assert fit.u1 == pytest.approx(u1, abs=1e-8 * scale)
    assert fit.u2 == pytest.approx(u2, abs=1e-8 * scale)
    assert fit.residual <= 1e-10 * scale


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.85, max_value=0.95),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_q_quadratic_round_trip(q, u2, u1, u0):
    from hypothesis import assume

    n = np.arange(1, 51, dtype=float)
    spectrum = u2 * q ** (-n) + u1 * q**n + u0
    assume(bool(np.all(np.diff(spectrum) > 0)))
    fit = fit_lattice(spectrum, "q-quadratic")
    scale = float(np.max(np.abs(spectrum)))
    assert fit.residual <= 1e-10 * scale
    assert fit.q == pytest.approx(q, abs=1e-6)
    assert fit.u2 == pytest.approx(u2, rel=1e-5)


def test_best_fit_skips_degenerate_families():
    # a constant-plus-noise-free spectrum is representable by every family;
    # best_lattice_fit must still return something sensible
    spectrum = np.full(10, 2.5)
    fit = best_lattice_fit(spectrum)
    assert fit.residual < 1e-12
    assert isinstance(fit.family, str)


def test_degenerate_fit_error_type_exists():
    assert issubclass(DegenerateFit, Exception)


def test_long_ladder_q_scan_is_silent():
    # q**(-n) overflows for small q at 300 levels; those q are rejected
    # without a RuntimeWarning reaching the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = best_lattice_fit(np.arange(300) - 0.04)
    assert fit.family == "linear"


def test_ladder_near_the_double_range_fits_linear():
    # y is scaled by a power of two before the solve, so squares and norms of
    # levels near 1e302 neither overflow nor warn
    spectrum = 1e300 * np.arange(1, 51.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = best_lattice_fit(spectrum)
    assert fit.family == "linear"
    assert fit.residual <= 1e-12 * np.max(np.abs(spectrum))


# -- batched q search ----------------------------------------------------------


_LOGQ_RANGE = (math.log(1e-6), math.log(1.0 - 1e-6))


@pytest.mark.parametrize("size", [4, 50, 300])
@pytest.mark.parametrize("family", ["linear-q", "q-quadratic"])
def test_profile_matches_scalar_solve(size, family):
    # the batched MGS residuals against one column-scaled lstsq per q
    rng = np.random.default_rng([size, len(family)])
    y = np.sort(rng.normal(size=size)) * 10.0 ** rng.uniform(-3, 3)
    n = np.arange(1, size + 1, dtype=float)
    quadratic = family == "q-quadratic"
    logq = rng.uniform(*_LOGQ_RANGE, size=64)
    profile = lattice._least_squares(logq, y, quadratic)[0]
    for t, got in zip(logq.tolist(), profile.tolist()):
        q = math.exp(t)
        with np.errstate(over="ignore"):
            design = np.column_stack([np.ones(size), q**n] + ([q ** (-n)] if quadratic else []))
        if not np.all(np.isfinite(design)):
            assert got == math.inf
            continue
        # columns scaled by their max magnitude, as an L2 norm of q**(-n) overflows
        scale = np.max(np.abs(design), axis=0)
        coef = np.linalg.lstsq(design / scale, y, rcond=None)[0] / scale
        res = design @ coef - y
        want = float(np.sqrt(np.mean(res * res)))
        assert abs(got - want) <= max(1e-10 * want, 1e-13 * np.max(np.abs(y)))


def _mpmath_rms(y, q):
    """60-digit RMS residual of the q-quadratic fit at q (an mpf)."""
    with mpmath.workdps(60):
        a = mpmath.matrix([[1, q**k, q ** (-k)] for k in range(1, y.size + 1)])
        b = mpmath.matrix(y.tolist())
        r = a * mpmath.lu_solve(a.T * a, a.T * b) - b
        return float(mpmath.sqrt(sum(v * v for v in r) / y.size))


@pytest.mark.parametrize("size", [4, 50])
@pytest.mark.parametrize("t", [-1e-6, -1e-5, -1e-3])
def test_profile_near_q_one_matches_mpmath(size, t):
    # as q -> 1 the q-quadratic design approaches [1, n, n**2] and its
    # condition grows like 1/t**2; MGS keeps to the 60-digit residual where
    # lstsq on the scaled design loses up to 1e-4 of it at 4 levels
    y = np.sort(np.random.default_rng(size).normal(size=size))
    with mpmath.workdps(60):
        want = _mpmath_rms(y, mpmath.exp(mpmath.mpf(t)))
    got = float(lattice._least_squares(np.array([t]), y, True)[0][0])
    assert got == pytest.approx(want, rel=1e-8)


def test_reported_residual_near_q_one_matches_mpmath():
    # the residual a fit reports comes from the same MGS as the q search, so
    # it keeps to the 60-digit value at the q the fit returns (0.9999985 on
    # these 4 levels, where the design's condition is about 1/log(q)**2)
    y = np.sort(np.random.default_rng(4).normal(size=4))
    fit = fit_lattice(y, "q-quadratic")
    assert fit.residual == pytest.approx(_mpmath_rms(y, mpmath.mpf(fit.q)), rel=1e-8)


def test_profile_rejects_overflowing_q_silently():
    # q**(-300) overflows for q below about 0.094: those rows are inf, and
    # neither family lets a RuntimeWarning out
    y = np.arange(300.0) - 0.04
    logq = np.log(np.array([1e-6, 2e-6, 1e-3, 0.05]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quad = lattice._least_squares(logq, y, True)[0]
        lin = lattice._least_squares(logq, y, False)[0]
    assert np.all(quad == math.inf)
    assert np.all(np.isfinite(lin))


def _exact_lattice(family, u0, u1, u2, q, size):
    n = np.arange(1, size + 1, dtype=float)
    if family == "linear":
        return u1 * n + u0
    if family == "quadratic":
        return u2 * n * n + u1 * n + u0
    if family == "linear-q":
        return u0 - u1 * q**n
    return u2 * q ** (-n) - u1 * q**n + u0


def _fitted(fit, size):
    n = np.arange(1, size + 1, dtype=float)
    if fit.q is None:
        return fit.u2 * n * n + fit.u1 * n + fit.u0
    with np.errstate(over="ignore"):
        inverse = fit.q ** (-n) if fit.u2 else 0.0
    return fit.u2 * inverse + fit.u1 * fit.q**n + fit.u0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.3, max_value=0.97),
    st.integers(min_value=4, max_value=300),
)
def test_every_family_round_trips(family, u0, u1, u2, q, size):
    # increasing by construction: u1, u2 > 0 and the q terms enter as -u1 q**n
    spectrum = _exact_lattice(family, u0, u1, u2, q, size)
    scale = float(np.max(np.abs(spectrum)))
    for fit in (fit_lattice(spectrum, family), best_lattice_fit(spectrum)):
        assert fit.residual <= 1e-12 * scale
        deviation = np.max(np.abs(_fitted(fit, size) - spectrum))
        assert deviation <= 1e-10 * scale


def test_q_search_takes_few_profile_calls(monkeypatch):
    # one coarse grid, then zoom rounds that shrink the bracket 16-fold: a
    # repeatable count of batched least-squares calls per q-family fit, not
    # a time; the coefficients need no further call
    profile = lattice._least_squares
    budget = [0]

    def counting(logq, y, quadratic):
        budget[0] -= 1
        assert budget[0] >= 0, "more profile calls than budgeted"
        return profile(logq, y, quadratic)

    monkeypatch.setattr(lattice, "_least_squares", counting)
    rng = np.random.default_rng(50)
    for spectrum in (
        _exact_lattice("linear-q", 2.0, 1.0, 0.0, 0.9, 50),
        _exact_lattice("q-quadratic", 0.5, 0.3, 1.2, 0.88, 50),
        np.arange(50.0) - 0.04,
        np.sort(rng.normal(size=50)),
    ):
        for family in ("linear-q", "q-quadratic"):
            budget[0] = 16
            fit_lattice(spectrum, family)


# -- ties ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, spectrum",
    [
        # a strict minimum picks quadratic (4.0e-15 against 1.1e-14) and
        # q-quadratic (1.0e-15 against 1.4e-15) on these two
        ("linear", _exact_lattice("linear", 0.3, 0.7, 0.0, None, 50)),
        ("linear-q", _exact_lattice("linear-q", 2.0, 1.0, 0.0, 0.9, 50)),
    ],
)
def test_exact_lattice_ties_go_to_the_simpler_family(family, spectrum):
    assert best_lattice_fit(spectrum).family == family


def test_rabi_spectrum_ties_go_to_quadratic():
    # near q = 1 a q-quadratic fit cancels coefficients of +-4e7 and can come
    # out 1e-9 of itself below quadratic; that is rounding, not a better family
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    spectrum = run_flows(rec, 50, tol=1e-10).xi
    assert best_lattice_fit(spectrum).family == "quadratic"


def test_tie_margin(monkeypatch):
    # residuals are fed in directly: within 1e-8 relative plus 1e-13 max|y|
    # (here 1e-12) of the least, the earliest family wins; beyond it, the
    # least.  The fits stop once a family within 1e-12 leads the tie, and
    # not while an earlier family lies inside its cut (the last two: the
    # q families may lower the cut below linear, or not)
    spectrum = np.linspace(-10.0, 10.0, 8)

    def run(residuals):
        table = dict(zip(FAMILIES, residuals))
        fitted = []

        def fake(y, family):
            fitted.append(family)
            return lattice.LatticeFit(family, 0.0, 1.0, 0.0, None, table[family], len(y))

        monkeypatch.setattr(lattice, "fit_lattice", fake)
        return best_lattice_fit(spectrum).family, len(fitted)

    assert run([1.0, 1.0 - 5e-9, 1.0 - 9e-9, 2.0]) == ("linear", 4)
    assert run([1.0, 1.0 - 2e-8, 2.0, 2.0]) == ("quadratic", 4)
    assert run([5e-13, 1e-13, 2.0, 0.0]) == ("linear", 1)
    assert run([2e-12, 1e-13, 2.0, 0.0]) == ("quadratic", 2)
    assert run([2e-12, 2e-12, 2.0, 0.0]) == ("q-quadratic", 4)
    assert run([1.5e-12, 0.9e-12, 2.0, 2.0]) == ("linear", 4)
    assert run([1.5e-12, 0.9e-12, 0.0, 2.0]) == ("quadratic", 3)


# -- the early stop ----------------------------------------------------------------


def _fit_all(spectrum):
    """best_lattice_fit without the early stop: fit all four families, then
    take the earliest within the tie cut of the least residual."""
    fits, failures = [], []
    for family in FAMILIES:
        try:
            fits.append(lattice.fit_lattice(spectrum, family))
        except DegenerateFit as exc:
            failures.append(str(exc))
    if not fits:
        raise DegenerateFit("; ".join(failures))
    least = min(fit.residual for fit in fits)
    scale = float(np.max(np.abs(np.asarray(spectrum, dtype=float))))
    cut = least * (1.0 + lattice._TIE_RTOL) + lattice._TIE_ATOL * scale
    return next(fit for fit in fits if fit.residual <= cut)


def _outcome(fn, spectrum):
    try:
        return repr(fn(spectrum))  # repr keeps every float bitwise, -0.0 too
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _perturbed(family, factor, size=40):
    # an exact lattice plus centred noise whose RMS is `factor` times the
    # allowance _TIE_ATOL * max|y| of the early stop
    y = _exact_lattice(family, 0.4, 1.1, 0.6, 0.9, size)
    noise = np.random.default_rng([size, len(family)]).normal(size=size)
    noise -= noise.mean()
    noise *= factor * lattice._TIE_ATOL * np.max(np.abs(y)) / np.sqrt(np.mean(noise * noise))
    return np.sort(y + noise)


_EARLY_STOP_CASES = {
    **{f"exact-{f}": _exact_lattice(f, -2.0, 0.7, 1.3, 0.85, 60) for f in FAMILIES},
    **{f"{f}-x{k}": _perturbed(f, k) for f in FAMILIES for k in (0.5, 2.0)},
    **{f"random-{s}": np.sort(np.random.default_rng(s).normal(size=4 + 9 * s)) for s in range(4)},
    "constant": np.full(10, 2.5),
    "ladder": np.arange(300) - 0.04,
    "squares": np.array([0.0, 1.0, 4.0, 9.0, 16.0]),
    "too-few": [1.0, 2.0, 3.0],
    "unsorted": [3.0, 2.0, 1.0, 0.0],
    "nan": [0.0, np.nan, 2.0, 3.0, 4.0],
    "inf": [0.0, 1.0, 2.0, np.inf],
    "flat-array": [[0.0, 1.0], [2.0, 3.0]],
    "empty": [],
}


@pytest.mark.parametrize("spectrum", _EARLY_STOP_CASES.values(), ids=_EARLY_STOP_CASES.keys())
def test_early_stop_returns_what_fitting_all_four_returns(spectrum):
    # family, parameters and residual bitwise; the same error for a rejected input
    assert _outcome(best_lattice_fit, spectrum) == _outcome(_fit_all, spectrum)


@pytest.mark.parametrize(
    "degenerate",
    [("linear",), ("linear", "quadratic"), ("quadratic", "q-quadratic"), FAMILIES],
    ids=lambda d: "+".join(d),
)
def test_early_stop_skips_degenerate_families_as_fitting_all_does(monkeypatch, degenerate):
    fit = lattice.fit_lattice

    def failing(spectrum, family):
        result = fit(spectrum, family)  # validates the input first, as fit_lattice does
        if family in degenerate:
            raise DegenerateFit(f"{family} degenerate")
        return result

    monkeypatch.setattr(lattice, "fit_lattice", failing)
    for case in ("exact-linear", "exact-quadratic", "random-2"):
        spectrum = _EARLY_STOP_CASES[case]
        assert _outcome(best_lattice_fit, spectrum) == _outcome(_fit_all, spectrum)


def _q_searches(monkeypatch, spectrum):
    """The families whose q search best_lattice_fit runs on spectrum."""
    profile = lattice._least_squares
    searched = set()

    def recording(logq, y, quadratic):
        if logq is not None:
            searched.add("q-quadratic" if quadratic else "linear-q")
        return profile(logq, y, quadratic)

    monkeypatch.setattr(lattice, "_least_squares", recording)
    best_lattice_fit(spectrum)
    monkeypatch.setattr(lattice, "_least_squares", profile)
    return searched


def test_exact_polynomial_lattices_run_no_q_search(monkeypatch):
    ladder = run_flows(displaced_recurrence(0.5), 50, tol=1e-8).xi
    for spectrum in (
        _exact_lattice("linear", 0.3, 0.7, 0.0, None, 50),
        _exact_lattice("quadratic", 0.3, 0.7, 0.2, None, 50),
        ladder,
    ):
        assert _q_searches(monkeypatch, spectrum) == set()
    assert best_lattice_fit(ladder).family == "linear"
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    rabi = run_flows(rec, 50, tol=1e-10).xi
    assert _q_searches(monkeypatch, rabi) == {"linear-q", "q-quadratic"}
