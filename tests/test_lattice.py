import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroflow import (
    DegenerateFit,
    RabiParams,
    TooFewLevels,
    best_lattice_fit,
    displaced_oscillator_spectrum,
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
