import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroflow import (
    GrowthSchedule,
    MonicRecurrence,
    NonMonotoneFlow,
    RabiParams,
    ZeroCoagulation,
    displaced_oscillator_spectrum,
    displaced_recurrence,
    flow_trace,
    rabi_recurrence,
    run_flows,
    zeros_of,
)
from zeroflow.flows import _check_monotone

from conftest import hermite_recurrence, jacobi_eigenvalues, random_recurrence


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
    for lv in res.levels:
        assert lv.converged and lv.n_converged >= 25


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
    # flow rise by more than the bisection slack (NonMonotoneFlow)
    rec = rabi_recurrence(RabiParams(kappa=kappa, delta=0.4, parity=parity))
    res = run_flows(rec, 20, tol=1e-10)
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
    rec = displaced_recurrence(0.2)
    res = run_flows(rec, 3, tol=1e-10, schedule=[23, 30])
    assert not res.complete
    assert all(not lv.converged for lv in res.levels)
    # the partial values are still the best tableau so far
    np.testing.assert_allclose(res.xi, displaced_oscillator_spectrum(0.2, 3), atol=1e-6)


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
    with pytest.raises(ValueError):
        run_flows(rec, 10, tol=1e-8, n_start=5)
    with pytest.raises(ValueError):
        run_flows(rec, 3, tol=1e-8, n_start=30, schedule=[40, 50, 60])


# -- flow_trace --------------------------------------------------------------


def test_flow_trace_displaced_converges_to_ground():
    # early cut-offs, where the flow still moves by resolvable amounts
    rec = displaced_recurrence(0.2)
    trace = flow_trace(rec, 1, [2, 4, 8, 16], tol=1e-6)
    xs = [x for _, x in trace.history]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    assert abs(xs[-1] + 0.04) < 1e-6


def test_flow_trace_single_point_schedule():
    rec = displaced_recurrence(0.2)
    trace = flow_trace(rec, 1, [12])
    assert len(trace.history) == 1
    assert not trace.converged
    assert trace.xi is None


def test_flow_trace_hermite_strict_decrease():
    trace = flow_trace(hermite_recurrence(), 1, [2, 4, 8])
    xs = [x for _, x in trace.history]
    assert xs[0] == pytest.approx(-1.0, abs=1e-12)
    assert xs[0] > xs[1] > xs[2]


def test_flow_trace_validates_schedule():
    rec = displaced_recurrence(0.2)
    with pytest.raises(ValueError):
        flow_trace(rec, 2, [5, 5])
    with pytest.raises(ValueError):
        flow_trace(rec, 2, [])
    with pytest.raises(ValueError):
        flow_trace(rec, 4, [2, 8])


# -- advisory class membership -------------------------------------------------


def test_negative_class_verdict_refuses_without_override():
    from zeroflow import RawRecurrence, RecurrenceAsymptotics, to_monic

    raw = RawRecurrence.from_affine(
        alpha=lambda n: np.ones(np.shape(n)),
        c=lambda n: np.asarray(n, dtype=float),
        b=lambda n: np.ones(np.shape(n)),
        asymptotics=RecurrenceAsymptotics(0, 0, a=1.0, b=1.0),  # outside (beta = 0)
    )
    rec = to_monic(raw)
    with pytest.raises(ValueError, match="override"):
        run_flows(rec, 2, tol=1e-8)
    with pytest.raises(ValueError, match="override"):
        flow_trace(rec, 1, [10, 20], tol=1e-8)
    res = run_flows(rec, 2, tol=1e-8, override=True)
    assert res.complete


def test_unclassified_models_run_without_override():
    rec = MonicRecurrence.from_arrays(np.arange(50.0), 0.04 * np.arange(1, 50))
    assert rec.asymptotics is None
    assert run_flows(rec, 2, tol=1e-8).complete


# -- monotony guard ----------------------------------------------------------


def test_monotone_guard_triggers_on_real_increase():
    with pytest.raises(NonMonotoneFlow):
        _check_monotone(1, 10, 1.0, 15, 1.0 + 1e-6)
    # sub-tolerance wiggle is allowed
    _check_monotone(1, 10, 1.0, 15, 1.0 + 2.0**-52)


# -- schedules ---------------------------------------------------------------


def test_growth_schedule_degrees():
    sched = GrowthSchedule(n_start=10, growth=1.5, n_max=40)
    assert list(sched.degrees()) == [10, 15, 23, 35, 40]


def test_growth_schedule_validation():
    with pytest.raises(ValueError):
        GrowthSchedule(n_start=0)
    with pytest.raises(ValueError):
        GrowthSchedule(n_start=10, growth=1.0)
    with pytest.raises(ValueError):
        GrowthSchedule(n_start=10, n_max=5)


def test_tabulated_cap_limits_schedule():
    c = np.arange(60, dtype=float)
    lam = 0.04 * np.arange(1, 60)
    rec = MonicRecurrence.from_arrays(c, lam)
    res = run_flows(rec, 3, tol=1e-9)
    # cap reached; flows for this shifted-Charlier head still converge
    assert res.complete
    np.testing.assert_allclose(res.xi, displaced_oscillator_spectrum(0.2, 3), atol=1e-9)
