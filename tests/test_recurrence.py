import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from zeroflow import (
    MonicRecurrence,
    NonlinearCoefficient,
    NonPositiveLambda,
    RabiParams,
    RawRecurrence,
    count_zeros_below,
    displaced_recurrence,
    eval_sequence,
    rabi_raw_recurrence,
    rabi_recurrence,
    to_monic,
)
from zeroflow.recurrence import _RESCALE_LIMIT

from conftest import hermite_recurrence, random_recurrence


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
        signs_p = [seq[-1].sign for seq in (eval_sequence(rec, float(x), n) for x in xs)]
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


# -- evaluation --------------------------------------------------------------


def test_eval_sequence_hermite_at_zero():
    seq = eval_sequence(hermite_recurrence(), 0.0, 3)
    assert [s.to_float() for s in seq] == [1.0, 0.0, -1.0, 0.0]


def test_eval_sequence_first_step_is_x_minus_c0():
    rec = displaced_recurrence(0.2)
    assert eval_sequence(rec, -0.04, 1)[-1].to_float() == pytest.approx(-0.04, abs=0)


def test_eval_sequence_long_growth_against_mpmath():
    # c_n = 0, lambda_n = 1, x = 10: growth never over/underflows and the
    # exponent tracks an independently computed high-precision value
    import mpmath

    rec = MonicRecurrence(
        c=lambda n: np.zeros(np.shape(n)), lam=lambda n: np.ones(np.shape(n))
    )
    n = 2000
    seq = eval_sequence(rec, 10.0, n)
    with mpmath.workprec(300):
        p_prev, p_cur = mpmath.mpf(1), mpmath.mpf(10)
        for _ in range(2, n + 1):
            p_prev, p_cur = p_cur, 10 * p_cur - p_prev
        expect_log2 = mpmath.log(abs(p_cur), 2)
        expect_sign = 1 if p_cur > 0 else -1
    got = seq[-1]
    assert got.sign == expect_sign
    assert got.log2_abs() == pytest.approx(float(expect_log2), rel=1e-12)
    assert got.exp2 > 6000  # far past the double range


def test_renormalization_preserves_every_mantissa_bit():
    # forcing a rescale on almost every step must reproduce the plain float
    # recurrence bit for bit whenever the latter does not overflow
    rec = rabi_recurrence(RabiParams(kappa=0.7, delta=0.3))
    x = 3.21
    n = 60
    forced = eval_sequence(rec, x, n, _rescale_limit=2.0**8)
    plain = eval_sequence(rec, x, n, _rescale_limit=_RESCALE_LIMIT)
    for a, b in zip(forced, plain):
        assert a.sign == b.sign
        assert a.mantissa == b.mantissa  # exact bit equality
        assert a.exp2 == b.exp2
    # and the plain run agrees with a raw float recurrence
    c, lam = rec.coeff_arrays(n)
    p_prev, p_cur = 1.0, x - c[0]
    for k in range(2, n + 1):
        p_prev, p_cur = p_cur, (x - c[k - 1]) * p_cur - lam[k - 1] * p_prev
    assert plain[-1].to_float() == p_cur


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


@pytest.mark.parametrize("n, below", [(3, 1), (5, 2)])
def test_exact_hit_at_middle_hermite_zero(n, below):
    # x = 0 is a zero of the odd Hermite-style P_n, and of every odd P_j on
    # the way: each exact hit counts as not below, so the count is the
    # number of zeros strictly below 0
    assert count_zeros_below(hermite_recurrence(), 0.0, n) == below


def _wide_range_recurrence(rng: np.random.Generator) -> MonicRecurrence:
    """c_n ~ n**3 and lambda_n spread over 1e-12 ... 1e6."""
    n = 64
    c = rng.uniform(1e-3, 1.0) * np.arange(n) ** 3 + rng.uniform(-1.0, 1.0, size=n)
    lam = 10.0 ** rng.uniform(-12.0, 6.0, size=n - 1)
    return MonicRecurrence.from_arrays(c, lam, description="wide-range")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.booleans())
def test_count_matches_lapack_eigenvalues(seed, n, wide):
    rng = np.random.default_rng(seed)
    rec = (_wide_range_recurrence if wide else random_recurrence)(rng)
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
    vals = np.array([eval_sequence(rec, float(x), 3)[-1].to_float() for x in xs])
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
