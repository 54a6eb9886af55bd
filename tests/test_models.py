import json
import math

import numpy as np
import pytest

from zeroflow import (
    KappaZero,
    NonPositiveLambda,
    ParseError,
    RabiParams,
    TabulatedModel,
    displaced_oscillator_spectrum,
    displaced_recurrence,
    load_tabulated,
    rabi_recurrence,
    tabulated_recurrence,
    zeros_of,
)


def test_rabi_coefficients_example():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    c, lam = rec.coeff_arrays(4)
    np.testing.assert_allclose(c[:3], [0.4, 0.6, 2.4])
    np.testing.assert_allclose(lam[1:3], [0.04, 0.08])


def test_rabi_delta_zero_is_shifted_charlier():
    rec = rabi_recurrence(RabiParams(kappa=0.2, delta=0.0, parity="-"))
    c, lam = rec.coeff_arrays(6)
    np.testing.assert_array_equal(c, np.arange(6))
    np.testing.assert_allclose(lam[1:], 0.04 * np.arange(1, 6))


def test_kappa_zero_rejected():
    with pytest.raises(KappaZero):
        RabiParams(kappa=0.0, delta=0.4)
    with pytest.raises(KappaZero):
        RabiParams(kappa=-1.0)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("kappa", {"kappa": math.inf}),
        ("delta", {"kappa": 0.5, "delta": math.inf}),
        ("delta", {"kappa": 0.5, "delta": -math.inf}),
        ("delta", {"kappa": 0.5, "delta": math.nan}),
    ],
)
def test_rabi_parameters_must_be_finite(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RabiParams(**kwargs)
    if field == "kappa":
        with pytest.raises(ValueError, match="^kappa must be finite"):
            displaced_recurrence(kwargs["kappa"])


def test_parity_validation():
    with pytest.raises(ValueError):
        RabiParams(kappa=0.2, delta=0.4, parity="x")


def test_kappa_enters_only_squared():
    rec = rabi_recurrence(RabiParams(kappa=0.3, delta=0.1))
    _, lam = rec.coeff_arrays(5)
    np.testing.assert_allclose(lam[1:], 0.09 * np.arange(1, 5))


def test_displaced_oscillator_spectrum_examples():
    np.testing.assert_allclose(
        displaced_oscillator_spectrum(0.2, 3), [-0.04, 0.96, 1.96], atol=1e-15
    )
    np.testing.assert_array_equal(displaced_oscillator_spectrum(0.0, 2), [0.0, 1.0])
    np.testing.assert_array_equal(displaced_oscillator_spectrum(1.0, 1), [-1.0])
    with pytest.raises(ValueError):
        displaced_oscillator_spectrum(-0.1, 2)


def test_displaced_recurrence_requires_coupling():
    with pytest.raises(KappaZero):
        displaced_recurrence(0.0)


def test_load_tabulated_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"description": "demo", "c": [0, 1, 2], "lam": [1, 2]}))
    model = load_tabulated(path)
    assert model.description == "demo"
    rec = tabulated_recurrence(model)
    assert rec.n_cap == 3  # min(len(c), len(lam) + 1)
    c, lam = rec.coeff_arrays(2)
    np.testing.assert_array_equal(c, [0.0, 1.0])
    assert lam[1] == 1.0


def test_load_tabulated_rejects_nonpositive_lambda(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"c": [0, 1, 2], "lam": [0.0, 2]}))
    with pytest.raises(NonPositiveLambda) as err:
        load_tabulated(path)
    assert err.value.index == 1


def test_load_tabulated_parse_errors(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_tabulated(path)
    path.write_text(json.dumps({"c": [0.0]}))
    with pytest.raises(ParseError):
        load_tabulated(path)
    path.write_text(json.dumps({"c": [0.0], "lam": ["x"]}))
    with pytest.raises(ParseError):
        load_tabulated(path)
    with pytest.raises(ParseError):
        load_tabulated(tmp_path / "missing.json")


def test_tabulated_head_matches_builtin(tmp_path):
    # Rabi (0.2, 0.4) head: same P_2 zeros through either construction path
    path = tmp_path / "head.json"
    path.write_text(json.dumps({"c": [0.4, 0.6], "lam": [0.04]}))
    tab = tabulated_recurrence(load_tabulated(path))
    builtin = rabi_recurrence(RabiParams(kappa=0.2, delta=0.4, parity="+"))
    np.testing.assert_allclose(
        zeros_of(tab, 2, 2).zeros, zeros_of(builtin, 2, 2).zeros, atol=1e-14
    )


@pytest.mark.parametrize("upsilon", [0, 1, 7])
def test_every_model_factory_has_a_frozen_count(upsilon):
    # the flows' only stop rule needs a table length or a dominance index,
    # so no model the CLI or the benchmark builds can lack both
    for rec in (
        rabi_recurrence(RabiParams(kappa=0.5, delta=0.4, parity="-")),
        displaced_recurrence(0.5),
        tabulated_recurrence(TabulatedModel(c=np.arange(20.0), lam=np.full(19, 0.3))),
    ):
        shifted = rec.associated(upsilon)
        assert shifted.n_cap is not None or shifted.dominance_index is not None
