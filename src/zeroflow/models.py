"""Built-in physical models as monic-recurrence factories, plus exact oracles.

Energies are dimensionless throughout: eps = E / omega.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from .errors import KappaZero, NonPositiveLambda, ParseError, PrecisionExhausted
from .recurrence import MonicRecurrence, RawRecurrence, RecurrenceAsymptotics

__all__ = [
    "RabiParams",
    "TabulatedModel",
    "rabi_recurrence",
    "rabi_raw_recurrence",
    "displaced_recurrence",
    "displaced_oscillator_spectrum",
    "load_tabulated",
    "tabulated_recurrence",
]


@dataclass(frozen=True)
class RabiParams:
    """Dimensionless single-boson (Rabi) model parameters.

    kappa = g/omega is the coupling, delta = mu/omega the level splitting.
    Parity '+' pairs with the diagonal n + (-1)^n * delta; swapping parity is
    the same as flipping the sign of delta, so the choice is observable only
    as a relabeling of the two invariant subspaces.
    """

    kappa: float
    delta: float = 0.0
    parity: str = "+"

    def __post_init__(self):
        if self.parity not in ("+", "-"):
            raise ValueError(f"parity must be '+' or '-', got {self.parity!r}")
        if not (self.kappa > 0.0):
            raise KappaZero(f"kappa must be > 0, got {self.kappa!r}")
        for name in ("kappa", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    @property
    def parity_sign(self) -> int:
        return 1 if self.parity == "+" else -1


def rabi_recurrence(p: RabiParams) -> MonicRecurrence:
    """Monic recurrence of one parity subspace of the Rabi model:

        c_n = n + s * (-1)^n * delta    (s = +-1 per parity),
        lambda_n = n * kappa**2.

    Comes from the raw subspace recurrence via phi_n = kappa^{-n} P_n / n!.
    lambda depends on kappa only through kappa**2, so +-kappa give identical
    spectra.

    The dominance index at x is max(ceil(kappa**2), ceil(u**2 - 1)) with
    u = kappa + sqrt(kappa**2 + x + 1 + |delta|) (the root clamped at 0):
    sqrt(k) + sqrt(k+1) <= 2 sqrt(k+1), so row k is dominated once
    k - |delta| - x >= 2 kappa sqrt(k+1), which holds for every k with
    sqrt(k+1) >= u.
    """
    s = float(p.parity_sign)
    delta = float(p.delta)
    kappa = float(p.kappa)
    kappa2 = kappa**2

    def c_fn(n):
        n = np.asarray(n, dtype=float)
        return n + s * (1.0 - 2.0 * (np.asarray(n) % 2)) * delta

    def lam_fn(n):
        return np.asarray(n, dtype=float) * kappa2

    def m_fn(x):
        u = kappa + np.sqrt(np.maximum(kappa2 + np.asarray(x, dtype=float) + 1.0 + abs(delta), 0.0))
        m = np.maximum(math.ceil(kappa2), np.ceil(u * u - 1.0))
        if not np.all(m < 2.0**63):  # the int64 cast would wrap
            raise PrecisionExhausted(f"the dominance index of {desc} is past the int64 range")
        return m.astype(np.int64)

    desc = f"rabi(kappa={p.kappa!r}, delta={p.delta!r}, parity={p.parity})"
    asym = RecurrenceAsymptotics(alpha=Fraction(0), beta=Fraction(-1), a=1.0 / p.kappa, b=1.0)
    return MonicRecurrence(
        c=c_fn, lam=lam_fn, description=desc, asymptotics=asym, dominance_index=m_fn
    )


def rabi_raw_recurrence(p: RabiParams) -> RawRecurrence:
    """Raw (un-normalized) parity-subspace recurrence

        phi_{n+1} + [n - eps + s(-1)^n delta] / (kappa (n+1)) phi_n
                  + phi_{n-1} / (n+1) = 0,

    with asymptotics a_n ~ (1/kappa) n^0, b_n ~ 1 * n^{-1}.
    """
    s = float(p.parity_sign)
    delta = float(p.delta)
    kappa = float(p.kappa)

    def a_fn(n, x):
        n_int = np.asarray(n)
        n_f = np.asarray(n, dtype=float)
        sign = 1.0 - 2.0 * (n_int % 2)
        return (n_f - x + s * sign * delta) / (kappa * (n_f + 1.0))

    def b_fn(n):
        return 1.0 / (np.asarray(n, dtype=float) + 1.0)

    asym = RecurrenceAsymptotics(alpha=Fraction(0), beta=Fraction(-1), a=1.0 / kappa, b=1.0)
    return RawRecurrence(a=a_fn, b=b_fn, asymptotics=asym)


def displaced_recurrence(kappa: float) -> MonicRecurrence:
    """Displaced harmonic oscillator (delta = 0 limit): c_n = n,
    lambda_n = n * kappa**2, a shifted Charlier recurrence."""
    rec = rabi_recurrence(RabiParams(kappa=kappa, delta=0.0, parity="+"))
    return MonicRecurrence(
        c=rec.c,
        lam=rec.lam,
        description=f"displaced(kappa={kappa!r})",
        asymptotics=rec.asymptotics,
        dominance_index=rec.dominance_index,
    )


def displaced_oscillator_spectrum(kappa: float, n_levels: int) -> np.ndarray:
    """Exact spectrum eps_l = (l - 1) - kappa**2, l = 1..n_levels.

    Analytic oracle: the displacement b = a + kappa diagonalizes the model,
    leaving an equidistant ladder lowered by kappa**2.
    """
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    if n_levels < 0:
        raise ValueError("n_levels must be >= 0")
    return np.arange(n_levels, dtype=float) - float(kappa) ** 2


@dataclass(frozen=True)
class TabulatedModel:
    """User-supplied recurrence head: c[i] is c_i, lam[i] is lambda_{i+1}.

    Usable degree is min(len(c), len(lam) + 1); the solver refuses degrees
    beyond it.
    """

    c: np.ndarray
    lam: np.ndarray
    description: str = ""

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lam", lam)
        if c.ndim != 1 or lam.ndim != 1:
            raise ParseError("'c' and 'lam' must be flat arrays")
        if c.size < 1:
            raise ParseError("'c' must contain at least c_0")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(lam))):
            raise ParseError("coefficients must be finite numbers")
        bad = np.flatnonzero(lam <= 0.0)
        if bad.size:
            i = int(bad[0])
            raise NonPositiveLambda(i + 1, float(lam[i]))


def load_tabulated(path: Union[str, Path]) -> TabulatedModel:
    """Load a tabulated model from JSON:

        {"description": str, "c": [number...], "lam": [number...]}

    lam[i] is lambda_{i+1} (lambda_0 is fixed to 1 by convention).
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    for key in ("c", "lam"):
        if key not in payload:
            raise ParseError(f"{path}: missing required key '{key}'")
        if not isinstance(payload[key], list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in payload[key]
        ):
            raise ParseError(f"{path}: '{key}' must be a list of numbers")
    desc = payload.get("description", "")
    if not isinstance(desc, str):
        raise ParseError(f"{path}: 'description' must be a string")
    return TabulatedModel(
        c=np.asarray(payload["c"], dtype=float),
        lam=np.asarray(payload["lam"], dtype=float),
        description=desc or f"tabulated({path.name})",
    )


def tabulated_recurrence(model: TabulatedModel) -> MonicRecurrence:
    """MonicRecurrence view of a tabulated model (degree-capped)."""
    return MonicRecurrence.from_arrays(model.c, model.lam, description=model.description)
