"""Shared fixtures: independent oracles and model builders for the tests."""

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from zeroflow import MonicRecurrence


def jacobi_eigenvalues(rec: MonicRecurrence, dim: int, count: int) -> np.ndarray:
    """Independent oracle: lowest eigenvalues of the truncated Jacobi matrix
    (diagonal c_n, off-diagonal sqrt(lambda_n)) via LAPACK, never via the
    zero-flow machinery under test."""
    c, lam = rec.coeff_arrays(dim)
    return eigvalsh_tridiagonal(c, np.sqrt(lam[1:]), select="i", select_range=(0, count - 1))


def hermite_recurrence() -> MonicRecurrence:
    """Probabilists'-Hermite-style monic recurrence: c_n = 0, lambda_n = n."""
    return MonicRecurrence(
        c=lambda n: np.zeros(np.shape(n)),
        lam=lambda n: np.asarray(n, dtype=float),
        description="hermite",
    )


def random_recurrence(rng: np.random.Generator, n: int = 64) -> MonicRecurrence:
    """Random valid model: c_n in [-1, 1] plus a linear drift, lambda_n in
    (0, 2], tabulated to degree n."""
    slope = rng.uniform(0.0, 2.0)
    c = rng.uniform(-1.0, 1.0, size=n) + slope * np.arange(n)
    lam = rng.uniform(0.0, 2.0, size=n - 1)
    lam[lam == 0.0] = 1.0
    return MonicRecurrence.from_arrays(c, lam, description="random")


def wide_range_recurrence(rng: np.random.Generator, n: int = 64) -> MonicRecurrence:
    """c_n ~ n**3 and lambda_n spread over 1e-12 ... 1e6, tabulated to degree n."""
    c = rng.uniform(1e-3, 1.0) * np.arange(n) ** 3 + rng.uniform(-1.0, 1.0, size=n)
    lam = 10.0 ** rng.uniform(-12.0, 6.0, size=n - 1)
    return MonicRecurrence.from_arrays(c, lam, description="wide-range")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


class LargeAllocation(Exception):
    """Raised by the small_coeff_arrays fixture in place of a large allocation."""


@pytest.fixture
def small_coeff_arrays(monkeypatch):
    """MonicRecurrence.coeff_arrays refuses more than 10**6 rows with
    LargeAllocation, so a test that reaches a huge degree fails at once
    instead of allocating it."""
    coeff_arrays = MonicRecurrence.coeff_arrays

    def guarded(self, n):
        if n > 10**6:
            raise LargeAllocation(f"coeff_arrays({n})")
        return coeff_arrays(self, n)

    monkeypatch.setattr(MonicRecurrence, "coeff_arrays", guarded)
