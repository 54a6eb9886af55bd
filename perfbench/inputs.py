"""Seeded inputs of the three workloads.

This module imports numpy only.  The worker turns these specifications into
zeroflow models, and the checker turns the same specifications into
independent oracles, so the inputs have one source.  The seed changes values,
never sizes: every round of a workload does the same amount of work on every
seed, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("rabi-deep", "scan", "measure")

# rabi-deep: the paper's "unlimited levels" request, fixed by the claim it
# measures (ROADMAP acceptance criterion 3); the seed selects nothing here.
DEEP = {"kappa": 0.2, "delta": 0.4, "parity": "+", "levels": 1000, "tol": 1e-6}

# scan: a uniform coupling grid reaching kappa = 3, both parities.
SCAN_DELTA = 0.4
SCAN_KAPPAS = tuple(0.25 * i for i in range(1, 13))
SCAN_LEVELS = 20
SCAN_TOL = 1e-10
SCAN_TABLES = 4
SCAN_TABLE_LEN = 300

# Operations that fail today because of known faults, on inputs that do not
# depend on the seed.  They stay in every round so that the failed share is
# the same in every run; see README.md for the faults.
NONMONOTONE_REQUESTS = frozenset({(1.75, "+"), (2.5, "-"), (2.75, "-")})
TRAP_NAME = "trap"


def trap_table() -> dict:
    """c = 0..399 with a deep site c[200] = -5 and lam = 0.04: the flows
    converge long before the cut-off reaches site 200."""
    c = np.arange(400, dtype=float)
    c[200] = -5.0
    return {"name": TRAP_NAME, "c": c, "lam": np.full(399, 0.04)}


def rabi_coefficients(kappa: float, delta: float, parity: str, n: int):
    """(c_0..c_{n-1}, lambda_1..lambda_{n-1}) of one Rabi parity subspace,
    c_k = k + s (-1)^k delta and lambda_k = k kappa^2, written out here so the
    oracles do not go through zeroflow."""
    k = np.arange(n, dtype=float)
    s = 1.0 if parity == "+" else -1.0
    c = k + s * np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * delta
    return c, k[1:] * kappa * kappa


def scan_inputs(seed: int) -> dict:
    """The Rabi grid (fixed) plus seeded user tables.

    Each table has a deep impurity site in [40, 50): beyond the starting
    cut-off (levels + 20 = 40) but well inside the second degree (60), so
    the impurity level is resolved before any flow can be declared
    converged (at degree 90 at the earliest) and every table stops at 135.
    A site at the edge of a truncation converges late and would make the
    work depend on the seed.  The fixed trap table puts its site at 200,
    beyond the point where the stop rule fires, and is missed.
    """
    rng = np.random.default_rng([seed, 2])
    requests = [
        {"kind": "rabi", "kappa": kappa, "delta": SCAN_DELTA, "parity": parity}
        for kappa in SCAN_KAPPAS
        for parity in "+-"
    ]
    for t in range(SCAN_TABLES):
        n = SCAN_TABLE_LEN
        c = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, size=n)
        site = int(rng.integers(SCAN_LEVELS + 20, 50))
        c[site] = -float(rng.uniform(2.0, 6.0))
        lam = rng.uniform(0.02, 0.5, size=n - 1)
        requests.append({"kind": "table", "name": f"table{t}", "c": c, "lam": lam, "site": site})
    trap = trap_table()
    requests.append({"kind": "table", "name": trap["name"], "c": trap["c"], "lam": trap["lam"], "site": 200})
    return {"levels": SCAN_LEVELS, "tol": SCAN_TOL, "requests": requests}


def request_id(req: dict) -> str:
    if req["kind"] == "rabi":
        return f"rabi(kappa={req['kappa']!r},{req['parity']})"
    return req["name"]


def expected_to_fail(req: dict) -> bool:
    if req["kind"] == "rabi":
        return (req["kappa"], req["parity"]) in NONMONOTONE_REQUESTS
    return req["name"] == TRAP_NAME


# measure: partial fractions at the couplings and degrees of acceptance
# criterion 6, masses on the displaced ladder, E and F at seeded points,
# eigenvectors, the two analysis subcommands and lattice fits.
PF_CASES = (
    ("displaced", 4.0, 25),
    ("displaced", 4.0, 60),
    ("displaced", 16.0, 100),
    ("displaced", 16.0, 200),
    ("rabi", 4.0, 25),
    ("rabi", 4.0, 60),
    ("rabi", 16.0, 100),
    ("rabi", 16.0, 200),
)
MASS_LEVELS = 16
EF_POINTS = 60
EIGVEC_LEVELS = 4
EIGVEC_NMAX = 40
LATTICE_LEVELS = 50
CF_COMPARE = {"kappa": 0.5, "x_min": -0.3, "x_max": 100.0, "true_levels": 101}


def lattice_values(family: str, p: dict, n_levels: int) -> np.ndarray:
    n = np.arange(1, n_levels + 1, dtype=float)
    if family == "linear":
        return p["u1"] * n + p["u0"]
    if family == "quadratic":
        return p["u2"] * n * n + p["u1"] * n + p["u0"]
    if family == "linear-q":
        return p["u1"] * p["q"] ** n + p["u0"]
    return p["u2"] * p["q"] ** (-n) + p["u1"] * p["q"] ** n + p["u0"]


def measure_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    pf_delta = float(rng.uniform(0.3, 0.5))
    mass_kappas = [float(rng.uniform(0.3, 1.2)) for _ in range(2)]
    ef_models = [
        {"kind": "displaced", "kappa": float(rng.uniform(0.2, 2.0)), "delta": 0.0},
        {"kind": "rabi", "kappa": float(rng.uniform(0.2, 2.0)), "delta": float(rng.uniform(0.1, 0.9))},
    ]
    ef_points = [
        {
            "model": i % 2,
            "x": float(rng.uniform(-2.0, 50.0)),
            "depth": 1 + (17 * i) % 80,
        }
        for i in range(EF_POINTS)
    ]
    lattices = []
    for family in ("linear", "quadratic", "linear-q", "q-quadratic"):
        p = {"u0": float(rng.uniform(-5.0, 5.0))}
        if family == "linear":
            p["u1"] = float(rng.uniform(0.1, 3.0))
        elif family == "quadratic":
            p["u1"] = float(rng.uniform(0.1, 3.0))
            p["u2"] = float(rng.uniform(0.05, 1.0))
        elif family == "linear-q":
            p["u1"] = -float(rng.uniform(0.5, 3.0))
            p["q"] = float(rng.uniform(0.85, 0.95))
        else:
            p["u2"] = float(rng.uniform(0.5, 3.0))
            p["u1"] = float(rng.uniform(-1.0, 1.0))
            p["q"] = float(rng.uniform(0.85, 0.95))
        lattices.append({"family": family, "params": p})
    spectrum_lattice = {
        "family": "quadratic",
        "params": {
            "u0": float(rng.uniform(-5.0, 5.0)),
            "u1": float(rng.uniform(0.1, 3.0)),
            "u2": float(rng.uniform(0.05, 1.0)),
        },
    }
    return {
        "pf_cases": [
            {"kind": kind, "kappa": kappa, "delta": pf_delta if kind == "rabi" else 0.0, "n": n}
            for kind, kappa, n in PF_CASES
        ],
        "mass_kappas": mass_kappas,
        "mass_levels": MASS_LEVELS,
        "ef_models": ef_models,
        "ef_points": ef_points,
        "eigvec": {"kappa": mass_kappas[0], "levels": EIGVEC_LEVELS, "n_max": EIGVEC_NMAX},
        "cf_compare": dict(CF_COMPARE),
        "lattices": lattices,
        "spectrum_lattice": spectrum_lattice,
        "lattice_levels": LATTICE_LEVELS,
    }


def workload_inputs(workload: str, seed: int) -> dict:
    if workload == "rabi-deep":
        return dict(DEEP)
    if workload == "scan":
        return scan_inputs(seed)
    if workload == "measure":
        return measure_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
