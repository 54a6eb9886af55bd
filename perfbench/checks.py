"""Checks of the program's outputs against computations made apart from it.

Every oracle here is built from the input specification alone: LAPACK
tridiagonal eigensolvers on Jacobi matrices written out from the model
formulas, Golub-Welsch quadrature, the exact displaced-oscillator ladder,
its Poisson masses and Taylor coefficients, the identity E*F = -1, the
analytic level count of cf-compare and the exact lattices the fits were
given.  Nothing is compared with a stored copy of an earlier output.

Each `check_*` function returns (errors, wrong_faulty): errors name wrong
answers of operations that should be right; wrong_faulty names operations
that are known to answer wrongly today (see inputs.expected_to_fail) and
did.  An operation that raised is counted by the worker, not here.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import inputs

# Jacobi-matrix oracle size, as a multiple of the solver's final degree.
ORACLE_DEGREE_FACTOR = 3
# partial_fractions weights are compared above this floor; smaller
# Golub-Welsch weights carry absolute, not relative, LAPACK error.
WEIGHT_FLOOR = 1e-8
WEIGHT_RTOL = 1e-10
NODE_RTOL = 1e-12
MASS_RTOL = 1e-10
EF_TOL = 1e-12
EIGVEC_TOL = 1e-10
LATTICE_RTOL = 1e-9
CF_LEVEL_TOL = 1e-7


def lowest_eigenvalues(c: np.ndarray, lam: np.ndarray, count: int) -> np.ndarray:
    """The `count` smallest eigenvalues of the Jacobi matrix with diagonal c
    and off-diagonal sqrt(lam) (lam[i] is lambda_{i+1})."""
    return eigvalsh_tridiagonal(c, np.sqrt(lam), select="i", select_range=(0, count - 1))


def _errored(out: dict) -> bool:
    return "error" in out


def check_levels(name: str, out: dict, oracle: np.ndarray, tol: float) -> list[str]:
    xi = np.asarray(out["xi"], dtype=float)
    errs = []
    if xi.shape != oracle.shape:
        return [f"{name}: {xi.size} levels, expected {oracle.size}"]
    if not out["complete"]:
        errs.append(f"{name}: result flagged incomplete")
    if np.any(np.diff(xi) <= 0):
        errs.append(f"{name}: levels not strictly increasing")
    err = float(np.max(np.abs(xi - oracle)))
    if not err <= tol:
        errs.append(f"{name}: max |xi - LAPACK| = {err:.3e} > {tol:.1e}")
    return errs


def _rabi_oracle(spec: dict, final_degree: int, count: int) -> np.ndarray:
    dim = max(ORACLE_DEGREE_FACTOR * final_degree, 200)
    c, lam = inputs.rabi_coefficients(spec["kappa"], spec["delta"], spec.get("parity", "+"), dim)
    return lowest_eigenvalues(c, lam, count)


def check_deep(inp: dict, outputs: dict):
    out = outputs["deep"]
    if _errored(out):
        return [], set()
    oracle = _rabi_oracle(inp, max(out["n_converged"]), inp["levels"])
    return check_levels("deep", out, oracle, inp["tol"]), set()


def check_scan(inp: dict, outputs: dict):
    errors, wrong_faulty = [], set()
    for req in inp["requests"]:
        op = inputs.request_id(req)
        out = outputs[op]
        if _errored(out):
            continue
        if req["kind"] == "rabi":
            oracle = _rabi_oracle(req, max(out["n_converged"]), inp["levels"])
        else:
            n_cap = min(req["c"].size, req["lam"].size + 1)
            oracle = lowest_eigenvalues(req["c"][:n_cap], req["lam"][: n_cap - 1], inp["levels"])
        errs = check_levels(op, out, oracle, inp["tol"])
        if errs and inputs.expected_to_fail(req):
            wrong_faulty.add(op)
        else:
            errors += errs
    return errors, wrong_faulty


def golub_welsch(c: np.ndarray, lam: np.ndarray):
    """Gauss nodes and weights of the n x n Jacobi matrix: eigenvalues and
    squared first components of the normalized eigenvectors."""
    nodes, vecs = eigh_tridiagonal(c, np.sqrt(lam))
    return nodes, vecs[0] ** 2


def _model_coefficients(spec: dict, n: int):
    return inputs.rabi_coefficients(spec["kappa"], spec.get("delta", 0.0), spec.get("parity", "+"), n)


def check_partial_fractions(name: str, spec: dict, out: dict) -> list[str]:
    nodes = np.asarray(out["nodes"], dtype=float)
    weights = np.asarray(out["weights"], dtype=float)
    gw_nodes, gw_weights = golub_welsch(*_model_coefficients(spec, spec["n"]))
    if nodes.shape != gw_nodes.shape:
        return [f"{name}: {nodes.size} nodes, expected {gw_nodes.size}"]
    errs = []
    node_err = float(np.max(np.abs(nodes - gw_nodes) / np.maximum(1.0, np.abs(gw_nodes))))
    if not node_err <= NODE_RTOL:
        errs.append(f"{name}: node error {node_err:.3e} > {NODE_RTOL:.0e}")
    big = gw_weights >= WEIGHT_FLOOR
    w_err = float(np.max(np.abs(weights[big] - gw_weights[big]) / gw_weights[big]))
    if not w_err <= WEIGHT_RTOL:
        errs.append(f"{name}: weight error {w_err:.3e} > {WEIGHT_RTOL:.0e} (weights >= {WEIGHT_FLOOR:.0e})")
    if not np.all(weights > 0.0):
        errs.append(f"{name}: nonpositive weight")
    return errs


def poisson_mass(kappa: float, k: int) -> float:
    """Jump of the displaced oscillator's measure at level k: e^{-kappa^2} kappa^{2k} / k!."""
    return math.exp(-kappa * kappa + 2 * k * math.log(kappa) - math.lgamma(k + 1))


def displaced_eigenvector(kappa: float, k: int, n_max: int) -> np.ndarray:
    """Taylor coefficients of (z + kappa)^k e^{-kappa z} / kappa^k, the
    Bargmann function of displaced level k normalized to phi_0 = 1, in exact
    rational arithmetic."""
    K = Fraction(kappa)
    coeffs = []
    for n in range(n_max + 1):
        s = Fraction(0)
        for j in range(min(k, n) + 1):
            s += math.comb(k, j) / K**j * (-K) ** (n - j) / math.factorial(n - j)
        coeffs.append(float(s))
    return np.array(coeffs)


def _lattice_error(family: str, fit: dict, values: np.ndarray) -> float:
    """Largest deviation of the fitted lattice from the exact one, relative
    to the spectrum's scale."""
    p = {"u0": fit["u0"], "u1": fit["u1"], "u2": fit["u2"], "q": fit["q"]}
    fitted = inputs.lattice_values(family, p, values.size)
    return float(np.max(np.abs(fitted - values)) / max(1.0, float(np.max(np.abs(values)))))


def check_measure(inp: dict, outputs: dict):
    errors = []
    for i, case in enumerate(inp["pf_cases"]):
        out = outputs[f"pf{i}"]
        if not _errored(out):
            errors += check_partial_fractions(f"pf{i}", case, out)

    for j, kappa in enumerate(inp["mass_kappas"]):
        for k in range(inp["mass_levels"]):
            out = outputs[f"mass{j}.{k}"]
            if _errored(out):
                continue
            exact = poisson_mass(kappa, k)
            rel = abs(out["mass"] - exact) / exact
            if not rel <= MASS_RTOL:
                errors.append(f"mass{j}.{k}: relative error {rel:.3e} vs Poisson mass")

    for i in range(len(inp["ef_points"])):
        e, f = outputs[f"E{i}"], outputs[f"F{i}"]
        if _errored(e) or _errored(f):
            continue
        defect = abs(e["value"] * f["value"] + 1.0)
        if not defect <= EF_TOL:
            errors.append(f"E{i}*F{i}: |E*F + 1| = {defect:.3e}")

    ev = inp["eigvec"]
    for k in range(ev["levels"]):
        out = outputs[f"eig{k}"]
        if _errored(out):
            continue
        exact = displaced_eigenvector(ev["kappa"], k, ev["n_max"])
        phi = np.asarray(out["phi"], dtype=float)
        err = float(np.max(np.abs(phi - exact)) / np.max(np.abs(exact))) if phi.shape == exact.shape else math.inf
        if not err <= EIGVEC_TOL:
            errors.append(f"eig{k}: coefficient error {err:.3e} vs exact Taylor coefficients")

    out = outputs["cf-compare"]
    if not _errored(out):
        errors += _check_cf_compare(inp["cf_compare"], out)

    out = outputs["classify-spectrum"]
    if not _errored(out):
        lat = inp["spectrum_lattice"]
        values = inputs.lattice_values(lat["family"], lat["params"], inp["lattice_levels"])
        if out["code"] != 0:
            errors.append(f"classify-spectrum: exit code {out['code']}")
        else:
            payload = json.loads(out["stdout"])
            fit = {"u0": 0.0, "u1": 0.0, "u2": 0.0, "q": None, **payload["params"]}
            err = _lattice_error(payload["family"], fit, values)
            if not err <= LATTICE_RTOL:
                errors.append(f"classify-spectrum: fitted {payload['family']} lattice off by {err:.3e}")

    for i, lat in enumerate(inp["lattices"]):
        out = outputs[f"lattice{i}"]
        if _errored(out):
            continue
        values = inputs.lattice_values(lat["family"], lat["params"], inp["lattice_levels"])
        err = _lattice_error(out["family"], out, values)
        if not err <= LATTICE_RTOL:
            errors.append(f"lattice{i}: best fit ({out['family']}) off the exact {lat['family']} lattice by {err:.3e}")
    return errors, set()


def _check_cf_compare(spec: dict, out: dict) -> list[str]:
    if out["code"] != 0:
        return [f"cf-compare: exit code {out['code']}"]
    payload = json.loads(out["stdout"])
    errs = []
    if payload["true_levels"] != spec["true_levels"]:
        errs.append(f"cf-compare: {payload['true_levels']} true levels, analytic count {spec['true_levels']}")
    exact = np.arange(spec["true_levels"]) - spec["kappa"] ** 2
    xi = np.array([r["xi"] for r in payload["intervals"]])
    if xi.shape != exact.shape or not np.max(np.abs(xi - exact)) <= CF_LEVEL_TOL:
        errs.append("cf-compare: interval levels are not the displaced ladder k - kappa^2")
    if not 0 <= payload["detected_levels"] <= payload["true_levels"]:
        errs.append("cf-compare: detected levels outside [0, true levels]")
    return errs


CHECKS = {"rabi-deep": check_deep, "scan": check_scan, "measure": check_measure}


def check(workload: str, inp: dict, outputs: dict):
    return CHECKS[workload](inp, outputs)
