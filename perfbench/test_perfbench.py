"""Tests of the benchmark itself: seeded inputs, metric names, and checkers
that reject wrong answers.  They need numpy and scipy, not zeroflow.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert _equal(inputs.workload_inputs(workload, 11), inputs.workload_inputs(workload, 11))


def _structure(x):
    """The spec with every number replaced by its type and every array by
    its shape: what decides how much work a round does."""
    if isinstance(x, dict):
        return {k: _structure(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_structure(v) for v in x]
    if isinstance(x, np.ndarray):
        return ("array", x.shape)
    return type(x).__name__


@pytest.mark.parametrize("workload", ["scan", "measure"])
def test_seed_changes_values_not_sizes(workload):
    a, b = inputs.workload_inputs(workload, 1), inputs.workload_inputs(workload, 2)
    assert not _equal(a, b)
    assert _structure(a) == _structure(b)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


# -- checkers ------------------------------------------------------------------


def _levels_out(xi, final_degree):
    return {"xi": list(xi), "n_converged": [final_degree] * len(xi), "converged": [True] * len(xi), "complete": True}


def _shift_one_level(out, oracle_next):
    bad = copy.deepcopy(out)
    bad["xi"] = bad["xi"][1:] + [oracle_next]
    return bad


def test_deep_checker_rejects_shifted_spectrum():
    spec = dict(inputs.DEEP, levels=50)
    final = 300
    oracle = checks._rabi_oracle(spec, final, 51)
    good = {"deep": _levels_out(oracle[:50], final)}
    assert checks.check_deep(spec, good) == ([], set())
    errors, _ = checks.check_deep(spec, {"deep": _shift_one_level(good["deep"], oracle[50])})
    assert errors
    incomplete = copy.deepcopy(good)
    incomplete["deep"]["complete"] = False
    assert checks.check_deep(spec, incomplete)[0]


def _scan_truth(inp):
    outs = {}
    for req in inp["requests"]:
        if req["kind"] == "rabi":
            xi = checks._rabi_oracle(req, 135, inp["levels"] + 1)
        else:
            xi = checks.lowest_eigenvalues(req["c"], req["lam"], inp["levels"] + 1)
        outs[inputs.request_id(req)] = (_levels_out(xi[:-1], 135), xi[-1])
    return outs


def test_scan_checker_rejects_shifted_levels_and_flags_the_trap():
    inp = inputs.scan_inputs(5)
    truth = _scan_truth(inp)
    good = {op: out for op, (out, _) in truth.items()}
    assert checks.check_scan(inp, good) == ([], set())

    table, nxt = truth["table0"]
    errors, wrong = checks.check_scan(inp, {**good, "table0": _shift_one_level(table, nxt)})
    assert errors and not wrong

    trap, nxt = truth[inputs.TRAP_NAME]
    errors, wrong = checks.check_scan(inp, {**good, inputs.TRAP_NAME: _shift_one_level(trap, nxt)})
    assert not errors and wrong == {inputs.TRAP_NAME}

    raised = {**good, "rabi(kappa=1.75,+)": {"error": "NonMonotoneFlow", "message": ""}}
    assert checks.check_scan(inp, raised) == ([], set())


def _measure_truth(inp):
    outs = {}
    for i, case in enumerate(inp["pf_cases"]):
        nodes, weights = checks.golub_welsch(*checks._model_coefficients(case, case["n"]))
        # Golub-Welsch flushes far-tail weights to 0; the program's are > 0
        outs[f"pf{i}"] = {"nodes": nodes.tolist(), "weights": np.maximum(weights, 1e-300).tolist()}
    for j, kappa in enumerate(inp["mass_kappas"]):
        for k in range(inp["mass_levels"]):
            outs[f"mass{j}.{k}"] = {"mass": checks.poisson_mass(kappa, k)}
    for i in range(len(inp["ef_points"])):
        e = 0.5 + i
        outs[f"E{i}"], outs[f"F{i}"] = {"value": e}, {"value": -1.0 / e}
    ev = inp["eigvec"]
    for k in range(ev["levels"]):
        outs[f"eig{k}"] = {"phi": checks.displaced_eigenvector(ev["kappa"], k, ev["n_max"]).tolist()}
    cf = inp["cf_compare"]
    intervals = [{"xi": k - cf["kappa"] ** 2} for k in range(cf["true_levels"])]
    payload = {"true_levels": cf["true_levels"], "detected_levels": 5, "intervals": intervals}
    outs["cf-compare"] = {"code": 0, "stdout": json.dumps(payload)}
    lat = inp["spectrum_lattice"]
    fit = {"family": lat["family"], "params": lat["params"], "residual": 0.0, "levels_used": 50}
    outs["classify-spectrum"] = {"code": 0, "stdout": json.dumps(fit)}
    for i, lat in enumerate(inp["lattices"]):
        outs[f"lattice{i}"] = {"family": lat["family"], "u0": 0.0, "u1": 0.0, "u2": 0.0, "q": None, **lat["params"]}
    return outs


def _perturb(outs, op, key, fn):
    bad = copy.deepcopy(outs)
    bad[op][key] = fn(bad[op][key])
    return bad


def test_measure_checker_accepts_oracle_answers():
    inp = inputs.measure_inputs(9)
    assert checks.check_measure(inp, _measure_truth(inp)) == ([], set())


@pytest.mark.parametrize(
    "op,key,fn",
    [
        ("pf3", "weights", lambda w: [x * (1 + 1e-9) for x in w]),
        ("pf6", "nodes", lambda x: [v + 1e-9 for v in x]),
        ("mass1.3", "mass", lambda m: m * (1 + 1e-9)),
        ("E7", "value", lambda e: e * (1 + 1e-9)),
        ("eig2", "phi", lambda p: [v + 1e-9 * max(map(abs, p)) for v in p]),
        ("lattice2", "u0", lambda u: u + 1e-6),
        (
            "cf-compare",
            "stdout",
            lambda s: json.dumps({**json.loads(s), "true_levels": 100, "intervals": json.loads(s)["intervals"][:-1]}),
        ),
        (
            "classify-spectrum",
            "stdout",
            lambda s: json.dumps({**json.loads(s), "params": {**json.loads(s)["params"], "u1": 1.0}}),
        ),
    ],
)
def test_measure_checker_rejects_wrong_answer(op, key, fn):
    inp = inputs.measure_inputs(9)
    errors, _ = checks.check_measure(inp, _perturb(_measure_truth(inp), op, key, fn))
    assert errors and all(e.startswith(op) for e in errors)
