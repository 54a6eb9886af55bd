"""Runs one workload against zeroflow and reports timings and raw outputs.

run.py starts this file in a fresh interpreter with one compute thread and
PYTHONPATH set to the checkout's src/.  It imports zeroflow and numpy only,
never scipy or mpmath, so its peak resident size is the program's.

    python3 perfbench/worker.py --mode setup --workload scan --seed 1
    python3 perfbench/worker.py --mode run   --workload scan --seed 1 --seconds 20
    python3 perfbench/worker.py --mode trace --workload scan --seed 1 --trace-file F

`setup` builds the workload's models and prints the CLOCK_MONOTONIC time at
which they were built.  `run` repeats whole rounds of the workload until
--seconds of timed work have passed and prints one JSON object.  `trace`
runs one untraced round of the workload, then traced rounds of all three
workloads and the layer probes, writes the spans to --trace-file and prints
the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import zeroflow
from zeroflow import (
    GrowthSchedule,
    MonicRecurrence,
    RabiParams,
    TabulatedModel,
    best_lattice_fit,
    classify,
    count_zeros_below,
    displaced_recurrence,
    eval_E,
    eval_F,
    partial_fractions,
    rabi_raw_recurrence,
    rabi_recurrence,
    reconstruct_eigenvector,
    run_flows,
    spectral_mass,
    tabulated_recurrence,
    zeros_of,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

# Scan rounds in a traced run: two rounds give 58 requests, enough for a
# tail percentile with ten requests beyond it.
TRACE_SCAN_ROUNDS = 2


class Tracer:
    """Spans kept in memory: id, name, parent id, start and end (ns since the
    tracer was made), plus free attributes.  Written out once, at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_ns": time.perf_counter_ns() - self._t0,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns() - self._t0

    def seconds(self, name: str, **match) -> list[float]:
        return [
            (s["end_ns"] - s["start_ns"]) * 1e-9
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in match.items())
        ]


class NoTrace:
    """Stand-in for Tracer in untraced rounds: one shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


# -- models ---------------------------------------------------------------


def _rabi(kappa: float, delta: float, parity: str = "+") -> MonicRecurrence:
    return rabi_recurrence(RabiParams(kappa=kappa, delta=delta, parity=parity))


def _model(spec: dict) -> MonicRecurrence:
    if spec["kind"] == "displaced":
        return displaced_recurrence(spec["kappa"])
    if spec["kind"] == "rabi":
        return _rabi(spec["kappa"], spec["delta"], spec.get("parity", "+"))
    return tabulated_recurrence(TabulatedModel(spec["c"], spec["lam"], spec["name"]))


def prepare(workload: str, seed: int) -> dict:
    """Inputs plus built models: everything a round needs that is not timed."""
    inp = inputs.workload_inputs(workload, seed)
    if workload == "rabi-deep":
        return {"inp": inp, "rec": _rabi(inp["kappa"], inp["delta"], inp["parity"])}
    if workload == "scan":
        # requests build their own model inside the timed section, as a
        # parameter study does; building them here once is the set-up a
        # user pays before the first request.
        return {"inp": inp, "recs": [_model(req) for req in inp["requests"]]}
    import zeroflow.cli  # noqa: F401  (the measure workload drives the CLI)

    kappa = inp["eigvec"]["kappa"]
    return {
        "inp": inp,
        "pf_recs": [_model(case) for case in inp["pf_cases"]],
        "mass_recs": [displaced_recurrence(k) for k in inp["mass_kappas"]],
        "ef_recs": [_model(m) for m in inp["ef_models"]],
        "eig_rec": displaced_recurrence(kappa),
        "eig_raw": rabi_raw_recurrence(RabiParams(kappa=kappa, delta=0.0, parity="+")),
    }


# -- rounds ----------------------------------------------------------------
#
# A round returns a list of (operation id, result or exception).  Results
# stay raw inside the timed section and are turned into JSON afterwards.


def _attempt(outcomes: list, op: str, fn):
    try:
        outcomes.append((op, fn()))
    except Exception as exc:  # the failure is the measurement: record it
        outcomes.append((op, exc))


def round_deep(state: dict, tr) -> list:
    inp, out = state["inp"], []
    with tr.span("flows.run_flows", op="deep"):
        _attempt(out, "deep", lambda: run_flows(state["rec"], inp["levels"], tol=inp["tol"]))
    return out


def round_scan(state: dict, tr) -> list:
    inp, out = state["inp"], []

    def request(req):
        with tr.span("models.build"):
            rec = _model(req)
        with tr.span("flows.run_flows"):
            return run_flows(rec, inp["levels"], tol=inp["tol"])

    for req in inp["requests"]:
        op = inputs.request_id(req)
        with tr.span("scan.request", op=op):
            _attempt(out, op, lambda: request(req))
    return out


def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = zeroflow.cli.main(argv)
    return code, buf.getvalue()


def round_measure(state: dict, tr) -> list:
    inp, out = state["inp"], []
    for i, (case, rec) in enumerate(zip(inp["pf_cases"], state["pf_recs"])):
        with tr.span("measure.partial_fractions", op=f"pf{i}"):
            _attempt(out, f"pf{i}", lambda: partial_fractions(rec, case["n"]))
    for j, (kappa, rec) in enumerate(zip(inp["mass_kappas"], state["mass_recs"])):
        for k in range(inp["mass_levels"]):
            xi = k - kappa * kappa
            with tr.span("measure.spectral_mass", op=f"mass{j}.{k}"):
                _attempt(out, f"mass{j}.{k}", lambda: spectral_mass(rec, xi))
    for i, pt in enumerate(inp["ef_points"]):
        rec = state["ef_recs"][pt["model"]]
        with tr.span("measure.eval_E", op=f"E{i}"):
            _attempt(out, f"E{i}", lambda: eval_E(rec, pt["x"], pt["depth"]))
        with tr.span("measure.eval_F", op=f"F{i}"):
            _attempt(out, f"F{i}", lambda: eval_F(rec, pt["x"], pt["depth"]))
    ev = inp["eigvec"]
    for k in range(ev["levels"]):
        xi = k - ev["kappa"] ** 2
        with tr.span("measure.reconstruct_eigenvector", op=f"eig{k}"):
            _attempt(
                out,
                f"eig{k}",
                lambda: reconstruct_eigenvector(state["eig_rec"], state["eig_raw"], xi, ev["n_max"]),
            )
    cf = inp["cf_compare"]
    argv = [
        "cf-compare", "--model", "displaced", "--kappa", repr(cf["kappa"]),
        "--x-min", repr(cf["x_min"]), "--x-max", repr(cf["x_max"]), "--format", "json",
    ]
    with tr.span("cli.cf_compare", op="cf-compare"):
        _attempt(out, "cf-compare", lambda: _cli(argv))
    with tr.span("cli.classify_spectrum", op="classify-spectrum"):
        _attempt(out, "classify-spectrum", lambda: _cli(["classify-spectrum", state["spectrum_path"]]))
    for i, lat in enumerate(inp["lattices"]):
        values = inputs.lattice_values(lat["family"], lat["params"], inp["lattice_levels"])
        with tr.span("lattice.best_fit", op=f"lattice{i}"):
            _attempt(out, f"lattice{i}", lambda: best_lattice_fit(values))
    return out


ROUNDS = {"rabi-deep": round_deep, "scan": round_scan, "measure": round_measure}


# -- outputs ----------------------------------------------------------------


def _jsonable(value):
    """Raw program results to plain JSON values (floats round-trip exactly)."""
    if isinstance(value, Exception):
        return {"error": type(value).__name__, "message": str(value)}
    if isinstance(value, zeroflow.SpectrumResult):
        return {
            "xi": [lv.xi for lv in value.levels],
            "n_converged": [lv.n_converged for lv in value.levels],
            "converged": [lv.converged for lv in value.levels],
            "complete": value.complete,
        }
    if isinstance(value, zeroflow.DiscreteMeasure):
        return {"nodes": value.nodes.tolist(), "weights": value.weights.tolist()}
    if isinstance(value, zeroflow.SpectralMass):
        return {"mass": value.mass}
    if isinstance(value, zeroflow.EigenvectorResult):
        return {"phi": value.phi.tolist()}
    if isinstance(value, zeroflow.LatticeFit):
        return {
            "family": value.family, "u0": value.u0, "u1": value.u1, "u2": value.u2,
            "q": value.q, "residual": value.residual,
        }
    if isinstance(value, tuple):  # (exit code, stdout) of a CLI call
        return {"code": value[0], "stdout": value[1]}
    return {"value": float(value)}


def _outputs(outcomes: list) -> dict:
    return {op: _jsonable(v) for op, v in outcomes}


def _visited_degrees(levels: int, last: int, n_cap) -> list[int]:
    """The degrees run_flows's default schedule visits up to `last`."""
    schedule = GrowthSchedule(levels + 20, **({} if n_cap is None else {"n_max": n_cap}))
    return [n for n in schedule.degrees() if n <= last]


def schedule_work(outcomes: list, levels: int, caps: dict) -> tuple[int, int, int]:
    """(degrees visited, level x degree evaluations, evaluations of levels
    already converged), summed over the successful requests of one round.
    A level counts as converged from its n_converged degree on."""
    degrees = evals = rework = 0
    for op, res in outcomes:
        if not isinstance(res, zeroflow.SpectrumResult):
            continue
        conv = [lv.n_converged for lv in res.levels]
        visited = _visited_degrees(levels, max(conv), caps.get(op))
        degrees += len(visited)
        evals += levels * len(visited)
        rework += sum(1 for n_conv in conv for n in visited if n > n_conv)
    return degrees, evals, rework


def _timed_round(workload: str, state: dict, tr) -> tuple[float, list]:
    t0 = time.perf_counter()
    outcomes = ROUNDS[workload](state, tr)
    return time.perf_counter() - t0, outcomes


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_spectrum_file(state: dict, workdir: Path, seed: int) -> None:
    lat = state["inp"]["spectrum_lattice"]
    values = inputs.lattice_values(lat["family"], lat["params"], state["inp"]["lattice_levels"])
    path = workdir / f"spectrum-{seed}-{os.getpid()}.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    state["spectrum_path"] = str(path)


def _failed(outcomes: list) -> int:
    return sum(1 for _, v in outcomes if isinstance(v, Exception))


def mode_run(args) -> dict:
    state = prepare(args.workload, args.seed)
    if args.workload == "measure":
        _write_spectrum_file(state, Path(args.workdir), args.seed)
    round_s, attempted, failed, first, mismatched = [], 0, 0, None, 0
    tr = NoTrace()
    try:
        while not round_s or sum(round_s) < args.seconds:
            dt, outcomes = _timed_round(args.workload, state, tr)
            round_s.append(dt)
            attempted += len(outcomes)
            failed += _failed(outcomes)
            out = _outputs(outcomes)
            if first is None:
                first = out
            elif out != first:
                mismatched += 1
        rss = _peak_rss_mb()
    finally:
        if "spectrum_path" in state:
            Path(state["spectrum_path"]).unlink()
    return {
        "rounds": len(round_s),
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "rounds_differing_from_first": mismatched,
        "peak_rss_mb": rss,
        "outputs": {args.workload: first},
    }


# -- traced run --------------------------------------------------------------


def _median_call_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(tr: Tracer, deep_rec: MonicRecurrence) -> dict:
    """Single-layer timings at the sizes the workloads use."""
    out = {}
    with tr.span("probe.count_zeros_below"):
        out["recurrence.count_ns_per_step"] = (
            _median_call_s(lambda: count_zeros_below(deep_rec, 50.0, 2300), 3) / 2300 * 1e9
        )
    with tr.span("probe.coeff_arrays"):
        out["recurrence.coeff_arrays_us"] = _median_call_s(lambda: deep_rec.coeff_arrays(2295), 20) * 1e6
    with tr.span("probe.classify"):
        asym = deep_rec.asymptotics
        out["classifier.classify_us"] = _median_call_s(lambda: classify(asym), 200) * 1e6
    scan_rec = _rabi(1.0, inputs.SCAN_DELTA)
    with tr.span("probe.zeros_of", count=20):
        out["flows.zeros_of_ns.c20"] = _median_call_s(lambda: zeros_of(scan_rec, 135, 20), 3) / (135 * 20) * 1e9
    with tr.span("probe.zeros_of", count=1000):
        out["flows.zeros_of_ns.c1000"] = _median_call_s(lambda: zeros_of(deep_rec, 1020, 1000), 1) / (1020 * 1000) * 1e9
    pf_rec = _rabi(16.0, 0.4)
    with tr.span("probe.zeros_of", count=200):
        out["flows.zeros_of_ns.full200"] = _median_call_s(lambda: zeros_of(pf_rec, 200, 200), 3) / (200 * 200) * 1e9
    return out


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    if len(ordered) < 11:
        raise ValueError(f"{len(ordered)} samples leave no tail with ten beyond it")
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def mode_trace(args) -> dict:
    states = {w: prepare(w, args.seed) for w in inputs.WORKLOADS}
    _write_spectrum_file(states["measure"], Path(args.workdir), args.seed)
    try:
        untraced_s, untraced = _timed_round(args.workload, states[args.workload], NoTrace())
        tr = Tracer()
        traced: dict[str, list] = {w: [] for w in inputs.WORKLOADS}
        traced_s: dict[str, list] = {w: [] for w in inputs.WORKLOADS}
        for w in inputs.WORKLOADS:
            for _ in range(TRACE_SCAN_ROUNDS if w == "scan" else 1):
                with tr.span("round", workload=w):
                    dt, outcomes = _timed_round(w, states[w], tr)
                traced[w].append(outcomes)
                traced_s[w].append(dt)
        layers = probes(tr, states["rabi-deep"]["rec"])
    finally:
        Path(states["measure"]["spectrum_path"]).unlink()

    def mean_s(name: str) -> float:
        return statistics.mean(tr.seconds(name))

    layers["models.build_us"] = 1e6 * statistics.median(tr.seconds("models.build"))
    deep = traced["rabi-deep"][0]
    deep_levels = inputs.DEEP["levels"]
    layers["flows.run_flows_s.deep"] = tr.seconds("flows.run_flows", op="deep")[0]
    d_deg, d_evals, d_rework = schedule_work(deep, deep_levels, {})
    deep_res = deep[0][1]
    layers["flows.final_degree.deep"] = (
        max(lv.n_converged for lv in deep_res.levels) if isinstance(deep_res, zeroflow.SpectrumResult) else 0
    )
    layers["flows.degrees.deep"] = d_deg
    layers["flows.rework_share.deep"] = d_rework / d_evals if d_evals else 0.0
    requests_ms = [1e3 * s for s in tr.seconds("scan.request")]
    layers["flows.request_ms.p50"] = statistics.median(requests_ms)
    tail_pct, layers["flows.request_ms.tail"] = _tail(requests_ms)
    caps = {
        inputs.request_id(req): req["c"].shape[0]
        for req in states["scan"]["inp"]["requests"]
        if req["kind"] == "table"
    }
    s_deg, s_evals, s_rework = schedule_work(traced["scan"][0], inputs.SCAN_LEVELS, caps)
    layers["flows.degrees.scan"] = s_deg
    layers["flows.rework_share.scan"] = s_rework / s_evals
    layers["measure.partial_fractions_ms"] = 1e3 * mean_s("measure.partial_fractions")
    layers["measure.spectral_mass_us"] = 1e6 * mean_s("measure.spectral_mass")
    layers["measure.eval_F_us"] = 1e6 * mean_s("measure.eval_F")
    layers["measure.reconstruct_eigenvector_ms"] = 1e3 * mean_s("measure.reconstruct_eigenvector")
    layers["lattice.best_fit_ms"] = 1e3 * mean_s("lattice.best_fit")
    layers["cli.cf_compare_s"] = tr.seconds("cli.cf_compare")[0]
    layers["trace.overhead_pct"] = 100.0 * (traced_s[args.workload][0] / untraced_s - 1.0)

    with open(args.trace_file, "w") as fh:
        for s in tr.spans:
            fh.write(json.dumps(s) + "\n")

    own = [untraced] + traced[args.workload]
    first = _outputs(untraced)
    return {
        "rounds": len(own),
        "attempted": sum(len(o) for o in own),
        "failed": sum(_failed(o) for o in own),
        "rounds_differing_from_first": sum(1 for o in traced[args.workload] if _outputs(o) != first),
        "layers": layers,
        "notes": {
            "request_tail_percentile": tail_pct,
            "scan_requests": len(requests_ms),
            "untraced_round_s": untraced_s,
            "traced_round_s": traced_s,
            "spans": len(tr.spans),
        },
        "outputs": {w: _outputs(traced[w][0]) for w in inputs.WORKLOADS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--workdir", default=".")
    p.add_argument("--trace-file", default=None)
    args = p.parse_args(argv)
    if args.mode == "setup":
        prepare(args.workload, args.seed)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    result = mode_run(args) if args.mode == "run" else mode_trace(args)
    result["zeroflow_file"] = zeroflow.__file__
    result["scipy_or_mpmath_loaded"] = sorted(m for m in ("scipy", "mpmath") if m in sys.modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
