"""zeroflow benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload rabi-deep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout of the repository.  The program under
test is the checkout's src/zeroflow; nothing needs installing.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb); with --trace 1 they are the per-layer ones
from a separate traced run.  Result and trace files go to
perfbench/results/.

This process only orchestrates and checks.  The program runs in fresh
child interpreters started with sys.executable and one compute thread; the
checks here use scipy, which the program's process never imports.
"""

from __future__ import annotations

import os

# One compute thread for everything this benchmark starts, set before numpy
# or scipy load a BLAS in this process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "recurrence.count_ns_per_step": "ns",
    "recurrence.coeff_arrays_us": "us",
    "models.build_us": "us",
    "classifier.classify_us": "us",
    "flows.zeros_of_ns.c20": "ns",
    "flows.zeros_of_ns.c1000": "ns",
    "flows.zeros_of_ns.full200": "ns",
    "flows.run_flows_s.deep": "s",
    "flows.request_ms.p50": "ms",
    "flows.request_ms.tail": "ms",
    "flows.final_degree.deep": "count",
    "flows.degrees.deep": "count",
    "flows.degrees.scan": "count",
    "flows.rework_share.deep": "ratio",
    "flows.rework_share.scan": "ratio",
    "measure.partial_fractions_ms": "ms",
    "measure.spectral_mass_us": "us",
    "measure.eval_F_us": "us",
    "measure.reconstruct_eigenvector_ms": "ms",
    "lattice.best_fit_ms": "ms",
    "cli.cf_compare_s": "s",
    "cli.import_s": "s",
    "cli.spectrum10_s": "s",
    "trace.overhead_pct": "%",
}

SETUP_STARTS = 9  # timed fresh starts per run; their median is setup_s
IMPORT_STARTS = 5
SPECTRUM10_STARTS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    # subprocess.run kills the child on timeout and waits for it to end
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fresh_start_s(args: list[str], starts: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the CLOCK_MONOTONIC time
    it prints, one untimed start first so the bytecode cache is warm."""
    cmd = [sys.executable, *args]
    _run(cmd)
    samples = []
    for _ in range(starts):
        t0 = _now()
        out = _run(cmd)
        samples.append(float(out.strip().splitlines()[-1]) - t0)
    return samples


def process_s(args: list[str], starts: int) -> list[float]:
    """Whole-process wall times of a fresh interpreter, after one untimed start."""
    cmd = [sys.executable, *args]
    _run(cmd)
    samples = []
    for _ in range(starts):
        t0 = _now()
        _run(cmd)
        samples.append(_now() - t0)
    return samples


def worker(mode: str, workload: str, seed: int, *extra: str) -> list[str]:
    return [
        str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--workdir", str(RESULTS), *extra,
    ]


def run_worker(args: list[str]) -> dict:
    out = json.loads(_run([sys.executable, *args]).strip().splitlines()[-1])
    if Path(out["zeroflow_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"zeroflow was imported from {out['zeroflow_file']}, not from {SRC}")
    if out["scipy_or_mpmath_loaded"]:
        raise BenchError(f"the program's process loaded {out['scipy_or_mpmath_loaded']}")
    return out


def check_outputs(workloads, seed: int, outputs: dict):
    """(errors, ops known to answer wrongly that did) over the workloads."""
    import checks  # scipy loads here, in the orchestrator only

    errors, wrong_faulty = [], {}
    for w in workloads:
        errs, wrong = checks.check(w, inputs.workload_inputs(w, seed), outputs[w])
        errors += [f"{w}: {e}" for e in errs]
        wrong_faulty[w] = wrong
    return errors, wrong_faulty


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args) -> tuple[dict, dict]:
    setup = fresh_start_s(worker("setup", args.workload, args.seed), SETUP_STARTS)
    res = run_worker(worker("run", args.workload, args.seed, "--seconds", str(args.seconds)))
    errors, wrong = check_outputs([args.workload], args.seed, res["outputs"])
    metrics = {
        "wall_s": _metric(statistics.median(res["round_s"]), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    detail = {"round_s": res["round_s"], "setup_samples_s": setup}
    return _summary(args, res, errors, wrong, metrics, END_TO_END), detail


def run_traced(args, trace_file: Path) -> tuple[dict, dict]:
    imports = fresh_start_s(["-c", "import time, zeroflow; print(time.clock_gettime(time.CLOCK_MONOTONIC))"], IMPORT_STARTS)
    spectrum10 = process_s(
        ["-m", "zeroflow.cli", "spectrum", "--model", "rabi", "--kappa", "0.2", "--delta", "0.4", "--levels", "10"],
        SPECTRUM10_STARTS,
    )
    res = run_worker(worker("trace", args.workload, args.seed, "--trace-file", str(trace_file)))
    errors, wrong = check_outputs(inputs.WORKLOADS, args.seed, res["outputs"])
    layers = dict(res["layers"])
    layers["cli.import_s"] = statistics.median(imports)
    layers["cli.spectrum10_s"] = statistics.median(spectrum10)
    metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    detail = {**res["notes"], "import_samples_s": imports, "spectrum10_samples_s": spectrum10}
    return _summary(args, res, errors, wrong, metrics, PER_LAYER), detail


def _summary(args, res: dict, errors: list, wrong: dict, metrics: dict, declared: dict) -> dict:
    if set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(metrics)} do not match the declared {sorted(declared)}")
    if res["rounds_differing_from_first"]:
        errors.append(f"{res['rounds_differing_from_first']} rounds gave other outputs than the first")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    # a known-faulty operation that answered wrongly failed in every round
    failed = res["failed"] + len(wrong[args.workload]) * res["rounds"]
    return {"correct": not errors, "attempted": res["attempted"], "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zeroflow benchmark")
    p.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "zeroflow" / "__init__.py").is_file():
        print(f"error: no zeroflow sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            result, detail = run_traced(args, RESULTS / f"{stem}.spans.jsonl")
        else:
            result, detail = run_untraced(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
