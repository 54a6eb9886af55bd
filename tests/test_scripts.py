"""Smoke tests: the example scripts run end to end on small inputs.

The scripts import package internals (sign_scan_comparison.py uses the
private measure._sign_flips and recurrence._frozen_counts), so a rename
there must fail here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sign_scan_comparison_script():
    out = run_script(
        "sign_scan_comparison.py", "--kappa", "0.5", "--x-max", "20", "--points", "2001"
    )
    assert "levels below 20.0: 21 (all converged: True)" in out
    assert "depth 81" in out


def test_flow_convergence_script():
    # displaced kappa = 1: at degree 8 the ground flow is still 6e-5 above
    # -kappa**2, so no flow stops early and every row is full
    out = run_script(
        "flow_convergence.py", "--kappa", "1", "--levels", "1", "2", "--schedule", "4", "6", "8"
    )
    rows = [r.split() for r in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [4, 6, 8]
    assert all(len(r) == 3 for r in rows)
    ground = [float(r[1]) for r in rows]
    assert ground[0] > ground[1] > ground[2] > -1.0 + 1e-12


def test_rabi_levels_script():
    out = run_script("rabi_levels.py", "--levels", "12", "--fit-levels", "10", "--tol", "1e-8")
    assert out.count("complete=True") == 2
