import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeroflow

MODULES = ["classifier", "flows", "lattice", "measure", "models", "recurrence"]


def test_every_exported_name_resolves():
    missing = [name for name in zeroflow.__all__ if not hasattr(zeroflow, name)]
    assert missing == []
    assert len(set(zeroflow.__all__)) == len(zeroflow.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"zeroflow.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_library_imports_numpy_only():
    # pyproject.toml declares numpy as the only runtime dependency; scipy,
    # mpmath and hypothesis serve the tests as oracles and generators.  A cold
    # solve of 200 zeros must not load numpy.ma either (plain np.unique
    # imports it, which adds about a megabyte to the peak memory).
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    probe = (
        "import sys, zeroflow, zeroflow.cli; "
        "zeroflow.zeros_of(zeroflow.rabi_recurrence(zeroflow.RabiParams(0.2, 0.4)), 220, 200); "
        "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis', 'numpy.ma') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
