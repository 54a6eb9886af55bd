import importlib

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
