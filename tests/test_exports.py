"""The package root exports every public dataclass its modules define."""

import dataclasses
import importlib

import pytest

import hyperlap

MODULES = ("combin", "hypergraph", "laplacian", "spectra", "walks", "apps")


@pytest.mark.parametrize("name", MODULES)
def test_public_dataclasses_are_exported(name):
    mod = importlib.import_module(f"hyperlap.{name}")
    missing = [
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_") and isinstance(obj, type)
        and dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__
        and getattr(hyperlap, attr, None) is not obj
    ]
    assert missing == []
