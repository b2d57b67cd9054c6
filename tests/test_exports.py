"""The package root exports every public dataclass its modules define, and
every name it exports has a reader outside the tests."""

import dataclasses
import importlib
import re
import types
from pathlib import Path

import pytest

import hyperlap

MODULES = ("combin", "hypergraph", "laplacian", "spectra", "walks", "apps")

ROOT = Path(__file__).resolve().parents[1]
# where a reader of the public API may live: the library itself, the demos,
# the README, the benchmark harness and CI; the tests do not count
READERS = ("src/hyperlap", "demos", "README.md", "perfbench", ".github/workflows")
TEXT_SUFFIXES = (".py", ".md", ".yml")


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


def _reader_lines():
    """Every line of the reader files, less the package's __init__.py."""
    init = ROOT / "src" / "hyperlap" / "__init__.py"
    for place in READERS:
        path = ROOT / place
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and f.suffix in TEXT_SUFFIXES and f != init:
                yield from f.read_text(encoding="utf-8").splitlines()


def test_every_export_has_a_reader():
    """A name stays public only if something other than its own def or
    class line reads it: an export that only tests read is dead code."""
    names = [
        name for name, obj in vars(hyperlap).items()
        if not name.startswith("__") and not isinstance(obj, types.ModuleType)
    ]
    lines = list(_reader_lines())
    unread = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert unread == []
