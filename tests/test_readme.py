"""The README's library quick start runs and gives the values its comments
promise, and its command-line examples run."""

import contextlib
import io
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

import hyperlap.cli as cli
from hyperlap import Hypergraph

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_blocks():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 3
    ns: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, str(README), "exec"), ns)
    spec = ns["spec"]
    assert spec.lambda1 == pytest.approx(0.9642857, abs=1e-7)
    assert spec.lambda_max == pytest.approx(1.25)
    assert ns["spectral_radius"](spec) == pytest.approx(0.25)
    assert ns["c"].counts[(2, 5)] == 1440 == ns["tree_walk_count"](6, 3, 1, 2)
    trace = ns["expected_trace"](6, 3, 1, 2, Fraction(2, 5), exact=True)
    assert trace == Fraction(144, 5)


def test_readme_commands_never_read_the_edge_tuples(monkeypatch):
    """Every pipeline stage reads the edge array: with the derived frozenset
    made to raise, each README command still runs to a report."""
    def refuse(self):
        raise AssertionError("a pipeline stage read Hypergraph.edges")

    monkeypatch.setattr(Hypergraph, "edges", property(refuse))
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line, comments=True)[1:] for line in block.group(1).splitlines()]
    assert len(commands) == 10
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--deterministic"]) in (0, 1), argv
