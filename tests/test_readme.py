"""The README's library quick start runs and gives the values its comments
promise."""

import contextlib
import io
import pathlib
import re
from fractions import Fraction

import pytest

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
