"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a wrong expected value makes the correctness gate fail, and that
the driver refuses to run without the library sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from worker import run_pass  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(stdout: str) -> list[dict]:
    return [json.loads(x) for x in stdout.splitlines() if x.startswith("{")]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--profile", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = _results(proc.stdout)
    assert len(lines) == len(WORKLOADS)
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    for line in lines:
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == want
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    if trace:
        matrix = lines[WORKLOADS.index("matrix_large")]["metrics"]
        # expansion and the diameter trial reach build_aux through the CLI's
        # binding, perturbation_diagnostics through apps': all three are seen
        assert matrix["laplacian.build_aux.calls"]["value"] == 3
        walk = lines[WORKLOADS.index("walk_sweep")]["metrics"]
        assert walk["walks.enumerate_closed_walks.walks"]["value"] == 100
        assert walk["walks.stop_degree_check.calls"]["value"] == 80


def _gate(ops, digests=None) -> dict:
    """The result line the driver would print for one pass of ops."""
    res = run_pass(ops, digests or {})
    res.update(traced=0, setup_s=0.1, setup_raw_s=0.1, peak_rss_mb=1.0, platform={})
    args = argparse.Namespace(workload="x", seed=0, trace=0, profile="tiny", seconds=1)
    line, _ = run.result(SPEC, args, [res], [res])
    return line


def test_gate_passes_on_the_reference_expectations():
    for name in WORKLOADS:
        line = _gate(workloads.WORKLOADS[name](0, "tiny"))
        assert line["correct"] and line["failed"] == 0, name


@pytest.mark.parametrize("table, key, wrong", [
    ("_WALK_COUNT", "tiny", (((5, 2, 1, 4), 141),)),
    ("_EXPECTED_TRACE", "tiny", ((5, 2, 1, 4), 1)),
])
def test_wrong_expected_value_fails_the_gate(monkeypatch, table, key, wrong):
    monkeypatch.setitem(getattr(workloads, table), key, wrong)
    line = _gate(workloads.walk_count(0, "tiny"))
    assert line["correct"] is False and line["failed"] == 1


def test_wrong_sweep_count_fails_the_gate(monkeypatch):
    table = dict(workloads._SWEEP["tiny"])
    table[(4, 2, 1, 4)] = (61, 54, 2)
    monkeypatch.setitem(workloads._SWEEP, "tiny", table)
    line = _gate(workloads.walk_sweep(0, "tiny"))
    assert line["correct"] is False and line["failed"] == 1


def test_wrong_digest_fails_the_gate():
    ops = workloads.readme_mix(0, "tiny")
    line = _gate(ops, {ops[0].label: "0" * 64})
    assert line["correct"] is False and line["failed"] == 1


def test_sweep_table_matches_the_frozen_totals():
    table = workloads._SWEEP["full"]
    assert len(table) == 45
    assert [sum(v[i] for v in table.values()) for i in range(3)] == [166628, 63938, 54]


def test_reference_loop_samples_inside_a_long_operation_and_is_not_charged():
    def spin():
        end = time.perf_counter() + 0.8
        while time.perf_counter() < end:
            pass

    res = run_pass([workloads.Op("spin", spin, lambda out, digests: [])], {})
    assert res["ref_samples"] > 2 * worker.REF_EDGE
    assert res["latencies"][0] < 0.8
    assert res["wall_ref"] == pytest.approx(sum(res["latencies_ref"]))
    assert res["wall_ref"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "walk_count", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert _results(proc.stdout) == []
