"""The benchmark's workloads: the fixed work of one pass, built from the
seed, and the checks on every output.

A pass is a list of operations run back to back by one client (a closed
loop).  Each operation goes through hyperlap's public API only: the CLI
entry point hyperlap.cli.main(argv) or a walk function exported by the
package.  Names are looked up at call time so the tracer's wrappers are
seen.  Every CLI run uses --deterministic and the default --jobs 1.

Two profiles exist: "full" is what the benchmark measures, "tiny" runs
the same code paths at sizes small enough for the smoke test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import hyperlap
import hyperlap.cli  # the package __init__ does not import the CLI

DEFAULT_SEED = 0
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass(frozen=True)
class Op:
    """One timed operation: run() is timed, check(output, digests) is not
    and returns the list of misses."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], list[str]]


# ------------------------------------------------------------------ reports


def _value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_report(text: str) -> tuple[dict, list[dict], dict]:
    """(config, records, summary) of a JSON or CSV report."""
    if not text.startswith("# config "):
        doc = json.loads(text)
        return doc["config"], doc["records"], {**doc["summary"], "pass": doc["pass"]}
    config: dict = {}
    records: list[dict] = []
    summary: dict = {}
    header = None
    for line in text.splitlines():
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
        elif line.startswith("# "):
            key, _, val = line[2:].partition("=")
            summary[key] = _value(val)
        elif header is None:
            header = line.split(",")
        else:
            records.append({k: _value(v) for k, v in zip(header, line.split(","))})
    return config, records, summary


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# seed-free invariants, each (config, records, summary) -> list of misses

def _complete_spectrum_exact(cfg, recs, summ):
    err, tol = summ["max_abs_error"], summ["tolerance"]
    return [] if err <= tol else [f"max_abs_error {err} > {tol}"]


def _ekr_rows_match(cfg, recs, summ):
    bad = [r["s"] for r in recs if r["match"] is not True]
    return [f"ekr rows s={bad} do not match the star"] if bad else []


def _perturbation_identity(cfg, recs, summ):
    out = []
    for r in recs:
        if r["identity_residual"] > cfg["tol"]:
            out.append(f"trial {r['trial']}: identity_residual {r['identity_residual']}")
        if r["triangle_holds"] is not True:
            out.append(f"trial {r['trial']}: triangle inequality fails")
    return out


def _walk_census(total: int | None):
    """Census totals, zero bound violations and the tree cell."""

    def check(cfg, recs, summ):
        n, r, s, t = cfg["n"], cfg["r"], cfg["s"], cfg["t"]
        out = []
        if total is not None and summ["total"] != total:
            out.append(f"total {summ['total']} != {total}")
        if summ["violations"] != 0:
            out.append(f"{summ['violations']} census cells exceed their bound")
        if t % 2 == 0:
            k = t // 2
            cell = {(c["i"], c["j"]): c["count"] for c in recs}.get((k, s + k * (r - s)), 0)
            want = hyperlap.tree_walk_count(n, r, s, k)
            if cell != want:
                out.append(f"tree cell {cell} != tree_walk_count {want}")
        return out

    return check


def cli_op(argv: list[str], *invariants) -> Op:
    argv = list(argv) + ["--deterministic"]
    label = " ".join(argv)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = hyperlap.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, buf.getvalue()

    def check(out, digests):
        code, text = out
        if code not in (0, 1):
            return [f"exit {code}"]
        cfg, recs, summ = parse_report(text)
        misses = []
        if "error" in summ or any("error" in r for r in recs):
            misses.append("error record")
        else:
            for inv in invariants:
                misses += inv(cfg, recs, summ)
        want = digests.get(label)
        if want is not None and digest(text) != want:
            misses.append("report digest differs from golden.json")
        return misses

    return Op(label, run, check)


# ---------------------------------------------------------------- workloads


def _args(**kw) -> list[str]:
    return [x for k, v in kw.items() for x in (f"--{k}", str(v))]


def matrix_large(seed: int, profile: str) -> list[Op]:
    """Per-edge Python loops, five dense eigensolves and an all-pairs BFS at
    dim 1128.  expansion reports holds=0 (exit 1) on random trials: that
    is a result, not a miss."""
    big, diam = {
        "full": ((48, 4, 2, 0.1), (24, 4, 2, 0.3)),
        "tiny": ((10, 4, 2, 0.5), (9, 4, 2, 0.7)),
    }[profile]
    n, r, s, p = big
    dn, dr, ds, dp = diam
    return [
        cli_op(["expansion"] + _args(n=n, r=r, s=s, p=p, trials=1, seed=seed)),
        cli_op(["diagnostics"] + _args(n=n, r=r, s=s, p=p, trials=1, seed=seed),
               _perturbation_identity),
        cli_op(["diameter"] + _args(n=dn, r=dr, s=ds, p=dp, trials=1, seed=seed)),
    ]


# the README's ten subcommands at README sizes with --trials capped at 5
# and without --jobs; (argv, takes a per-round --seed, invariants)
_README = (
    (["spectrum", "--complete"] + _args(n=10, r=4, s=2), False, [_complete_spectrum_exact]),
    (["radius"] + _args(n=30, r=3, s=1, p=0.5, trials=5), True, []),
    (["semicircle"] + _args(n=40, r=3, s=1, p=0.3, trials=5), True, []),
    (["walk-count"] + _args(n=5, r=2, s=1, t=4, format="csv"), False, [_walk_census(None)]),
    (["mixing"] + _args(n=12, r=3, s=1, p=0.5, trials=5, steps=3), True, []),
    (["diameter"] + _args(n=12, r=3, s=1, p=0.5, trials=5), True, []),
    (["expansion"] + _args(n=14, r=3, s=1, p=0.5, trials=5), True, []),
    (["monotonicity", "--complete"] + _args(n=10, r=4), False, []),
    (["ekr"] + _args(n=16), False, [_ekr_rows_match]),
    (["diagnostics"] + _args(n=30, r=3, s=1, p=0.5, trials=5), True,
     [_perturbation_identity]),
)


def readme_mix(seed: int, profile: str) -> list[Op]:
    """Small instances where parse, dispatch, emit and fixed per-call costs
    dominate; 11 rounds give 110 commands, so at least 10 lie beyond p90."""
    rounds = {"full": 11, "tiny": 1}[profile]
    return [
        cli_op(argv + (["--seed", str(seed + k)] if seeded else []), *inv)
        for k in range(rounds)
        for argv, seeded, inv in _README
    ]


_WALK_COUNT = {
    "full": (((6, 3, 1, 6), 445920), ((8, 3, 1, 5), 102480), ((10, 4, 2, 4), 69300)),
    "tiny": (((5, 2, 1, 4), 140),),
}
_EXPECTED_TRACE = {
    "full": ((6, 3, 1, 6), Fraction(1240880, 243)),
    "tiny": ((5, 2, 1, 4), Fraction(200, 27)),
}


def walk_count(seed: int, profile: str) -> list[Op]:
    """Exhaustive good-walk DFS with both aggregations, census cells and
    moment profiles; no matrix work.  The inputs do not depend on the seed."""
    ops = [
        cli_op(["walk-count"] + _args(n=n, r=r, s=s, t=t), _walk_census(total))
        for (n, r, s, t), total in _WALK_COUNT[profile]
    ]
    (n, r, s, t), want = _EXPECTED_TRACE[profile]

    def run():
        return hyperlap.expected_trace(n, r, s, t, Fraction(1, 3), exact=True)

    def check(value, digests):
        return [] if value == want else [f"expected_trace {value} != {want}"]

    ops.append(Op(f"expected_trace({n},{r},{s},{t},1/3)", run, check))
    return ops


# (n, r, s, t) -> (good walks, distinct edge sequences, census cells) at
# this grid, counted by the reference enumerator.  The full grid is
# test_05's shape on r in {2,3}, n in [r,7], t in [2,5] plus (10,4,2,4):
# 166,628 walks, 63,938 sequences, 54 cells.
_SWEEP = {
    "full": {
        (2, 2, 1, 2): (2, 1, 1), (2, 2, 1, 3): (0, 0, 0), (2, 2, 1, 4): (2, 1, 1),
        (2, 2, 1, 5): (0, 0, 0), (3, 2, 1, 2): (6, 3, 1), (3, 2, 1, 3): (0, 0, 0),
        (3, 2, 1, 4): (18, 15, 2), (3, 2, 1, 5): (0, 0, 0), (4, 2, 1, 2): (12, 6, 1),
        (4, 2, 1, 3): (0, 0, 0), (4, 2, 1, 4): (60, 54, 2), (4, 2, 1, 5): (0, 0, 0),
        (5, 2, 1, 2): (20, 10, 1), (5, 2, 1, 3): (0, 0, 0), (5, 2, 1, 4): (140, 130, 2),
        (5, 2, 1, 5): (0, 0, 0), (6, 2, 1, 2): (30, 15, 1), (6, 2, 1, 3): (0, 0, 0),
        (6, 2, 1, 4): (270, 255, 2), (6, 2, 1, 5): (0, 0, 0), (7, 2, 1, 2): (42, 21, 1),
        (7, 2, 1, 3): (0, 0, 0), (7, 2, 1, 4): (462, 441, 2), (7, 2, 1, 5): (0, 0, 0),
        (3, 3, 1, 2): (6, 1, 1), (3, 3, 1, 3): (6, 1, 1), (3, 3, 1, 4): (18, 1, 1),
        (3, 3, 1, 5): (30, 1, 1), (4, 3, 1, 2): (24, 4, 1), (4, 3, 1, 3): (24, 4, 1),
        (4, 3, 1, 4): (336, 40, 2), (4, 3, 1, 5): (1080, 124, 2), (5, 3, 1, 2): (60, 10, 1),
        (5, 3, 1, 3): (60, 10, 1), (5, 3, 1, 4): (1740, 250, 3),
        (5, 3, 1, 5): (5700, 760, 3), (6, 3, 1, 2): (120, 20, 1),
        (6, 3, 1, 3): (120, 20, 1), (6, 3, 1, 4): (5760, 920, 3),
        (6, 3, 1, 5): (18600, 2720, 3), (7, 3, 1, 2): (210, 35, 1),
        (7, 3, 1, 3): (210, 35, 1), (7, 3, 1, 4): (14910, 2555, 3),
        (7, 3, 1, 5): (47250, 7385, 3), (10, 4, 2, 4): (69300, 48090, 3),
    },
    "tiny": {
        (2, 2, 1, 2): (2, 1, 1), (2, 2, 1, 3): (0, 0, 0), (2, 2, 1, 4): (2, 1, 1),
        (3, 2, 1, 2): (6, 3, 1), (3, 2, 1, 3): (0, 0, 0), (3, 2, 1, 4): (18, 15, 2),
        (4, 2, 1, 2): (12, 6, 1), (4, 2, 1, 3): (0, 0, 0), (4, 2, 1, 4): (60, 54, 2),
    },
}


def _sweep(n: int, r: int, s: int, t: int) -> tuple[int, ...]:
    """(walks, sequences, cells, census total, degree violations, cell
    violations) at one grid point."""
    walks = bad = 0
    seen = set()
    for w in hyperlap.enumerate_closed_walks(n, r, s, t, good_only=True):
        walks += 1
        # the degree check depends only on the edge sequence
        if w.edges in seen:
            continue
        seen.add(w.edges)
        bad += not hyperlap.stop_degree_check(w).holds
    counts = hyperlap.census(n, r, s, t).counts
    cell_bad = sum(
        cnt > hyperlap.census_upper_bound(n, r, s, t, i, j)
        for (i, j), cnt in counts.items()
    )
    return walks, len(seen), len(counts), sum(counts.values()), bad, cell_bad


def _sweep_block(points: dict[tuple, tuple[int, int, int]]) -> Op:
    def run():
        return {key: _sweep(*key) for key in points}

    def check(out, digests):
        misses = []
        for key, (walks, seqs, cells, total, bad, cell_bad) in out.items():
            if (walks, seqs, cells) != points[key]:
                misses.append(f"{key}: (walks, sequences, cells) "
                              f"{(walks, seqs, cells)} != {points[key]}")
            if total != walks:
                misses.append(f"{key}: census total {total} != enumerated {walks}")
            if bad:
                misses.append(f"{key}: {bad} stop-degree violations")
            if cell_bad:
                misses.append(f"{key}: {cell_bad} census cell violations")
        return misses

    _, r, s, _ = next(iter(points))
    return Op(f"sweep(r={r}, s={s}, {len(points)} points)", run, check)


def walk_sweep(seed: int, profile: str) -> list[Op]:
    """Materialises every good walk as a ClosedWalk and checks each edge
    sequence, which rooting cannot shortcut.  Seed-free.  One operation
    per (r, s) block of the grid: single grid points run from microseconds
    to seconds, too uneven for their latency percentiles to mean much."""
    blocks: dict[tuple[int, int], dict] = {}
    for key, want in _SWEEP[profile].items():
        blocks.setdefault(key[1:3], {})[key] = want
    return [_sweep_block(points) for points in blocks.values()]


WORKLOADS = {
    "matrix_large": matrix_large,
    "readme_mix": readme_mix,
    "walk_count": walk_count,
    "walk_sweep": walk_sweep,
}


def golden_digests(platform: str) -> dict[str, str]:
    """Report digests frozen at the default seed, keyed by argv.

    Floating-point reports are byte-identical only on the BLAS build and
    kernel they were frozen with, so on any other platform no digest is
    checked; the seed-free invariants still are.
    """
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    return golden["digests"] if golden["platform"] == platform else {}
