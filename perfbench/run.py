"""hyperlap benchmark driver.

    python3 perfbench/run.py --workload matrix_large --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from anywhere inside a checkout; hyperlap is imported from the
checkout's src/.  Each pass of a workload runs in a fresh worker process
(worker.py), so caches, lazily built tables and peak memory start from
zero every time.  Passes repeat while another one fits in --seconds, and
at least one always runs.  Every output is checked; a miss counts in
"failed", makes "correct" false and the exit status 1.

Times in the end-to-end metrics are in "ref" units: seconds divided by
the mean time of a fixed pure-Python reference loop that the worker runs
on a timer around and inside the operations (worker.py).  The shared host
this was built on drifts in speed by 25% within a minute; the ratio
cancels most of that.  Raw seconds are printed and kept in the report.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
including trace.overhead_frac, the traced pass's extra wall time over the
untraced one.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A readable report of the
same run, with the environment record, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
# the driver's limit is 180 s per run; stop starting processes well before
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperlap", "__init__.py")):
        raise BenchError(f"no hyperlap sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


# ----------------------------------------------------------------- env record


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hyperlap", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = _read(f"{d}/type")
        if kind in ("Data", "Unified"):
            caches[f"L{_read(f'{d}/level')}"] = _read(f"{d}/size")
    budget = os.environ.get("HYPERLAP_BUDGET")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        # an invalid value crashes cli._resolve_budget and any value
        # changes behaviour, so workers always run with it unset
        "HYPERLAP_BUDGET": "unset" if budget is None else f"removed for workers (was {budget!r})",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "jobs": 1,
    }


# ------------------------------------------------------------------ workers


def spawn(args: argparse.Namespace, deadline: float, extra: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HYPERLAP_BUDGET"}
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before a worker could start")
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--profile", args.profile, *extra, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args: argparse.Namespace, deadline: float) -> tuple[list[dict], list[dict]]:
    """Set-up probes, then passes while another one fits in --seconds."""
    probes = [spawn(args, deadline, ["--setup-only"]) for _ in range(SETUP_PROBES)]
    os.makedirs(OUT, exist_ok=True)
    passes: list[dict] = []
    kinds = itertools.cycle((0, 1)) if args.trace else itertools.repeat(0)
    start = time.monotonic()
    for k, traced in enumerate(kinds):
        t0 = time.monotonic()
        extra = ["--trace", str(traced)]
        if traced:
            extra += ["--spans", os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}-pass{k}.json")]
        res = spawn(args, deadline, extra)
        res["traced"] = traced
        passes.append(res)
        last = time.monotonic() - t0
        if args.trace and k == 0:
            continue  # a traced pass always follows the first untraced one
        if time.monotonic() - start + last > args.seconds:
            break
    return probes, passes


# ------------------------------------------------------------------ metrics


def _deciles(lat: list[float]) -> list[float]:
    return statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9


def end_to_end(probes: list[dict], passes: list[dict]) -> dict[str, float]:
    plain = [p for p in passes if not p["traced"]]
    # percentiles per pass, then the median over passes, so one pass slowed
    # by the machine does not drag the others' tail with it
    deciles = [_deciles(p["latencies_ref"]) for p in plain]
    return {
        "wall_ref": statistics.median(p["wall_ref"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        "cmd_p50_ref": statistics.median(q[4] for q in deciles),
        "cmd_p90_ref": statistics.median(q[8] for q in deciles),
    }


def _layer(name: str, layers: dict) -> float:
    if name.endswith(".eig_ratio"):
        eig = layers.get("spectra.eigenvalues_sym.s", 0.0)
        return layers.get(name[: -len(".eig_ratio")] + ".s", 0.0) / eig if eig else 0.0
    if name == "walks.census.walks_per_s":
        busy = layers.get("walks.census.s", 0.0)
        return layers.get("walks.census.walks", 0.0) / busy if busy else 0.0
    return float(layers.get(name, 0.0))


def per_layer(names: list[str], passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    out = {n: statistics.median(_layer(n, p["layers"]) for p in traced)
           for n in names if n != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) - plain) / plain
    return out


def result(spec: dict, args: argparse.Namespace, probes: list[dict],
           passes: list[dict]) -> tuple[dict, dict]:
    """(the result line, the full report) of one workload run."""
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    values = per_layer(names, passes) if args.trace else end_to_end(probes, passes)
    if set(values) != set(names):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    line = {
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "profile": args.profile, "seconds": args.seconds,
        "env": {**environment(), **probes[0]["platform"]},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_ref": [p.get("wall_ref") for p in passes],
        "pass_ref_s": [p.get("ref_s") for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "setup_samples": [p["setup_s"] for p in probes + passes],
        "setup_raw_s": [p["setup_raw_s"] for p in probes + passes],
        "digests_checked": sum(p["digests_checked"] for p in passes),
        "fail_frac": len(failures) / attempted, "failures": failures,
        "result": line,
    }
    return line, report


def run_one(spec: dict, args: argparse.Namespace) -> bool:
    deadline = time.monotonic() + HARD_LIMIT_S
    probes, passes = measure(args, deadline)
    line, report = result(spec, args, probes, passes)
    path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"digests_checked={report['digests_checked']} report={os.path.relpath(path, ROOT)}")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    for name, m in line["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    plain = [w for w, t in zip(report["pass_wall_s"], report["pass_traced"]) if not t]
    print(f"# untraced pass wall time in seconds: median {statistics.median(plain):.6g}, "
          f"passes {' '.join(f'{w:.3f}' for w in plain)}")
    print(f"# fail_frac = {report['fail_frac']:.6g} ratio "
          f"({line['failed']} of {line['attempted']} operations)")
    for label, misses in report["failures"][:10]:
        print(f"# FAIL {label}: {'; '.join(misses)}")
    print(json.dumps(line))
    return line["correct"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hyperlap benchmark driver")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: same code paths at smoke-test sizes")
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        todo = names if args.workload == "all" else [args.workload]
        if not set(todo) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        ok = True
        for name in todo:
            ok &= run_one(spec, argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
