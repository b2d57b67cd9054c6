"""One pass of one workload, in a fresh process started by run.py.

run.py passes the monotonic time at which it spawned this process.
Everything up to the first timed operation is set-up: interpreter start,
importing numpy and hyperlap, warming LAPACK on a tiny matrix and building
the pass's operations.  The process prints one JSON line and exits.

    python3 perfbench/worker.py --workload walk_count --seed 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def blas_info() -> dict:
    """numpy version, OpenBLAS build string (which names the kernel in use)
    and its thread count, read from the library numpy loaded."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": None, "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            info["blas_threads"] = get_threads()
            info["blas_config"] = get_config().decode().strip()
            return info
    return info


def platform_key(info: dict) -> str:
    """What decides the bits of a floating-point report."""
    return f"numpy {info['numpy']}; {info['blas_config']}; threads {info['blas_threads']}"


# The reference loop: a fixed piece of pure-Python work that no change to
# hyperlap can alter.  The shared host's speed drifts by 25% and more within
# a minute, and the loop slows with it, so an operation's time divided by
# the loop's mean time around it (unit "ref") compares across runs far
# better than seconds do.  In an untraced pass a SIGALRM handler runs the
# loop every REF_PERIOD_S of wall time, so its samples fall inside long
# operations as well as between short ones (a handler waits while a C call
# such as a LAPACK solve runs); the time it takes is taken out of the
# operation it interrupted.  REF_EDGE samples run at each end of the pass.
REF_ITERATIONS = 120_000
# set-up ends before any operation, so it is scaled to the loop's mean time
# right after it, and reported in seconds at this nominal loop time
REF_NOMINAL_S = 0.010
REF_PERIOD_S = 0.25
REF_WINDOW_S = 1.0
REF_EDGE = 4


def reference_loop() -> float:
    """Seconds one run of the reference loop takes."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class RefSampler:
    """Runs the reference loop on a wall-clock timer while active and keeps
    (end time, duration) of every sample."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, signum=None, frame=None) -> None:
        took = reference_loop()
        self.samples.append((time.perf_counter(), took))

    def __enter__(self):
        for _ in range(REF_EDGE):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(REF_EDGE):
            self.sample()

    def taken(self, t0: float, t1: float) -> float:
        """Time the sampler itself took between t0 and t1."""
        return sum(took for end, took in self.samples if t0 < end <= t1)

    def unit(self, t0: float, t1: float) -> float:
        """Mean sample time from REF_WINDOW_S before t0 to as long after t1."""
        near = [took for end, took in self.samples
                if t0 - REF_WINDOW_S < end <= t1 + REF_WINDOW_S]
        return statistics.fmean(near)


def run_pass(ops, digests: dict, tracer=None) -> dict:
    """Run every operation once, in order; time run(), then check the output.

    An untraced pass also reports each operation in reference units; a
    traced pass runs without the sampler, so spans hold only hyperlap's
    own time."""
    spans = []
    failures = []
    sampler = RefSampler()
    with contextlib.nullcontext() if tracer else sampler:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            out = op.run()
            t1 = time.perf_counter()
            spans.append((t0, t1))
            misses = op.check(out, digests)
            if misses:
                failures.append([op.label, misses])
    res = {
        "attempted": len(ops),
        "failures": failures,
        "digests_checked": sum(op.label in digests for op in ops),
    }
    latencies = [t1 - t0 - sampler.taken(t0, t1) for t0, t1 in spans]
    res.update(wall_s=sum(latencies), latencies=latencies)
    if tracer is None:
        latencies_ref = [t / sampler.unit(t0, t1) for t, (t0, t1) in zip(latencies, spans)]
        res.update(wall_ref=sum(latencies_ref), latencies_ref=latencies_ref,
                   ref_s=statistics.fmean(took for _, took in sampler.samples),
                   ref_samples=len(sampler.samples))
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, metavar="PATH")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import numpy as np

    import hyperlap

    if not os.path.abspath(hyperlap.__file__).startswith(SRC + os.sep):
        sys.exit(f"hyperlap was imported from {hyperlap.__file__}, not {SRC}")
    np.linalg.eigvalsh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    import workloads

    info = blas_info()
    digests = workloads.golden_digests(platform_key(info))
    ops = workloads.WORKLOADS[args.workload](args.seed, args.profile)
    setup_s = time.monotonic() - args.spawned_at
    ref_s = statistics.fmean(reference_loop() for _ in range(REF_EDGE))

    result = {"setup_s": setup_s * REF_NOMINAL_S / ref_s, "setup_raw_s": setup_s,
              "platform": info}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result.update(run_pass(ops, digests, tracer))
        if tracer is not None:
            result["layers"] = tracer.layers()
            if args.spans:
                tracer.dump(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
