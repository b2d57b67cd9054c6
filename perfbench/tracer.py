"""Span tracer for hyperlap's public stage functions, installed from outside
the library.

Each wrapped call records one span: name, operation id, start, end, parent
span and busy time.  For a generator the span stays open while the caller
consumes it, and busy time counts only the time spent inside next(), so
time the caller spends between items is not charged to the generator.
Spans stay in memory and are written once, when the pass ends.

Only stage functions are wrapped.  Fine-grained helpers such as
sset_rank, as_sset or binom run hundreds of thousands of times per
build_aux at the dense cap, so timing them would measure the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb


def _sample_counts(args: dict, out) -> dict:
    model = args["model"]
    return {"candidates": comb(model.n, model.r), "edges": out.num_edges}


def _build_aux_counts(args: dict, out) -> dict:
    h = args["h"]
    return {"pair_checks": h.num_edges * comb(h.r, args["s"]) ** 2}


def _eig_counts(args: dict, out) -> dict:
    return {"flops": 4.0 / 3.0 * out.dim**3}


def _census_counts(args: dict, out) -> dict:
    return {"walks": out.total}


# (module, function, work counts computed from the call's arguments and
# result).  The list is the stage boundaries of both pipelines: the matrix
# pipeline sample -> build_aux -> normalized_laplacian -> eigvalsh -> app,
# and the walk pipeline census / expected_trace / enumeration / checks.
STAGES = (
    ("cli", "main", None),
    ("hypergraph", "sample", _sample_counts),
    ("hypergraph", "degree_stats", None),
    ("combin", "kneser_adjacency", None),
    ("laplacian", "build_aux", _build_aux_counts),
    ("laplacian", "normalized_laplacian", None),
    ("laplacian", "centered_weight", None),
    ("spectra", "eigenvalues_sym", _eig_counts),
    ("apps", "perturbation_diagnostics", None),
    ("apps", "edge_expansion", None),
    ("apps", "s_diameter", None),
    ("apps", "diameter_bound", None),
    ("apps", "mixing_contraction", None),
    ("apps", "monotonicity_check", None),
    ("walks", "census", _census_counts),
    ("walks", "expected_trace", None),
    ("walks", "stop_degree_check", None),
)
GENERATORS = (("walks", "enumerate_closed_walks"),)


class Tracer:
    """Collects spans for one pass; install() patches every binding."""

    def __init__(self):
        # each span: [name, op, start, end, parent index, busy seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.op, time.perf_counter(), 0.0, parent, 0.0])
        return idx

    def _call(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            span = self.spans[idx]
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                span[5] = span[3] - span[2]
                self.stack.pop()
            self.counts[name + ".calls"] += 1
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in counter(bound.arguments, out).items():
                    self.counts[f"{name}.{key}"] += val
            return out

        return traced

    def _generator(self, name: str, fn):
        tracer = self

        class _Iter:
            def __init__(self, it, idx):
                self.it = it
                self.idx = idx

            def __iter__(self):
                return self

            def __next__(self):
                span = tracer.spans[self.idx]
                tracer.stack.append(self.idx)
                t0 = time.perf_counter()
                try:
                    item = next(self.it)
                except StopIteration:
                    span[3] = time.perf_counter()
                    raise
                finally:
                    span[5] += time.perf_counter() - t0
                    tracer.stack.pop()
                tracer.counts[name + ".walks"] += 1
                return item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.counts[name + ".calls"] += 1
            return _Iter(fn(*args, **kwargs), idx)

        return traced

    def install(self) -> None:
        """Replace each stage function at every hyperlap module binding.

        cli and apps import names directly, so patching the defining module
        alone would miss hyperlap.cli.build_aux and hyperlap.apps.build_aux.
        """
        mods = [m for k, m in list(sys.modules.items())
                if k == "hyperlap" or k.startswith("hyperlap.")]
        pairs = []
        for mod_name, fn_name, counter in STAGES:
            fn = getattr(sys.modules[f"hyperlap.{mod_name}"], fn_name)
            pairs.append((fn, self._call(f"{mod_name}.{fn_name}", fn, counter)))
        for mod_name, fn_name in GENERATORS:
            fn = getattr(sys.modules[f"hyperlap.{mod_name}"], fn_name)
            pairs.append((fn, self._generator(f"{mod_name}.{fn_name}", fn)))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                for original, wrapper in pairs:
                    if val is original:
                        setattr(mod, attr, wrapper)

    def layers(self) -> dict[str, float]:
        """Self time per stage (span busy time minus its children's) and
        the work counts, keyed <module>.<function>.<kind>."""
        child = [0.0] * len(self.spans)
        for name, _, _, _, parent, busy in self.spans:
            if parent >= 0:
                child[parent] += busy
        out: dict[str, float] = defaultdict(float, self.counts)
        for i, (name, _, _, _, _, busy) in enumerate(self.spans):
            out[name + ".s"] += busy - child[i]
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent", "busy"],
                       "spans": self.spans}, fh)
