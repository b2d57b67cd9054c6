"""r-uniform hypergraphs: construction, Bernoulli sampling, degrees, text io.

A hypergraph is one read-only (m, r) int64 array of edges over range(n).
Each row is strictly increasing, and the rows are in strictly increasing
colex order, the order colex_unrank gives for increasing ranks, so equal
hypergraphs hold equal arrays.  The Bernoulli model keeps each of the
C(n,r) possible edges independently with probability p; sampling is
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .combin import (SSet, _to_float, _work_budget, as_sset, binom, colex_unrank,
                     subset_ranks)
from .errors import BadParams, BadRank, BadVertex, EmptySample, StopTooLarge, TooLarge


@dataclass(frozen=True, init=False, eq=False)
class Hypergraph:
    """An r-uniform hypergraph on vertex set range(n).

    Hypergraph(n, r, edges) takes either the (m, r) int64 array itself, in
    the canonical order of the module docstring, or a collection of
    r-tuples in any order, each checked as as_sset would and then
    colex-sorted.  Both end in the same check, _check_array.  A writable
    array is copied, so the caller's later writes cannot reach the
    hypergraph.
    """

    n: int
    r: int
    _edge_array: np.ndarray = field(repr=False)

    def __init__(self, n: int, r: int, edges: np.ndarray | Iterable[SSet]):
        if n < 0:
            raise BadParams(f"need n >= 0, got {n}")
        if r < 1:
            raise BadParams(f"need r >= 1, got {r}")
        if isinstance(edges, np.ndarray):
            arr = edges.copy() if edges.flags.writeable else edges
        else:
            arr = _check_edges(list(edges), n, r)
            arr = arr[np.lexsort(arr.T)]
        _check_array(arr, n, r)
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_edge_array", arr)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return ((self.n, self.r) == (other.n, other.r)
                and np.array_equal(self._edge_array, other._edge_array))

    def __hash__(self):
        return hash((self.n, self.r, self._edge_array.tobytes()))

    @property
    def edges(self) -> frozenset[SSet]:
        """The edges as r-tuples of Python ints, built on each call."""
        return frozenset(map(tuple, self._edge_array.tolist()))

    @property
    def num_edges(self) -> int:
        return len(self._edge_array)

    def degree(self, vertices: Iterable[int]) -> int:
        """Number of edges containing the given s-set, for any 1 <= s < r."""
        vs = as_sset(vertices, self.n)
        if len(vs) >= self.r:
            raise StopTooLarge(f"{len(vs)}-set is not a proper subset of {self.r}-edges")
        if vs[-1] >= 2**63:  # past every id the int64 array can hold
            return 0
        # the ids of a row are distinct, so it holds vs iff it meets all of vs
        hits = np.isin(self._edge_array, vs).sum(axis=1)
        return int((hits == len(vs)).sum())


def _check_array(arr: np.ndarray, n: int, r: int) -> None:
    """Raise BadVertex unless arr is an (m, r) int64 array of ids in
    range(n) whose rows strictly increase and are in strictly increasing
    colex order, which also rules out a repeated edge."""
    if arr.dtype != np.int64 or arr.ndim != 2 or arr.shape[1] != r:
        raise BadVertex(f"edges must be an (m, {r}) int64 array, "
                        f"got {arr.dtype} of shape {arr.shape}")
    if arr.size and (arr.min() < 0 or int(arr.max()) >= n):
        raise BadVertex(f"a vertex id is outside range({n})")
    bad = (arr[:, 1:] <= arr[:, :-1]).any(axis=1)
    if bad.any():
        raise BadVertex(f"edge {tuple(arr[bad.argmax()].tolist())} is not increasing")
    # colex compares two rows at the last column where they differ; equal
    # rows differ nowhere, fall to column r - 1 and fail as well
    a, b = arr[:-1], arr[1:]
    last = r - 1 - (a != b)[:, ::-1].argmax(axis=1)
    rows = np.arange(len(a))
    bad = a[rows, last] >= b[rows, last]
    if bad.any():
        k = bad.argmax()
        raise BadVertex(f"edge {tuple(b[k].tolist())} does not follow "
                        f"{tuple(a[k].tolist())} in strict colex order")


def _check_edges(rows: list, n: int, r: int) -> np.ndarray:
    """Raise BadVertex unless every edge is a tuple of r integer vertex ids
    in range(n); return the edges as an (m, r) int64 array in the order of
    rows.  _check_array then checks the order within and between rows, so
    together they accept exactly the edges as_sset leaves unchanged.

    Types and lengths are checked once per distinct value, and the ids as
    one (m, r) array.  numpy widens a mix of signed and unsigned ids to
    float, which is not exact past 2**53, so such ids are compared as
    Python objects instead.
    """
    if not all(issubclass(k, tuple) for k in set(map(type, rows))):
        raise BadVertex("every edge must be a tuple of vertex ids")
    if set(map(len, rows)) - {r}:
        raise BadVertex(f"an edge does not have {r} vertices")
    flat = list(chain.from_iterable(rows))
    for k in set(map(type, flat)):
        if not issubclass(k, (int, np.integer)):
            raise BadVertex(f"vertex of {k} is not an integer")
    arr = np.array(flat)
    if arr.dtype.kind == "f":
        arr = np.array(flat, dtype=object)
    arr = arr.reshape(-1, r)
    bad = ((arr < 0) | (arr >= n)).any(axis=1)
    if bad.any():
        raise BadVertex(f"edge {rows[bad.argmax()]} has a vertex outside range({n})")
    if n > 2**63 and arr.size and arr.max() >= 2**63:
        raise BadVertex("vertex ids past 2**63 - 1 do not fit the int64 edge array")
    return arr.astype(np.int64, copy=False)


def hypergraph(n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a hypergraph from an iterable of edges, canonicalizing each."""
    canon = set()
    for e in edges:
        vs = as_sset(e, n)
        if len(vs) != r:
            raise BadVertex(f"edge {tuple(e)} does not have {r} distinct vertices")
        canon.add(vs)
    return Hypergraph(n, r, canon)


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-uniform hypergraph on range(n)."""
    if r < 1 or r > n:
        raise BadRank(f"need 1 <= r <= n, got r={r}, n={n}")
    edges = colex_unrank(np.arange(binom(n, r)), n, r)
    edges.flags.writeable = False  # handed over, not copied
    return Hypergraph(n, r, edges)


@dataclass(frozen=True)
class RandomModel:
    """Bernoulli edge model: keep each r-set with probability p."""

    n: int
    r: int
    p: float
    seed: int

    def __post_init__(self):
        if self.r < 1 or self.r > self.n:
            raise BadParams(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if not 0 < self.p < 1:
            raise BadParams(f"need 0 < p < 1, got {self.p}")
        if self.seed < 0 or self.seed >= 2**64:
            raise BadParams(f"seed must fit in 64 bits, got {self.seed}")


def expected_stop_degree(n: int, r: int, s: int, p: float) -> float:
    """Expected number of edges through a fixed s-set: C(n-s, r-s) p."""
    if s < 1 or s > r:
        raise StopTooLarge(f"need 1 <= s <= r, got s={s}, r={r}")
    return _to_float(binom(n - s, r - s), f"C({n - s}, {r - s})") * p


# uniform draws held at once while sampling: 8 MB of float64
_DRAW_BLOCK = 2**20


def sample(model: RandomModel, budget: int | None = None) -> Hypergraph:
    """Draw one hypergraph from the Bernoulli model.

    One PCG64 stream seeded by model.seed, one uniform draw per candidate
    edge in colex order; identical models produce identical hypergraphs.
    The candidate count is capped by the work budget (see _work_budget).
    Draws come in blocks of _DRAW_BLOCK, which continue one stream, so
    memory stays bounded and the edges do not depend on the block size.
    """
    limit = _work_budget(budget)
    count = binom(model.n, model.r)
    if count > limit:
        raise TooLarge(f"C({model.n}, {model.r}) candidate edges exceed budget {limit}")
    rng = np.random.default_rng(model.seed)
    kept = [
        start + np.flatnonzero(rng.random(min(_DRAW_BLOCK, count - start)) < model.p)
        for start in range(0, count, _DRAW_BLOCK)
    ]
    edges = colex_unrank(np.concatenate(kept), model.n, model.r)
    edges.flags.writeable = False  # handed over, not copied
    return Hypergraph(model.n, model.r, edges)


@dataclass(frozen=True)
class DegreeStats:
    """Degrees of all s-sets in colex order, with summary statistics.

    sum_sq_dev is the sum of squared deviations from d_ref when a
    reference degree is supplied, else from the empirical mean.
    """

    s: int
    degrees: np.ndarray = field(repr=False)
    d_ref: float | None

    @property
    def min(self) -> int:
        return int(self.degrees.min())

    @property
    def max(self) -> int:
        return int(self.degrees.max())

    @property
    def mean(self) -> float:
        return float(self.degrees.mean())

    @property
    def sum_sq_dev(self) -> float:
        center = self.mean if self.d_ref is None else self.d_ref
        return float(((self.degrees - center) ** 2).sum())


def degree_stats(h: Hypergraph, s: int, d_ref: float | None = None) -> DegreeStats:
    """Degree of every s-set of range(n), in colex order."""
    if s < 1 or s > h.r:
        raise StopTooLarge(f"need 1 <= s <= r, got s={s}, r={h.r}")
    if s > h.n:
        raise EmptySample(f"no {s}-sets on {h.n} vertices")
    ranks = subset_ranks(h._edge_array, h.n, s)
    degs = np.bincount(ranks.ravel(), minlength=binom(h.n, s))
    return DegreeStats(s, degs, d_ref)


def write_hypergraph(h: Hypergraph, fh: IO[str]) -> None:
    """Write the text format: header "n r m", then one edge per line, the
    edges in lexicographic order."""
    arr = h._edge_array
    fh.write(f"{h.n} {h.r} {h.num_edges}\n")
    for e in arr[np.lexsort(arr.T[::-1])].tolist():
        fh.write(" ".join(map(str, e)) + "\n")


def _ints(fields: list[str], where: str) -> list[int]:
    try:
        return [int(x) for x in fields]
    except ValueError as exc:
        raise BadParams(f"{where} has a non-integer token in {fields!r}") from exc


def read_hypergraph(fh: IO[str]) -> Hypergraph:
    """Parse the text format written by write_hypergraph."""
    header = fh.readline().split()
    if len(header) != 3:
        raise BadParams(f"header must be 'n r m', got {header!r}")
    n, r, m = _ints(header, "header")
    edges = []
    for k in range(m):
        line = fh.readline().split()
        if not line:
            raise BadParams(f"header promises {m} edges, file ends after {k}")
        if len(line) != r:
            raise BadVertex(f"edge line {k + 1} has {len(line)} fields, expected {r}")
        edges.append(_ints(line, f"edge line {k + 1}"))
    if any(line.strip() for line in fh):
        raise BadParams(f"header promises {m} edges, file holds more")
    got = hypergraph(n, r, edges)
    if got.num_edges != m:
        raise BadParams(f"header promises {m} edges, file holds {got.num_edges}")
    return got
