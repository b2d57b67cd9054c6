"""Closed s-walks in the complete r-uniform hypergraph: exact enumeration,
census by (distinct edges, distinct vertices), moment sums, and the
parentheses coding of tree-shaped walks.

A closed s-walk of length t is a cyclic sequence S_1, F_1, S_2, ..., S_t,
F_t (back to S_1) where each stop S_i is an s-set, consecutive stops are
disjoint, and S_i u S_{i+1} is contained in the linking edge F_i.  A walk
is good when every distinct edge it uses appears at least twice.

Enumeration order is deterministic: stops are ranked colexicographically
and the search advances by (next stop rank, edge rank).  The successor
tables are built with combin's colex-rank kernel (subset_ranks) and its
disjoint column pattern (_disjoint_columns).

Rooting: the complete hypergraph is symmetric under every permutation of
range(n), and the permutations act transitively on the stops, so each of
the C(n,s) stops is the first stop of equally many good walks in every
(distinct edges, distinct vertices) cell and every multiplicity profile.
census and expected_trace therefore count only the walks from stop rank 0
(_rooted_counts) and multiply each integer count by C(n,s) before any
float arithmetic, so their results are the same, bit for bit, as a search
from every stop.  enumerate_closed_walks still yields every walk.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .combin import (SSet, _check_loose, _disjoint_columns, _work_budget, binom,
                     catalan, colex_unrank, ssets_colex, subset_ranks)
from .errors import BadCode, BadParams, NotGood, TooLarge


@dataclass(frozen=True)
class _Tables:
    """Per-(n,r,s) lookup tables shared by all walk enumerations; succ[a]
    holds the steps (b, j) to a disjoint stop b over an edge j, by (b, j)."""

    ssets: tuple[SSet, ...]
    rsets: tuple[SSet, ...]
    rmask: tuple[int, ...]
    succ: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def _tables(n: int, r: int, s: int) -> _Tables:
    ssets = tuple(ssets_colex(n, s))
    rarr = colex_unrank(np.arange(binom(n, r)), n, r)
    ranks = subset_ranks(rarr, n, s)
    ca, cb = _disjoint_columns(r, s)
    a = ranks[:, ca].ravel()
    b = ranks[:, cb].ravel()
    j = np.repeat(np.arange(len(rarr)), len(ca))
    order = np.lexsort((j, b, a))
    steps = list(zip(b[order].tolist(), j[order].tolist()))
    ends = np.cumsum(np.bincount(a, minlength=len(ssets))).tolist()
    succ = tuple(tuple(steps[lo:hi]) for lo, hi in zip([0] + ends, ends))
    rsets = tuple(map(tuple, rarr.tolist()))
    # Python-int bitmasks, so vertex ids past 63 still get their own bit
    rmask = tuple((1 << rarr.astype(object)).sum(axis=1).tolist())
    return _Tables(ssets, rsets, rmask, succ)


def _checked_tables(
    n: int, r: int, s: int, t: int, budget: int | None
) -> tuple[_Tables, int]:
    """The walk layer's one entry check: a non-loose s, then t < 1, then a
    bad budget is rejected before the tables are built; returns (tables, limit)."""
    _check_loose(r, s)
    if t < 1:
        raise BadParams(f"walk length must be >= 1, got {t}")
    limit = _work_budget(budget)
    return _tables(n, r, s), limit


def _raw_walks(
    tab: _Tables, t: int, good_only: bool, limit: int, roots: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield (stop ranks, edge ranks) for every closed t-walk whose first
    stop rank is below roots, root by root.

    Iterative depth-first search.  Prunes on goodness when good_only: a
    partial walk with more single-occurrence edges than remaining steps
    can never become good.  More than limit search states is TooLarge.
    """
    succ = tab.succ
    nodes = 0
    for a0 in range(roots):
        # steps are symmetric, so these are the stops that can close to a0
        back = {b for b, _ in succ[a0]}
        near: dict[int, tuple] = {}
        close: dict[int, tuple] = {}

        def _blist(a: int, st: int) -> tuple:
            # branch list for taking step st from stop a (source a0)
            if st == t:
                bl = close.get(a)
                if bl is None:
                    bl = tuple(p for p in succ[a] if p[0] == a0)
                    close[a] = bl
                return bl
            if st == t - 1:
                bl = near.get(a)
                if bl is None:
                    bl = tuple(p for p in succ[a] if p[0] in back)
                    near[a] = bl
                return bl
            return succ[a]

        stops = [a0]
        edges: list[int] = []
        counts: dict[int, int] = {}
        singles = 0
        blists: list[tuple] = [()] * t
        pos = [0] * t
        blists[0] = _blist(a0, 1)
        depth = 0
        while depth >= 0:
            bl = blists[depth]
            i = pos[depth]
            if i >= len(bl):
                depth -= 1
                if depth >= 0:
                    stops.pop()
                    j = edges.pop()
                    c = counts[j] - 1
                    if c == 0:
                        del counts[j]
                        singles -= 1
                    else:
                        counts[j] = c
                        if c == 1:
                            singles += 1
                continue
            pos[depth] = i + 1
            b, j = bl[i]
            st = depth + 1
            c = counts.get(j, 0)
            ns = singles + (1 if c == 0 else (-1 if c == 1 else 0))
            if good_only and (ns != 0 if st == t else ns > t - st):
                continue
            nodes += 1
            if nodes > limit:
                raise TooLarge(
                    f"walk enumeration visited {limit} states, its whole budget, "
                    f"and finished {a0} of {roots} roots"
                )
            if st == t:
                yield tuple(stops), tuple(edges) + (j,)
                continue
            counts[j] = c + 1
            singles = ns
            stops.append(b)
            edges.append(j)
            depth += 1
            pos[depth] = 0
            blists[depth] = _blist(b, st + 1)


@dataclass(frozen=True)
class ClosedWalk:
    """A closed s-walk: stops S_1..S_t and linking edges F_1..F_t.

    F_i links S_i to S_{i+1}, with F_t closing back to S_1.  Stops and
    edges are canonical sorted vertex tuples; the walk axioms are checked
    on construction.
    """

    stops: tuple[SSet, ...]
    edges: tuple[SSet, ...]

    def __post_init__(self):
        t = len(self.stops)
        if t < 1 or t != len(self.edges):
            raise BadParams("need equally many stops and edges, at least one each")
        s = len(self.stops[0])
        r = len(self.edges[0])
        _check_loose(r, s)
        for seq, size in ((self.stops, s), (self.edges, r)):
            for v in seq:
                if len(v) != size or any(x >= y for x, y in zip(v, v[1:])):
                    raise BadParams(f"{v} is not a sorted {size}-set")
        for i in range(t):
            a = set(self.stops[i])
            b = set(self.stops[(i + 1) % t])
            if a & b:
                raise BadParams(f"adjacent stops {i} and {(i + 1) % t} intersect")
            if not (a | b) <= set(self.edges[i]):
                raise BadParams(f"stops around step {i} not inside the linking edge")

    @property
    def length(self) -> int:
        return len(self.stops)

    def edge_multiplicities(self) -> Counter:
        return Counter(self.edges)

    def distinct_edges(self) -> tuple[SSet, ...]:
        """Distinct edges in first-occurrence order."""
        seen: dict[SSet, None] = {}
        for f in self.edges:
            seen.setdefault(f)
        return tuple(seen)

    @property
    def is_good(self) -> bool:
        return all(c >= 2 for c in self.edge_multiplicities().values())


def enumerate_closed_walks(
    n: int, r: int, s: int, t: int, good_only: bool = False, budget: int | None = None
) -> Iterator[ClosedWalk]:
    """All closed s-walks of length t in the complete r-uniform hypergraph
    on range(n), in deterministic colex-driven order."""
    tab, limit = _checked_tables(n, r, s, t, budget)
    for sidx, eidx in _raw_walks(tab, t, good_only, limit, len(tab.ssets)):
        yield ClosedWalk(
            tuple(tab.ssets[a] for a in sidx), tuple(tab.rsets[j] for j in eidx)
        )


def _rooted_counts(
    n: int, r: int, s: int, t: int, budget: int | None,
    key: Callable[[_Tables, tuple[int, ...]], Hashable],
) -> dict:
    """Good closed t-walks counted by key(tables, edge ranks) in first-met
    order, from stop rank 0 and scaled by C(n,s) (see the module docstring)."""
    tab, limit = _checked_tables(n, r, s, t, budget)
    stops = len(tab.ssets)
    walks = _raw_walks(tab, t, True, limit, min(1, stops))
    return {k: c * stops for k, c in Counter(key(tab, e) for _, e in walks).items()}


def _cell(tab: _Tables, eidx: tuple[int, ...]) -> tuple[int, int]:
    """(distinct edges, distinct vertices) of a walk's edge ranks."""
    es = set(eidx)
    m = 0
    for j in es:
        m |= tab.rmask[j]
    return len(es), m.bit_count()


@dataclass(frozen=True)
class WalkCensus:
    """Good closed t-walk counts, keyed by (distinct edges, distinct vertices)."""

    n: int
    r: int
    s: int
    t: int
    counts: dict[tuple[int, int], int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def max_vertices(self, i: int) -> int:
        """Largest possible vertex support of a good walk with i distinct edges."""
        return self.s + i * (self.r - self.s)


def census(n: int, r: int, s: int, t: int, budget: int | None = None) -> WalkCensus:
    """Count good closed t-walks by (i, j) = (#distinct edges, #distinct
    vertices), in the order in which the full enumeration first meets them."""
    return WalkCensus(n, r, s, t, _rooted_counts(n, r, s, t, budget, _cell))


def edge_moment(q: int, p) -> float | Fraction:
    """q-th central moment of a Bernoulli(p) edge indicator."""
    if q < 1:
        raise BadParams(f"moment order must be >= 1, got {q}")
    if not 0 <= p <= 1:
        raise BadParams(f"probability must lie in [0, 1], got {p}")
    return (1 - p) ** q * p + (-p) ** q * (1 - p)


def expected_trace(
    n: int,
    r: int,
    s: int,
    t: int,
    p,
    exact: bool = False,
    budget: int | None = None,
) -> float | Fraction:
    """Expected trace of the t-th power of the centered weight matrix of a
    Bernoulli(p) random r-uniform hypergraph on range(n).

    Sums, over good closed t-walks, the product over distinct edges of the
    central moment of order equal to the edge's multiplicity.  Walks with a
    single-occurrence edge contribute zero and are skipped outright.
    """
    if exact and not isinstance(p, Fraction):
        p = Fraction(p)
    # keyed by the sorted edge multiplicities
    profiles = _rooted_counts(
        n, r, s, t, budget, lambda tab, e: tuple(sorted(Counter(e).values()))
    )
    total = Fraction(0) if exact else 0.0
    for prof, cnt in profiles.items():
        total += cnt * math.prod(edge_moment(q, p) for q in prof)
    return total


def tree_walk_count(n: int, r: int, s: int, k: int) -> int:
    """Exact number of good closed 2k-walks with k distinct edges spanning
    the maximum s + k(r-s) vertices: the tree-shaped walks.

    Zero when n is too small to host that many vertices.
    """
    _check_loose(r, s)
    if k < 1:
        raise BadParams(f"need k >= 1, got {k}")
    if n < 0:
        raise BadParams(f"need n >= 0, got {n}")
    m = s + k * (r - s)
    if m > n:
        return 0
    num = binom(n, m) * math.factorial(m) * catalan(k)
    den = math.factorial(s) ** (k + 1) * math.factorial(r - 2 * s) ** k
    assert num % den == 0
    return num // den


def census_upper_bound(n: int, r: int, s: int, t: int, i: int, j: int) -> float:
    """Closed-form upper bound on the (i, j) census cell for length-t walks."""
    _check_loose(r, s)
    if t < 2 or i < 1 or 2 * i > t:
        raise BadParams(f"need 1 <= i <= t/2, got i={i}, t={t}")
    m = s + i * (r - s)
    if j < r or j > m:
        raise BadParams(f"need r <= j <= {m}, got j={j}")
    if n < 1:
        raise BadParams(f"need n >= 1, got {n}")
    c1 = 4.0 * (r - s) ** 3
    c2 = binom(r, s) + 4 + 2.0 * binom(r, s - 1) / s
    shape = binom(t - 2, t - 2 * i) * i ** (t - 2 * i) * catalan(i)
    base = shape * float(binom(r - s, s)) ** (t - i) * float(n) ** m
    base /= math.factorial(s) ** (i + 1) * math.factorial(r - 2 * s) ** i
    return base * (c1 * float(i) ** c2 / n) ** (m - j)


@dataclass(frozen=True)
class StopDegreeReport:
    """Result of the discounted stop-degree bound check on a good walk."""

    lhs: int
    rhs: float
    holds: bool
    distinct_edges: int
    distinct_vertices: int


def stop_degree_check(w: ClosedWalk) -> StopDegreeReport:
    """Check the discounted stop-degree sum against its vertex-deficiency bound.

    For a good walk with distinct edges F^1..F^i (first-occurrence order),
    d_S counts the distinct edges containing the s-set S.  Each F^k whose
    overlap with the union of earlier edges is exactly an s-set discounts
    that s-set by one; an s-set entered this way by several edges is
    discounted once per such edge, which is what keeps the bound sound when
    a walk leaves and re-enters the same stop over different edges.  The
    discounted sum of (d'_S - 1) over all s-subsets of the edges is bounded
    by (1 + (2/s) C(r, s-1)) * (s + i(r-s) - j), j the number of distinct
    vertices.  The comparison is done in exact integer arithmetic.
    """
    if not w.is_good:
        raise NotGood("walk has a single-occurrence edge")
    s = len(w.stops[0])
    r = len(w.edges[0])
    order = w.distinct_edges()
    i = len(order)
    degs: dict[SSet, int] = {}
    for f in order:
        for sub in combinations(f, s):
            degs[sub] = degs.get(sub, 0) + 1
    forward = 0
    seen = set(order[0])
    for f in order[1:]:
        if sum(1 for v in f if v in seen) == s:
            forward += 1
        seen.update(f)
    lhs = sum(d - 1 for d in degs.values()) - forward
    j = len(seen)
    m = s + i * (r - s)
    rhs = (1 + 2 * binom(r, s - 1) / s) * (m - j)
    holds = s * lhs <= (s + 2 * binom(r, s - 1)) * (m - j)
    return StopDegreeReport(lhs, rhs, holds, i, j)


@dataclass(frozen=True)
class WalkCode:
    """Occurrence code of a good walk: '(' first occurrence of an edge,
    ')' second, '*' any later one."""

    symbols: str

    def __post_init__(self):
        sym = self.symbols
        if len(sym) < 2:
            raise BadCode("code needs at least two symbols")
        if any(ch not in "()*" for ch in sym):
            raise BadCode(f"invalid symbol in {sym!r}")
        if sym[0] != "(":
            raise BadCode("code must start with '('")
        if "*" in sym[:2]:
            raise BadCode("'*' cannot appear in the first two positions")
        opens = closes = 0
        for ch in sym:
            if ch == "(":
                opens += 1
            elif ch == ")":
                closes += 1
                if closes > opens:
                    raise BadCode("')' before its matching '('")
        if opens != closes:
            raise BadCode("unbalanced code")

    @property
    def length(self) -> int:
        return len(self.symbols)


def code_from_walk(w: ClosedWalk) -> WalkCode:
    """Occurrence code of a good walk."""
    if not w.is_good:
        raise NotGood("walk has a single-occurrence edge")
    seen: dict[SSet, int] = {}
    out = []
    for f in w.edges:
        c = seen.get(f, 0) + 1
        seen[f] = c
        out.append("(" if c == 1 else ")" if c == 2 else "*")
    return WalkCode("".join(out))


def canonical_partition(w: ClosedWalk) -> tuple[tuple[SSet, ...], tuple[SSet, ...]]:
    """Split a tree-shaped walk into (stops in first-appearance order,
    per-edge leftover vertex sets in edge-creation order).

    Only defined for good walks of length 2k with k distinct edges spanning
    the maximum s + k(r-s) vertices; anything else raises NotGood.
    """
    s = len(w.stops[0])
    r = len(w.edges[0])
    order = w.distinct_edges()
    k = len(order)
    if not w.is_good or w.length != 2 * k:
        raise NotGood("walk is not tree-shaped")
    stop_order: dict[SSet, None] = {}
    for stop in w.stops:
        stop_order.setdefault(stop)
    if len(stop_order) != k + 1:
        raise NotGood(f"expected {k + 1} distinct stops, got {len(stop_order)}")
    allstops = set().union(*stop_order)
    extras = []
    support = set(allstops)
    for f in order:
        extra = tuple(v for v in f if v not in allstops)
        if len(extra) != r - 2 * s:
            raise NotGood("an edge carries vertices of a third stop")
        extras.append(extra)
        support.update(f)
    if len(support) != s + k * (r - s):
        raise NotGood("walk does not span the maximum vertex count")
    return tuple(stop_order), tuple(extras)


def walk_from_code(
    stops: Sequence[Iterable[int]],
    extras: Sequence[Iterable[int]],
    code: WalkCode | str,
) -> ClosedWalk:
    """Rebuild the tree-shaped walk with the given stop and leftover sets
    whose occurrence code is `code`.

    Inverse of (canonical_partition, code_from_walk) on tree-shaped walks.
    The code must be plain balanced parentheses with k pairs; stops has
    k+1 sets in first-appearance order and extras has k sets in
    edge-creation order, everything pairwise disjoint.
    """
    wc = code if isinstance(code, WalkCode) else WalkCode(code)
    if "*" in wc.symbols:
        raise BadCode("tree codes cannot contain '*'")
    k = wc.symbols.count("(")
    st = [tuple(sorted(v)) for v in stops]
    ex = [tuple(sorted(v)) for v in extras]
    if len(st) != k + 1:
        raise BadParams(f"code has {k} pairs, need {k + 1} stops, got {len(st)}")
    if len(ex) != k:
        raise BadParams(f"code has {k} pairs, need {k} leftover sets, got {len(ex)}")
    s = len(st[0])
    if s < 1 or any(len(v) != s for v in st):
        raise BadParams("stops must all have the same positive size")
    e0 = len(ex[0])
    if any(len(v) != e0 for v in ex):
        raise BadParams("leftover sets must all have the same size")
    blocks = st + [e for e in ex if e]
    union: set[int] = set()
    for block in blocks:
        union.update(block)
    if len(union) != (k + 1) * s + k * e0:
        raise BadParams("stops and leftover sets must be pairwise disjoint")

    walk_stops = [st[0]]
    walk_edges: list[SSet] = []
    stack: list[tuple[int, SSet]] = [(0, ())]
    next_stop = 1
    for ch in wc.symbols:
        cur = stack[-1][0]
        if ch == "(":
            child = next_stop
            next_stop += 1
            f = tuple(sorted(st[cur] + st[child] + ex[child - 1]))
            stack.append((child, f))
            walk_edges.append(f)
            walk_stops.append(st[child])
        else:
            _, f = stack.pop()
            walk_edges.append(f)
            walk_stops.append(st[stack[-1][0]])
    return ClosedWalk(tuple(walk_stops[:-1]), tuple(walk_edges))
