"""Closed s-walks in the complete r-uniform hypergraph: exact enumeration,
census by (distinct edges, distinct vertices), moment sums, and the
occurrence code of a walk.

A closed s-walk of length t is a cyclic sequence S_1, F_1, S_2, ..., S_t,
F_t (back to S_1) where each stop S_i is an s-set, consecutive stops are
disjoint, and S_i u S_{i+1} is contained in the linking edge F_i.  A walk
is good when every distinct edge it uses appears at least twice.

Enumeration order is deterministic: stops are ranked colexicographically
and the search advances by (next stop rank, edge rank).  The successor
tables are built with combin's colex-rank kernel (subset_ranks) and its
disjoint column pattern (_disjoint_columns).

One search (_walk_search), a depth-first loop over a stack of branch
iterators, one iterator per step taken, so its depth is t and not
Python's recursion limit.  It finds the walks from a stop a0 that keep
the labelling rule (below) with range(u) already met.  The rule is empty
once every vertex is labelled: with u = n every step passes, meets no
label and has factor 1, so the labelled search from a0 is the canonical
search started at a0 with every label met.  enumerate_closed_walks runs
it so from each stop it searches, census and expected_trace from stop 0
with u = s.  It prunes a partial walk that has more single-occurrence
edges than steps left plus a spare count, 0 for good walks and t for
every walk, and takes its last two steps only to stops that can still
close: the closing steps back to a0 are a0's own steps reversed, read
once per root.

Counting without n: census and expected_trace count the good walks by
(distinct edges i, distinct vertices j, multiplicity profile), classes
that every permutation of range(n) keeps (_walk_profiles).  Label a
walk's vertices in the order it meets them: the first stop gets 0..s-1,
and each distinct edge's unmet vertices the next labels, as one block,
whose first labels go to the unmet vertices of the stop that the step
into the edge enters; the blocks have sizes g_1 = s, g_2, ..., and the
entered stops' parts h_2, h_3, ....  A walk is canonical when its labels
already follow that rule, so every canonical step is fixed, not only
every canonical edge.  A walk on range(n) has s! prod h_k! (g_k - h_k)!
labellings by range(j) that follow it, and a canonical walk has
C(n, j) j! injections of range(j) into range(n), so a class holds
C(n, j) j!/(s! prod h_k! (g_k - h_k)!) walks per canonical walk:
integers, summed before any float arithmetic, so results are the same,
bit for bit, as a search from every stop.  The quotient is C(n, j) times
a product of one factor per step, C(u + g, g) C(g, h) with range(u) met
before the step, g the edge's new labels and h the entered stop's, so
the canonical search carries the weight down its stack, step by step.
Whether a step keeps the labelling rule depends on u alone, through one
threshold: with range(u) met, step (b, j) keeps it exactly when u >=
max(c_j, c_b), c the first id of the last run of consecutive ids in the
edge or stop.  So the steps that pass, each with its u after the step
and its factor, are indexed once per call by (stop, u, phase), the phase
free, next to last or closing, and a stop has at most one list of
passing steps per threshold value.  The index lives and dies with the
call, like the tables.  A good t-walk has at most J = s + (t // 2)(r - s)
vertices, so the search runs on m = min(n, J) of them.  First-met order
is kept too.  The search is lexicographic in (stop rank, edge rank)
pairs, colex ranks do not depend on n, and a class has a walk from stop
0, where the search from every stop starts.
Its least one is canonical, so it lies on range(j) and passes the
filter: were F its first edge whose unmet vertices N are not the next
labels, swapping some v of N past them with some w of them not in N
would keep the class and the earlier steps, inside range(u), and lower
the step into F, whose edge, and stop if it holds v, trade v for w.
Were the entered stop's unmet vertices not the first labels of F's
block, swapping one of them with a smaller label of the block outside
the stop would keep F and the earlier steps and lower that stop's colex
rank.  So the classes are first met in the same order at every n.

Searched at stop 0, replayed at every stop: enumerate_closed_walks
yields every walk on all n vertices, from every stop in turn, but
searches from stop 0 only.  The vertex permutation pi that sends stop
0's vertices to stop a0's and the other vertices to the rest, both in
order, maps the walks from stop 0 one to one onto those from a0, good
ones onto good ones.  So stop 0's walks are kept as rows of ranks, and
each later stop's are those rows through pi's stop and edge rank maps
(_relabelling), sorted by one lexsort into search order: the search is
lexicographic in its (next stop, edge) steps (_replayed).  Goodness and
whether a walk can still close survive relabelling, so every stop visits
the N_0 states stop 0 visits, and the budget still counts the states of
the search from every stop: a stop is replayed only while the states so
far plus N_0 are within the budget, and the stop that would cross it is
searched, so the walks before TooLarge and its message are those of the
full search.  A stop 0 with more than MAX_REPLAY_RANKS ranks in its
walks is not kept, and every stop is searched.

Checked once per class: stop_degree_check's report does not change when
the vertices are renamed, so a replayed walk has the report of the stop-0
walk it relabels.  Each stop-0 walk kept for replay holds its slot,
(reports, k), with reports one dict per call and k the walk's column in
walks0, and _replayed hands each relabelling the slot of its stop-0
original.  The first check of any walk of the class stores the report at
k, and every later one returns it; a NotGood is raised every time and
never stored.  The dict also maps each distinct report to itself, so
equal reports of one call are one object: (10, 4, 2, 4) has 1540 classes
and 3 reports.  Walks with no slot are checked one by one: those built
by a caller, those of a searched stop, and every walk once stop 0
crosses MAX_REPLAY_RANKS.  The dict lives only as long as the walks of
one call.

Where the walk axioms are checked: a ClosedWalk built by a caller is
checked by its constructor, once per call.  The walks that
enumerate_closed_walks yields are checked once per table instead: every
step of every walk is a step of the table, so _check_tables verifies each
row of its stop and edge arrays and each step once, as the table is
built, and the walks are then built from those rows without
re-validation (ClosedWalk._trusted).  The rows are turned once per call
into tuples of plain ints, which two object arrays hold, and a walk's
stops and edges are those same tuples: the searched walks look them up
by rank, and the replayed ones are decoded a chunk at a time by indexing
the object arrays with the rank rows.  The table check covers the
closing step (a, a0, j) too, though it is read off a0's step (a0, a, j):
disjointness and containment are symmetric, so it joins disjoint stops
inside its edge exactly when the checked step does.  A replayed walk is
the image under pi of a searched one, and _relabelling checks once per
stop that pi is a permutation of range(n) and that the rank maps send
each stop and edge to the row of its image, sorted.  A vertex bijection
keeps disjointness and containment, so every replayed step is a walk
step.  Both checks raise RuntimeError, not assert, so python -O keeps
them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat, starmap
from typing import Iterator

import numpy as np

from .combin import (SSet, _check_loose, _check_probability, _disjoint_columns, _int_at_least,
                     _to_float, _work_budget, binom, catalan, colex_unrank, subset_ranks)
from .errors import BadParams, NotGood, TooLarge

# successor-table steps one walk call may build, C(n,r)*C(r,s)*C(r-s,s):
# at about 100-130 bytes of Python tuples per step, 2**21 steps hold
# ~0.25 GB, and building them peaks near 0.6 GB (0.7 GB peak RSS).  The
# search's step index then adds about 70 bytes per entry, more for a step
# that meets new labels; an enumeration, whose u never changes, enters a
# step at most once as a free step and once as a next-to-last one, so the
# table and its index stay under the build's peak
MAX_TABLE_STEPS = 2**21

# ranks of stop 0's walks that enumerate_closed_walks keeps to replay at
# the other stops: 2**21 of them hold 16 MB as the list the search fills
# and 8 MB as the int32 array it becomes, and replaying a stop holds as
# much again plus its sort order.  Each kept walk, 2t of those ranks, is
# a class, and the call's report dict holds an entry for each class that
# has been checked, about 72 bytes with its key (the reports are shared):
# at t = 4, 2**21 ranks are 262144 classes and up to 19 MB of entries.
# Past the cap every stop is searched
MAX_REPLAY_RANKS = 2**21
_REPLAY_CHUNK = 512  # replayed walks decoded through the object arrays at a time


def _masks(rows: np.ndarray) -> np.ndarray:
    """Python-int bitmasks of the rows: vertex ids past 63 get their own bit."""
    return (1 << rows.astype(object)).sum(axis=1)


def _tables(n: int, r: int, s: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Per-(n,r,s) walk tables, built by each walk call for itself: the
    stops and the edges as colex-ranked rows of vertex ids, and succ[a],
    the steps (b, j) to a disjoint stop b over an edge j, by (b, j)."""
    stops = colex_unrank(np.arange(binom(n, s)), n, s)
    edges = colex_unrank(np.arange(binom(n, r)), n, r)
    ranks = subset_ranks(edges, n, s)
    ca, cb = _disjoint_columns(r, s)
    a = ranks[:, ca].ravel()
    b = ranks[:, cb].ravel()
    j = np.repeat(np.arange(len(edges)), len(ca))
    order = np.lexsort((j, b, a))
    steps = list(zip(b[order].tolist(), j[order].tolist()))
    ends = np.cumsum(np.bincount(a, minlength=len(stops))).tolist()
    succ = tuple(tuple(steps[lo:hi]) for lo, hi in zip([0] + ends, ends))
    _check_tables(stops, edges, succ, r, s)
    return stops, edges, succ


def _check_tables(stops: np.ndarray, edges: np.ndarray, succ: tuple, r: int, s: int) -> None:
    """The walk axioms, once for every step a walk can take: stops are
    sorted s-sets, edges sorted r-sets, and each step (a, b, j) of succ joins
    disjoint stops a and b inside edge j.  Checked on the rows that walks
    are decoded from.  Raises RuntimeError, not assert, so that python -O
    keeps the check."""
    for rows, size in ((stops, s), (edges, r)):
        unsorted = (np.diff(rows, axis=1) <= 0).any(axis=1) | (rows.shape[1] != size)
        bad = np.flatnonzero(unsorted)
        if bad.size:
            raise RuntimeError(f"walk table holds {tuple(rows[bad[0]].tolist())}, "
                               f"not a sorted {size}-set")
    smask, emask = _masks(stops), _masks(edges)
    a = np.repeat(np.arange(len(stops)), list(map(len, succ)))
    steps = chain.from_iterable(chain.from_iterable(succ))
    b, j = np.fromiter(steps, dtype=np.int64).reshape(-1, 2).T
    sa, sb = smask[a], smask[b]
    bad = np.flatnonzero((sa & sb) | ((sa | sb) & ~emask[j]))
    if bad.size:
        k = bad[0]
        raise RuntimeError(
            f"walk table step {tuple(stops[a[k]].tolist())} -> {tuple(stops[b[k]].tolist())} "
            f"over {tuple(edges[j[k]].tolist())}: stops not disjoint or not inside the edge"
        )


def _checked_tables(
    n: int, r: int, s: int, t: int, budget: int | None, canonical: bool = False
) -> tuple[tuple[np.ndarray, np.ndarray, tuple], tuple, int]:
    """The walk layer's one entry check: a size that is not an integer,
    then a non-loose s, then t < 1, then a bad budget, then n < 0, then a
    table past MAX_TABLE_STEPS is rejected before the tables are built;
    returns (tables, their labelling-rule thresholds, limit).  The tables
    are on range(n), or with canonical on the m = min(n, J) vertices the
    canonical search needs.  The message names the binomials, since
    Python refuses to print an int past 4300 digits."""
    n, r, s, t = (_int_at_least(x, name, -math.inf) for x, name in zip((n, r, s, t), "nrst"))
    _check_loose(r, s)
    if t < 1:
        raise BadParams(f"walk length must be >= 1, got {t}")
    limit = _work_budget(budget)
    if n < 0:
        raise BadParams(f"need n >= 0, got {n}")
    if canonical:
        n = min(n, s + t // 2 * (r - s))
    if binom(n, r) * binom(r, s) * binom(r - s, s) > MAX_TABLE_STEPS:
        raise TooLarge(f"C({n}, {r})*C({r}, {s})*C({r - s}, {s}) walk-table steps "
                       f"exceed the cap of {MAX_TABLE_STEPS}")
    stops, edges, succ = _tables(n, r, s)
    return (stops, edges, succ), _rule(stops, edges), limit


def _rule(stops: np.ndarray, edges: np.ndarray) -> tuple[list[int], ...]:
    """The labelling rule's per-row thresholds, built once per walk call:
    for the edges, then the stops, c, the first id of the last run of
    consecutive ids in the row, and the row's largest id plus one."""
    out = []
    for rows in (edges, stops):
        starts = np.diff(rows, axis=1, prepend=-2) > 1  # the first id of each run
        out += [np.where(starts, rows, 0).max(axis=1).tolist(), (rows[:, -1] + 1).tolist()]
    return tuple(out)


def _walk_search(
    succ: tuple, rule: tuple, t: int, limit: int, a0: int, u: int, spare: int,
    nodes: int = 0, roots: int = 1,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Yield (stop ranks, edge ranks, u, weight) for every closed t-walk
    from stop a0 that keeps the labelling rule with range(u) met at a0 and
    holds at most spare single-occurrence edges: u is the number of labels
    the walk meets, and weight the product of C(u + g, g) C(g, h) over its
    steps, u the labels met before a step, g the edge's new labels and h
    the entered stop's (see the module docstring).  With u past every
    table vertex the rule is empty and every weight 1: spare 0 gives the
    good walks and spare t every walk.  Returns the state count: nodes,
    the states visited before this search, plus its own.

    Depth-first search on a stack of branch iterators, one per step taken,
    so a walk of any length t needs no recursion.  A partial walk with more
    single-occurrence edges than steps left plus spare is pruned.  A step
    (b, j) with range(u) labelled keeps the rule exactly when u >= max(c_j,
    c_b), rule's thresholds: then the edge's ids from u on are u, u + 1,
    ..., the next labels, and the stop's the first of them.  The steps that
    pass at (stop a, labels met u, phase) are indexed once per call, the
    first time the search reaches that key, as (j, (b, u after the step,
    its factor)) in succ's (b, j) order, so the loop unpacks a pair before
    the prune; the phase is free, the next to last step (only to stops
    that can close) or the closing step, whose steps (b, a0, j) are a0's
    checked steps (a0, b, j) reversed, walk steps too because disjointness
    and containment are symmetric.  Each entry keeps apart, in the same
    order, its steps over edges with no unmet label, whose (b, u, 1) is
    shared per b: where the walk can no longer afford a new edge, only
    those are tried, since every other step opens one and fails the prune.
    Filtered and pruned steps are never states, so the state count and the
    budget are those of a search that tests the rule and the prune step by
    step.  More than limit states in all is TooLarge, whose message counts
    the a0 of roots roots before this one as finished."""
    cut_e, top_e, cut_s, top_s = rule
    # close[b]: the steps (a0, j) from b back to a0, in j order
    close: dict[int, list] = {}
    for b, j in succ[a0]:
        close.setdefault(b, []).append((a0, j))
    index: dict[tuple[int, int, int], tuple[tuple, tuple]] = {}

    def branch(a: int, u: int, st: int, may_open: bool) -> tuple:
        # the steps that step st may take from stop a, range(u) met; unless
        # it may open a new edge, only those over edges with no unmet label
        phase = 0 if st < t - 1 else 2 if st == t else 1
        key = a, u, phase
        steps = index.get(key)
        if steps is None:
            raw = (succ[a] if phase == 0 else close.get(a, ()) if phase == 2
                   else [p for p in succ[a] if p[0] in close])
            same: dict[int, tuple] = {}  # (b, u, 1) for each b, shared by its steps
            kept = []
            for b, j in raw:
                g = top_e[j] - u
                if g <= 0:  # every label of the edge, and so of the stop, met
                    kept.append((j, same.get(b) or same.setdefault(b, (b, u, 1))))
                elif u >= cut_e[j] and u >= cut_s[b]:
                    h = max(top_s[b] - u, 0)
                    kept.append((j, (b, u + g, binom(u + g, g) * binom(g, h))))
            steps = index[key] = (tuple(kept), tuple(p for p in kept if p[1][1] == u))
        return steps[0] if may_open else steps[1]

    stops, edges, weights, counts, singles = [a0], [], [1], {}, 0
    its = [iter(branch(a0, u, 1, t + spare > 1))]
    while its:
        st = len(its)
        room = t - st + spare  # single-occurrence edges the walk may still hold
        for j, step in its[-1]:
            c = counts.get(j, 0)
            ns = singles + (1 if c == 0 else (-1 if c == 1 else 0))
            if ns > room:
                continue
            nodes += 1
            if nodes > limit:
                raise TooLarge(f"walk enumeration visited {limit} states, its whole "
                               f"budget, and finished {a0} of {roots} roots")
            b, u, f = step
            if st == t:
                yield tuple(stops), tuple(edges) + (j,), u, weights[-1] * f
                continue
            counts[j] = c + 1
            singles = ns
            stops.append(b)
            edges.append(j)
            weights.append(weights[-1] * f)
            # the next step may open a new edge only if the single-occurrence
            # edges it would leave fit in the steps after it
            its.append(iter(branch(b, u, st + 1, ns < room - 1)))
            break
        else:
            its.pop()
            if edges:
                stops.pop()
                weights.pop()
                j = edges.pop()
                c = counts.pop(j) - 1
                if c:
                    counts[j] = c
                singles += (c == 1) - (c == 0)
    return nodes


def _relabelling(stops: np.ndarray, edges: np.ndarray, a0: int, n: int) -> list[np.ndarray]:
    """[stop map, edge map]: the colex rank of each stop and each edge
    under the vertex permutation pi that sends stop 0's vertices to stop
    a0's and the other vertices to the rest, both in order.  pi is checked
    to be a permutation of range(n), and each map to name the rows of pi
    applied to every row, sorted.  Raises RuntimeError, not assert, so that
    python -O keeps the check."""
    rest = np.ones(n, dtype=bool)
    rest[stops[a0]] = False
    pi = np.concatenate((stops[a0], np.flatnonzero(rest)))
    if not np.array_equal(np.sort(pi), np.arange(n)):
        raise RuntimeError(f"the relabelling to stop {a0} is not a permutation of range({n})")
    maps = []
    for rows in (stops, edges):
        moved = np.sort(pi[rows], axis=1)
        ranks = subset_ranks(moved, n, rows.shape[1])[:, 0]
        if not np.array_equal(rows[ranks], moved):
            raise RuntimeError(f"the rank map to stop {a0} does not name the relabelled "
                               f"{rows.shape[1]}-sets")
        maps.append(ranks.astype(np.intc))
    return maps


def _replayed(
    walks0: np.ndarray, reports: dict, smap: np.ndarray, emap: np.ndarray,
    sobj: np.ndarray, eobj: np.ndarray,
) -> Iterator[tuple[tuple[SSet, ...], tuple[SSet, ...], tuple[dict, int]]]:
    """Stop 0's walks, the columns of walks0 (t stop ranks over t edge
    ranks), relabelled by the rank maps and yielded in search order: by
    next stop, then edge, step by step, (s_2, e_1, s_3, e_2, ..., e_t).
    Each walk is yielded as its (stops, edges) tuples, decoded a chunk at
    a time by indexing sobj and eobj, the object arrays of the stop and
    edge tuples, so a root's walks are never all built at once, and with
    the report slot of its stop-0 original: reports and its column."""
    t = len(walks0) // 2
    s, e = smap[walks0[:t]], emap[walks0[t:]]
    keys = [k for i in range(1, t) for k in (s[i], e[i - 1])] + [e[t - 1]]
    order = np.lexsort(keys[::-1])
    for lo in range(0, len(order), _REPLAY_CHUNK):
        rows = order[lo:lo + _REPLAY_CHUNK]
        yield from zip(zip(*sobj[s[:, rows]].tolist()), zip(*eobj[e[:, rows]].tolist()),
                       zip(repeat(reports), rows.tolist()))


@dataclass(frozen=True)
class ClosedWalk:
    """A closed s-walk: stops S_1..S_t and linking edges F_1..F_t.

    F_i links S_i to S_{i+1}, with F_t closing back to S_1.  Stops and
    edges are tuples, and each stop and edge a sorted tuple of non-negative
    integer vertex ids (int or np.integer), so that a walk and its edges
    hash.  The constructor checks the walk axioms on every call, raising
    BadParams; the walks of enumerate_closed_walks skip it, because their
    rows and steps were checked once per table (_check_tables), and their
    vertices are plain ints.
    """

    stops: tuple[SSet, ...]
    edges: tuple[SSet, ...]
    # (reports, k): the slot in one call's report dict that a walk shares
    # with the other walks of its class (stop_degree_check), or None; not a
    # field, so equality, hashing, repr and asdict leave it out
    _slot = None

    def __post_init__(self):
        if not (isinstance(self.stops, tuple) and isinstance(self.edges, tuple)):
            raise BadParams("stops and edges must be tuples")
        t = len(self.stops)
        if t < 1 or t != len(self.edges):
            raise BadParams("need equally many stops and edges, at least one each")
        for v in self.stops + self.edges:
            if not (isinstance(v, tuple) and all(isinstance(x, (int, np.integer)) and x >= 0
                                                 for x in v)):
                raise BadParams(f"{v!r} is not a tuple of non-negative integer vertex ids")
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

    @classmethod
    def _trusted(
        cls, stops: tuple[SSet, ...], edges: tuple[SSet, ...], slot: tuple[dict, int] | None
    ) -> ClosedWalk:
        """A walk built from a checked table's steps, without __post_init__,
        holding slot, the report slot of its class, unless that is None."""
        w = object.__new__(cls)
        object.__setattr__(w, "stops", stops)
        object.__setattr__(w, "edges", edges)
        if slot is not None:
            object.__setattr__(w, "_slot", slot)
        return w

    def __getstate__(self) -> dict:
        # a copy or a pickle holds the fields alone, not the call's report dict
        return {"stops": self.stops, "edges": self.edges}

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
    on range(n), in deterministic colex-driven order.  Searches from stop 0
    only and replays its walks at the other stops (see the module
    docstring)."""
    (stops, edges, succ), rule, limit = _checked_tables(n, r, s, t, budget)
    ssets = tuple(map(tuple, stops.tolist()))
    rsets = tuple(map(tuple, edges.tolist()))
    sobj = np.fromiter(ssets, dtype=object, count=len(ssets))
    eobj = np.fromiter(rsets, dtype=object, count=len(rsets))
    walk = ClosedWalk._trusted
    kept: list[int] = []  # stop 0's walks, each as its t stop ranks then its t edge ranks
    # each checked class's report by its stop-0 walk's column, and each report to itself
    reports: dict = {}
    replay, nodes, n0 = True, 0, 0
    for a0 in range(len(succ)):
        if a0 and replay and nodes + n0 <= limit:
            nodes += n0
            if walks0.size:
                maps = _relabelling(stops, edges, a0, n)
                yield from starmap(walk, _replayed(walks0, reports, *maps, sobj, eobj))
            continue
        # stop 0, a stop past the replay cap, or the stop that runs out of budget
        search = _walk_search(succ, rule, t, limit, a0, n, 0 if good_only else t, nodes, len(succ))
        while True:
            try:
                sidx, eidx, _, _ = next(search)
            except StopIteration as done:
                nodes = done.value
                break
            slot = None
            if not a0 and replay:
                kept.extend(sidx)
                kept.extend(eidx)
                if len(kept) > MAX_REPLAY_RANKS:
                    replay = False
                    kept.clear()
                else:
                    slot = reports, len(kept) // (2 * t) - 1
            yield walk(tuple([ssets[a] for a in sidx]), tuple([rsets[j] for j in eidx]), slot)
        if not a0:
            n0 = nodes  # every stop visits as many states as stop 0
            walks0 = np.array(kept, dtype=np.intc).reshape(-1, 2 * t).T
            kept.clear()


def _walk_profiles(
    n: int, r: int, s: int, t: int, budget: int | None
) -> dict[tuple[int, int, tuple[int, ...]], int]:
    """Good closed t-walks on range(n) counted by (distinct edges, distinct
    vertices, sorted edge multiplicities), in first-met order, from the
    canonical walks on m = min(n, J) vertices (see the module docstring):
    one sum over the canonical search, each walk counting its weight times
    C(n, j), which is C(n, j) j!/(s! prod h! (g - h)!) walks."""
    (_, _, succ), rule, limit = _checked_tables(n, r, s, t, budget, canonical=True)
    keys: Counter = Counter()
    for _, e, u, ways in _walk_search(succ, rule, t, limit, 0, int(s), 0) if succ else ():
        d = set(e)
        keys[len(d), u, tuple(sorted(map(e.count, d)))] += ways
    return {(i, j, prof): c * binom(n, j) for (i, j, prof), c in keys.items()}


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
    counts: Counter = Counter()
    for (i, j, _), c in _walk_profiles(n, r, s, t, budget).items():
        counts[i, j] += c
    return WalkCensus(n, r, s, t, dict(counts))


def edge_moment(q: int, p) -> float | Fraction:
    """q-th central moment of a Bernoulli(p) edge indicator."""
    q = _int_at_least(q, "moment order", -math.inf)
    if q < 1:
        raise BadParams(f"moment order must be >= 1, got {q}")
    _check_probability(p)
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
    _check_probability(p)
    if exact and not isinstance(p, Fraction):
        p = Fraction(p)
    # keyed by the sorted edge multiplicities, each count summed before any
    # float arithmetic, so the float total has the bits of a walk-by-walk sum
    profiles: Counter = Counter()
    for (_, _, prof), c in _walk_profiles(n, r, s, t, budget).items():
        profiles[prof] += c
    total = Fraction(0) if exact else 0.0
    for prof, cnt in profiles.items():
        if not exact:
            cnt = _to_float(cnt, f"the number of good walks with multiplicities {prof}")
        total += cnt * math.prod(edge_moment(q, p) for q in prof)
    if not exact and not math.isfinite(total):
        raise TooLarge("the expected trace exceeds the float range")
    return total


def tree_walk_count(n: int, r: int, s: int, k: int) -> int:
    """Exact number of good closed 2k-walks with k distinct edges spanning
    the maximum s + k(r-s) vertices: the tree-shaped walks.

    Zero when n is too small to host that many vertices.
    """
    n, r, s, k = (_int_at_least(x, name, -math.inf) for x, name in zip((n, r, s, k), "nrsk"))
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
    count, rem = divmod(num, den)
    if rem:  # RuntimeError, not assert, so that python -O keeps the check
        raise RuntimeError(f"tree walk count: {num} is not a multiple of {den}")
    return count


def census_upper_bound(n: int, r: int, s: int, t: int, i: int, j: int) -> float:
    """Closed-form upper bound on the (i, j) census cell for length-t walks."""
    n, r, s, t, i, j = (_int_at_least(x, name, -math.inf)
                        for x, name in zip((n, r, s, t, i, j), "nrstij"))
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
    try:
        base = shape * float(binom(r - s, s)) ** (t - i) * float(n) ** m
        base /= math.factorial(s) ** (i + 1) * math.factorial(r - 2 * s) ** i
        bound = base * (c1 * float(i) ** c2 / n) ** (m - j)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise TooLarge(f"the census bound of cell ({i}, {j}) exceeds the float range")
    return bound


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

    Computed as counts: the degrees sum to i * C(r, s), so the sum of
    (d_S - 1) is that minus the number of distinct s-subsets.

    The report does not change when the vertices are renamed, so the
    walks of enumerate_closed_walks that relabel one stop-0 walk share one
    report slot (see the module docstring): the first check of the class
    computes the report and stores it there, as the call's one object
    equal to it, and the others return that same object.  A walk with no
    slot is checked from its edges every time.
    """
    slot = w._slot
    if slot is not None:
        reports, k = slot
        report = reports.get(k)
        if report is not None:
            return report
    mult: dict[SSet, int] = {}  # distinct edges in first-occurrence order
    for f in w.edges:
        mult[f] = mult.get(f, 0) + 1
    if 1 in mult.values():
        raise NotGood("walk has a single-occurrence edge")
    s = len(w.stops[0])
    r = len(w.edges[0])
    i = len(mult)
    subsets: set[SSet] = set()
    seen: set[int] = set()
    forward = 0
    for f in mult:
        forward += len(seen.intersection(f)) == s
        seen.update(f)
        subsets.update(combinations(f, s))
    # a ClosedWalk has r >= 2s >= 2, so math.comb needs no range check
    lhs = i * math.comb(r, s) - len(subsets) - forward
    j = len(seen)
    gap = s + i * (r - s) - j
    c = 2 * math.comb(r, s - 1)
    rhs = (1 + c / s) * gap
    holds = s * lhs <= (s + c) * gap
    report = StopDegreeReport(lhs, rhs, holds, i, j)
    if slot is not None:
        report = reports[k] = reports.setdefault(report, report)
    return report


def code_from_walk(w: ClosedWalk) -> str:
    """Occurrence code of a good walk, one symbol per step: '(' the first
    occurrence of its edge, ')' the second, '*' any later one.  A walk that
    uses each edge exactly twice gives a Dyck word."""
    if not w.is_good:
        raise NotGood("walk has a single-occurrence edge")
    seen: dict[SSet, int] = {}
    out = []
    for f in w.edges:
        c = seen.get(f, 0) + 1
        seen[f] = c
        out.append("(" if c == 1 else ")" if c == 2 else "*")
    return "".join(out)
