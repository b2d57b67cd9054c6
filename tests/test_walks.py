"""Closed walk enumeration, censuses, moments, and the occurrence code."""

import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    BadParams,
    ClosedWalk,
    NotGood,
    NotLoose,
    TooLarge,
    binom,
    catalan,
    census,
    census_upper_bound,
    code_from_walk,
    edge_moment,
    enumerate_closed_walks,
    expected_trace,
    stop_degree_check,
    tree_walk_count,
)
import hyperlap.combin as combin
import hyperlap.walks as walks


def test_walk_validation():
    # adjacent stops must be disjoint and sit inside the linking edge
    ClosedWalk(((0,), (1,)), ((0, 1), (0, 1)))
    with pytest.raises(BadParams):
        ClosedWalk(((0,), (0,)), ((0, 1), (0, 1)))
    with pytest.raises(BadParams):
        ClosedWalk(((0,), (2,)), ((0, 1), (0, 2)))
    with pytest.raises(BadParams):
        ClosedWalk(((0,), (1,)), ((0, 1),))


@pytest.mark.parametrize("stops, edges", [
    (([0], [1]), ((0, 1, 2), (0, 1, 2))),
    (((0,), (1,)), ([0, 1, 2], [0, 1, 2])),
    ([(0,), (1,)], ((0, 1, 2), (0, 1, 2))),
    (((0,), (1,)), [(0, 1, 2), (0, 1, 2)]),
    (((0.0,), (1.0,)), ((0, 1, 2), (0, 1, 2))),
    (((0,), (1,)), ((0, 1, 2.0), (0, 1, 2.0))),
    (((-1,), (1,)), ((-1, 1, 2), (-1, 1, 2))),
    ((("0",), ("1",)), (("0", "1", "2"), ("0", "1", "2"))),
], ids=["list-stops", "list-edges", "stops-list", "edges-list", "float-stops",
        "float-edge", "negative", "str"])
def test_walk_constructor_rejects_lists_and_bad_vertices(stops, edges):
    """Stops and edges are tuples of tuples of non-negative integers, else
    the walk would not hash; BadParams, not assert, so python -O keeps it."""
    with pytest.raises(BadParams):
        ClosedWalk(stops, edges)


def test_walk_constructor_takes_numpy_integers():
    w = ClosedWalk(((np.int64(0),), (1,)), ((0, np.intc(1), 2), (0, 1, 2)))
    assert w == ClosedWalk(((0,), (1,)), ((0, 1, 2), (0, 1, 2)))
    assert stop_degree_check(w).holds and code_from_walk(w) == "()"


def test_walk_helpers():
    w = ClosedWalk(
        ((0,), (1,), (0,), (2,)),
        ((0, 1, 4), (0, 1, 4), (0, 2, 3), (0, 2, 3)),
    )
    assert w.length == 4
    assert w.is_good
    assert w.distinct_edges() == ((0, 1, 4), (0, 2, 3))
    assert sorted(w.edge_multiplicities().values()) == [2, 2]


def test_enumerate_matches_census():
    for n, r, s, t in [(5, 2, 1, 2), (5, 2, 1, 4), (6, 3, 1, 4)]:
        walks = list(enumerate_closed_walks(n, r, s, t, good_only=True))
        assert all(w.is_good for w in walks)
        cen = census(n, r, s, t)
        assert len(walks) == cen.total
        # every enumerated walk lands in its census cell
        cells = Counter(
            (len(w.distinct_edges()), len(set().union(*w.distinct_edges())))
            for w in walks
        )
        assert dict(cells) == cen.counts


def test_enumeration_order_pinned():
    """The first walks of (5,3,1,4) and a few later ones, in the order the
    stop-by-stop successor tables produce them."""
    walks = [(w.stops, w.edges) for w in enumerate_closed_walks(5, 3, 1, 4)]
    assert len(walks) == 21060
    e012, e013, e014, e023 = (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3)
    s0101 = ((0,), (1,), (0,), (1,))
    assert walks[:10] == [
        (s0101, (e012, e012, e012, e012)),
        (s0101, (e012, e012, e012, e013)),
        (s0101, (e012, e012, e012, e014)),
        (s0101, (e012, e012, e013, e012)),
        (s0101, (e012, e012, e013, e013)),
        (s0101, (e012, e012, e013, e014)),
        (s0101, (e012, e012, e014, e012)),
        (s0101, (e012, e012, e014, e013)),
        (s0101, (e012, e012, e014, e014)),
        (((0,), (1,), (0,), (2,)), (e012, e012, e012, e012)),
    ]
    assert walks[36] == (s0101, (e012, e013, e012, e012))
    assert walks[108] == (((0,), (1,), (2,), (1,)), (e012, e012, e012, e012))
    assert walks[117] == (((0,), (1,), (2,), (3,)), (e012, e012, e023, e013))
    assert walks[351] == (s0101, (e013, e012, e012, e012))


def test_census_pinned_values():
    assert census(5, 2, 1, 2).counts == {(1, 2): 20}
    assert census(6, 2, 1, 4).counts == {(1, 2): 30, (2, 3): 240}


def test_census_max_vertices():
    cen = census(6, 3, 1, 4)
    assert cen.max_vertices(1) == 3
    assert cen.max_vertices(2) == 5
    assert all(j <= cen.max_vertices(i) for i, j in cen.counts)


def test_good_only_is_a_filter():
    every = list(enumerate_closed_walks(5, 2, 1, 4))
    good = list(enumerate_closed_walks(5, 2, 1, 4, good_only=True))
    assert len(good) == sum(w.is_good for w in every)
    assert len(good) < len(every)


def test_budget_guard():
    with pytest.raises(TooLarge, match="visited 50 states.* finished 0 of 7 roots"):
        list(enumerate_closed_walks(7, 3, 1, 6, budget=50))
    with pytest.raises(TooLarge, match="visited 50 states.* finished 0 of 1 roots"):
        census(7, 3, 1, 6, budget=50)
    # each root of (5,2,1,2) takes 4 first steps and 4 closing ones
    with pytest.raises(TooLarge, match="visited 17 states.* finished 2 of 5 roots"):
        list(enumerate_closed_walks(5, 2, 1, 2, budget=17))


@pytest.mark.parametrize("budget", [1e3, 1.0, "x", Fraction(10**4)])
def test_walk_budget_must_be_an_integer(budget):
    """A budget that is not an integer is BadParams, checked after t and
    before n, as a bad integer budget is."""
    message = f"budget must be an integer, got {budget!r}"
    for call in (lambda: census(5, 2, 1, 4, budget=budget),
                 lambda: list(enumerate_closed_walks(5, 2, 1, 4, budget=budget)),
                 lambda: census(-1, 2, 1, 4, budget=budget)):
        with pytest.raises(BadParams, match=re.escape(message)):
            call()
    with pytest.raises(BadParams, match="walk length must be >= 1"):
        census(5, 2, 1, 0, budget=budget)
    with pytest.raises(BadParams, match="budget must be positive, got 0"):
        census(5, 2, 1, 4, budget=np.int64(0))
    # a bool is an integer, as it is for the sizes: True is a budget of 1
    with pytest.raises(TooLarge, match="visited 1 states"):
        list(enumerate_closed_walks(5, 2, 1, 4, budget=True))


# what a lazy consumer receives before TooLarge: the number of walks, the
# sha256 of their reprs and the message, frozen from the search from every stop
@pytest.mark.parametrize("point, kwargs, count, digest, message", [
    ((5, 2, 1, 2), {"budget": 17}, 8,
     "34d687a9a030754550bd670ebce4c83e2f7968af4f7b876985039483f2f1563d",
     "walk enumeration visited 17 states, its whole budget, and finished 2 of 5 roots"),
    ((7, 3, 1, 6), {"budget": 50}, 38,
     "a24b38ab551ba11676d817af668371ff200a79ee7859a700f2c20d6f700c18c2",
     "walk enumeration visited 50 states, its whole budget, and finished 0 of 7 roots"),
    ((5, 3, 1, 4), {"good_only": True, "budget": 5219}, 1739,
     "37cc6fa06c95e4c740812b6790264f14adb55c8aa8ec59f1ca30ad746e1ac130",
     "walk enumeration visited 5219 states, its whole budget, and finished 4 of 5 roots"),
])
def test_walks_before_the_budget_error_pinned(point, kwargs, count, digest, message):
    h = hashlib.sha256()
    k = 0
    with pytest.raises(TooLarge) as err:
        for w in enumerate_closed_walks(*point, **kwargs):
            h.update(repr((w.stops, w.edges)).encode())
            k += 1
    assert (k, h.hexdigest(), str(err.value)) == (count, digest, message)


# each entry with a point whose table is over the cap: enumerate_closed_walks
# tabulates all n vertices, census and expected_trace only J of them
_WALK_ENTRIES = [
    pytest.param(lambda n, r, s, t: list(enumerate_closed_walks(n, r, s, t)),
                 (1000, 3, 1, 2), "C(1000, 3)*C(3, 1)*C(2, 1)", id="enumerate"),
    pytest.param(lambda n, r, s, t: census(n, r, s, t),
                 (1000, 30, 15, 2), "C(30, 30)*C(30, 15)*C(15, 15)", id="census"),
    pytest.param(lambda n, r, s, t: expected_trace(n, r, s, t, 0.5),
                 (1000, 30, 15, 2), "C(30, 30)*C(30, 15)*C(15, 15)", id="trace"),
]


@pytest.mark.parametrize("entry, over_cap, binoms", _WALK_ENTRIES)
def test_bad_walk_params_rejected_before_tables(entry, over_cap, binoms, monkeypatch):
    """Every public walk function rejects a non-loose s, then t < 1, before
    it builds any walk table; expected_trace rejects a bad p before both."""

    def no_tables(*args):
        raise AssertionError(f"_tables{args} built for a rejected call")

    monkeypatch.setattr(walks, "_tables", no_tables)
    for s in (-1, 0, 3):  # r = 4: below 1, and r/2 + 1
        with pytest.raises(NotLoose):
            entry(5, 4, s, 2)
    with pytest.raises(NotLoose):
        entry(40, 6, 4, 2)  # C(40, 6) r-sets would take seconds to tabulate
    with pytest.raises(NotLoose):
        entry(5, 4, 0, 0)  # s is checked before t
    with pytest.raises(BadParams, match="walk length must be >= 1, got 0"):
        entry(5, 4, 2, 0)
    # C(1000, 3)*3*2 steps would take about 100 GB as Python tuples, and
    # C(30, 15) steps about 17 GB
    cap = " walk-table steps exceed the cap of 2097152"
    with pytest.raises(TooLarge, match=re.escape(binoms + cap)):
        entry(*over_cap)
    # the message names binomials: C(100000, 3000) has over 4300 digits,
    # past what Python will print
    with pytest.raises(TooLarge, match=re.escape(cap)):
        entry(100000, 3000, 1, 2)
    # (5, 2, 1, 3) has no good walk, so no moment would ever see its p
    for p in (2.0, -1, math.nan, math.inf, Fraction(3, 2)):
        for exact in (False, True):
            with pytest.raises(BadParams, match=r"probability must lie in \[0, 1\]"):
                expected_trace(5, 2, 1, 3, p, exact=exact)
    with pytest.raises(BadParams, match="probability"):
        expected_trace(5, 4, 3, 0, 2.0, exact=True)  # p before s and t


# the least budget at which census, the good-walk enumeration and the full
# enumeration finish: the search states each visits, frozen; census visits
# only the canonical walks on min(n, J) vertices, labelled in the order
# they meet them, each entered stop's unmet vertices first in its block
@pytest.mark.parametrize("point, least", [
    ((5, 3, 1, 4), (48, 5220, 28860)),
    ((6, 4, 2, 4), (19, 2610, 4050)),
    ((5, 2, 1, 5), (8, 360, 2460)),
])
def test_budget_counts_states_pinned(point, least):
    runs = [
        lambda b: census(*point, budget=b),
        lambda b: list(enumerate_closed_walks(*point, good_only=True, budget=b)),
        lambda b: list(enumerate_closed_walks(*point, budget=b)),
    ]
    for run, budget in zip(runs, least):
        run(budget)
        with pytest.raises(TooLarge, match=f"visited {budget - 1} states"):
            run(budget - 1)


@pytest.mark.parametrize("point, least", [
    ((8, 3, 1, 5), 160), ((20, 4, 1, 4), 199), ((6, 3, 1, 6), 3127),
])
def test_census_budget_counts_states_pinned(point, least):
    census(*point, budget=least)
    with pytest.raises(TooLarge, match=f"visited {least - 1} states"):
        census(*point, budget=least - 1)


@pytest.mark.parametrize("call, message", [
    (lambda: census(5, 3, 1, 4.0), "t must be an integer, got 4.0"),
    (lambda: census(5.0, 3, 1, 4), "n must be an integer, got 5.0"),
    (lambda: census(5, 3.0, 1, 4), "r must be an integer, got 3.0"),
    (lambda: census(5, 3, 1.0, 4), "s must be an integer, got 1.0"),
    (lambda: list(enumerate_closed_walks(5, 3, 1, 2.0)), "t must be an integer, got 2.0"),
    (lambda: expected_trace(5.0, 3, 1, 4, 0.5), "n must be an integer, got 5.0"),
    (lambda: tree_walk_count(5.0, 3, 1, 2), "n must be an integer, got 5.0"),
    (lambda: tree_walk_count(5, 3, 1, 2.0), "k must be an integer, got 2.0"),
    (lambda: census(-1, 3, 1, 4), "need n >= 0, got -1"),
    (lambda: expected_trace(-1, 3, 1, 4, 0.5), "need n >= 0, got -1"),
    (lambda: list(enumerate_closed_walks(-1, 3, 1, 2)), "need n >= 0, got -1"),
], ids=["census-t", "census-n", "census-r", "census-s", "enumerate-t", "trace-n",
        "tree-n", "tree-k", "census-negative-n", "trace-negative-n", "enumerate-negative-n"])
def test_walk_sizes_must_be_integers(call, message):
    with pytest.raises(BadParams, match=re.escape(message)):
        call()


def test_walk_sizes_take_numpy_integers():
    n, r, s, t = map(np.int64, (5, 3, 1, 4))
    assert census(n, r, s, t).counts == census(5, 3, 1, 4).counts
    assert expected_trace(n, r, s, t, 0.5) == expected_trace(5, 3, 1, 4, 0.5)
    assert tree_walk_count(n, r, s, np.int64(2)) == tree_walk_count(5, 3, 1, 2)
    with pytest.raises(BadParams, match="probability"):
        expected_trace(5.0, 3, 1, 4, 2.0)  # p before the sizes


def test_walk_calls_keep_no_table():
    """Each walk call builds its own table and frees it on return: the
    (16, 4, 1) table holds about 2 MB while a call runs."""
    calls = [
        lambda: census(16, 4, 1, 2),
        lambda: list(enumerate_closed_walks(16, 4, 1, 2, good_only=True)),
        lambda: expected_trace(16, 4, 1, 2, 0.5),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            gc.collect()  # a full collection also empties the tuple free lists
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 0.1 * 2**20


def test_search_depth_is_not_bounded_by_recursion():
    # two stops and one edge: the only good walks go back and forth
    assert census(2, 2, 1, 3000).counts == {(1, 2): 2}


def test_one_step_walks_do_not_exist():
    # a stop is never disjoint from itself, so no walk closes in one step
    assert list(enumerate_closed_walks(5, 2, 1, 1)) == []
    assert census(5, 2, 1, 1).counts == {}
    assert expected_trace(5, 2, 1, 1, 0.5) == 0.0


def _point_id(point):
    return "-".join(map(str, point))


# the grid the rooting identity (ROADMAP item 2(a)) was first checked on
_ROOTING_GRID = [(6, 3, 1, 4), (7, 3, 1, 4), (7, 2, 1, 6), (9, 4, 2, 4), (6, 3, 1, 6)]


@lru_cache(maxsize=None)
def _from_every_root(n, r, s, t):
    """(i, j) cells and multiplicity profiles of all good walks, counted on
    the plain enumerator, which searches from every stop."""
    cells, profiles = Counter(), Counter()
    for w in enumerate_closed_walks(n, r, s, t, good_only=True):
        cells[(len(w.distinct_edges()), len(set().union(*w.edges)))] += 1
        profiles[tuple(sorted(w.edge_multiplicities().values()))] += 1
    return cells, profiles


@pytest.mark.parametrize("point", _ROOTING_GRID)
def test_rooted_census_matches_every_root(point):
    cells, _ = _from_every_root(*point)
    got = census(*point).counts
    assert got == cells
    assert list(got) == list(cells)  # cells in first-met order, as before rooting


@pytest.mark.parametrize("point", _ROOTING_GRID)
def test_rooted_trace_matches_every_root(point):
    _, profiles = _from_every_root(*point)
    p = Fraction(1, 3)
    want = sum(
        cnt * math.prod(edge_moment(q, p) for q in prof)
        for prof, cnt in profiles.items()
    )
    assert expected_trace(*point, p, exact=True) == want


# ROADMAP item 1's triples (r, s, t), each with n from r to J + 2, where a
# good walk has at most J = s + (t // 2)(r - s) vertices: n <= J searches
# every vertex, and n > J only J of them
_RELABEL_GRID = [
    (n, r, s, t)
    for r, s, t in [(3, 1, 4), (3, 1, 5), (2, 1, 6), (4, 2, 4),
                    (4, 1, 4), (5, 2, 4), (3, 1, 6), (4, 2, 6)]
    for n in range(r, s + t // 2 * (r - s) + 3)
]
# every-root searches past 2 million states, 6 s to 60 s and more each;
# (6, 3, 1, 6), at 1.8 million, is searched for _ROOTING_GRID anyway
_EVERY_ROOT_TOO_SLOW = {(9, 4, 1, 4), (9, 5, 2, 4), (10, 5, 2, 4), (7, 3, 1, 6),
                        (8, 3, 1, 6), (9, 3, 1, 6), (9, 4, 2, 6), (10, 4, 2, 6)}


@pytest.mark.parametrize("point", _RELABEL_GRID, ids=_point_id)
def test_relabelled_counts_match_every_root(point):
    """census and expected_trace, searched over the canonical walks on
    min(n, J) vertices, against the every-root enumeration on all n: equal
    counts, cells in the same first-met order, and profiles summed in the
    same order, which the float trace shows to the last bit."""
    if point in _EVERY_ROOT_TOO_SLOW:
        pytest.skip("every-root search past 2 million states")
    cells, profiles = _from_every_root(*point)
    got = census(*point).counts
    assert got == cells
    assert list(got) == list(cells)
    for p, exact in ((Fraction(1, 3), True), (0.3, False)):
        want = Fraction(0) if exact else 0.0
        for prof, cnt in profiles.items():
            want += cnt * math.prod(edge_moment(q, p) for q in prof)
        assert expected_trace(*point, p, exact=exact) == want


def test_walk_counts_at_n_1000():
    """At n = 1000 the searches run on J vertices and the closed forms hold:
    t = 2 walks are the ordered stop pairs inside an edge, and the tree cell
    is tree_walk_count."""
    assert census(1000, 3, 1, 2).counts == {(1, 3): 997002000}
    assert census(1000, 4, 2, 4).counts[2, 6] == tree_walk_count(1000, 4, 2, 2)
    p = Fraction(1, 2)
    pairs = binom(1000, 1) * binom(999, 1) * binom(998, 1)
    assert expected_trace(1000, 3, 1, 2, p, exact=True) == pairs * p * (1 - p)


# census cells in first-met order and the exact trace at p = 1/3, frozen
# from an independent count: the walks from one first step, rescaled by
# the number of steps and by C(n, j)/C(m, j)
_LARGE_N_PINS = [
    ((10**4, 3, 1, 6), [
        ((1, 3), 10996700220000), ((2, 4), 2048770225487700000),
        ((2, 5), 2097900734895005040000), ((3, 5), 32567411408370078240000),
        ((3, 4), 1738956191389560000), ((3, 6), 80878568831777219302800000),
        ((3, 7), 49895087463258119118036000000),
    ], Fraction(14807704133559959632140680000, 27)),
    ((10**4, 4, 2, 6), [
        ((1, 4), 2498500274985000), ((2, 5), 299700104985000720000),
        ((2, 6), 748875637331270549100000), ((3, 5), 499500174975001200000),
        ((3, 6), 10484258922637787687400000), ((3, 7), 37421315597443589338527000000),
        ((3, 8), 31162600563771149021658359250000),
    ], Fraction(27733363100346691954683249590000, 81)),
    ((10**4, 5, 2, 4), [
        ((1, 5), 124875043743750300000), ((2, 6), 6739880735981434941900000),
        ((2, 7), 27442298104791965514919800000), ((2, 8), 24930080451016919217326687400000),
    ], Fraction(3697411776176260700724766600000, 3)),
    ((10**4, 4, 1, 5), [
        ((1, 4), 99940010999400000), ((2, 5), 15984005599200038400000),
        ((2, 6), 42436286115438664449000000), ((2, 7), 24947543731629059559018000000),
    ], Fraction(11106664889777754422668400000, 27)),
    ((10**4, 2, 1, 10), [
        ((1, 2), 99990000), ((2, 3), 29991000600000), ((3, 4), 1099340120993400000),
        ((3, 3), 139958002800000), ((4, 5), 11988004199400028800000),
        ((4, 4), 3847690423476900000), ((5, 6), 41937035690551150749600000),
        ((5, 5), 23576408258820056640000), ((5, 4), 1449130159491300000),
    ], Fraction(149257258754244518197540000, 6561)),
    ((10**111, 3, 1, 4), [
        ((1, 3), "064854d51f4853d35aaf718aa713e2bb4cafbba309752000db83df2b9b9446e1"),
        ((2, 4), "29baf13a5a7d7e44d8f4149871240f71bd3d3272ecf0f9288ac0776ae1f6399d"),
        ((2, 5), "7b3d397554db4ed42a0c974c9c52194449de07c6ad399d8e6d412ab323863bd0"),
    ], "190b98119a49b5354b7132229b9c99ec7841a027f191e682e05c7ac8019737a8"),
]


def _pinned(x):
    """x itself, or the sha256 of its decimal string past 100 characters."""
    text = str(x)
    return hashlib.sha256(text.encode()).hexdigest() if len(text) > 100 else x


@pytest.mark.parametrize("point, cells, trace", _LARGE_N_PINS)
def test_walk_counts_pinned_at_large_n(point, cells, trace):
    """Every cell of t >= 4 at n far past J, where a count is almost all
    scaling, in first-met order, and the exact trace."""
    got = census(*point).counts
    assert [(cell, _pinned(c)) for cell, c in got.items()] == cells
    assert _pinned(expected_trace(*point, Fraction(1, 3), exact=True)) == trace


def test_census_without_stops_is_empty():
    assert census(0, 2, 1, 2).counts == {}
    assert census(1, 4, 2, 2).counts == {}
    assert expected_trace(1, 4, 2, 2, 0.5) == 0.0


@pytest.mark.parametrize("point, p, want", [
    ((6, 3, 1, 4), 0.3, 266.1119999999999),
    ((7, 3, 1, 4), 0.3, 678.6989999999998),
    ((7, 2, 1, 6), 0.3, 68.73866999999996),
    ((9, 4, 2, 4), 0.3, 1392.3251999999995),
    ((6, 3, 1, 6), 0.05, 255.73933499999998),
])
def test_expected_trace_float_bits_pinned(point, p, want):
    """Float traces to the last bit, as the search from every stop gave them:
    scaling each integer count, not the float total, keeps every bit."""
    assert expected_trace(*point, p) == want


def test_edge_moment():
    p = Fraction(1, 3)
    assert edge_moment(1, p) == 0
    assert edge_moment(2, p) == p * (1 - p)
    assert edge_moment(3, p) == (1 - p) ** 3 * p - p**3 * (1 - p)
    assert edge_moment(2, 0.5) == pytest.approx(0.25)
    with pytest.raises(BadParams):
        edge_moment(0, 0.5)
    with pytest.raises(BadParams):
        edge_moment(2, 1.5)


def test_edge_moment_refuses_a_non_integer_order():
    """A float order gave a complex moment at 2.5 and was taken at 2.0."""
    for q in (2.5, 2.0, Fraction(2)):
        message = f"^moment order must be an integer, got {re.escape(repr(q))}$"
        with pytest.raises(BadParams, match=message):
            edge_moment(q, 0.5)
    with pytest.raises(BadParams, match="^moment order must be >= 1, got 0$"):
        edge_moment(0, 0.5)
    assert edge_moment(np.int64(2), 0.5) == edge_moment(2, 0.5) == 0.25


def test_expected_trace_t2_closed_form():
    """At t=2 the trace is (number of weighted pairs) * p(1-p)."""
    for n, r, s in [(5, 2, 1), (6, 3, 1), (7, 3, 1), (9, 4, 2)]:
        p = Fraction(1, 2)
        want = (
            binom(n, s)
            * binom(n - s, s)
            * binom(n - 2 * s, r - 2 * s)
            * p
            * (1 - p)
        )
        assert expected_trace(n, r, s, 2, p, exact=True) == want


def test_expected_trace_float_pin():
    assert expected_trace(6, 2, 1, 2, 0.5) == pytest.approx(7.5)


def test_expected_trace_exact_9_4_2():
    got = expected_trace(9, 4, 2, 2, Fraction(1, 2), exact=True)
    assert got == Fraction(189)


def test_expected_trace_aggregation_matches_manual():
    """Recompute the t=4 trace from the census-by-multiplicity directly."""
    n, r, s, t = 6, 3, 1, 4
    p = Fraction(2, 5)
    by_profile = Counter()
    for w in enumerate_closed_walks(n, r, s, t, good_only=True):
        by_profile[tuple(sorted(w.edge_multiplicities().values()))] += 1
    want = sum(
        cnt * math.prod(edge_moment(q, p) for q in prof)
        for prof, cnt in by_profile.items()
    )
    assert expected_trace(n, r, s, t, p, exact=True) == want
    # walks with every edge exactly twice contribute (p(1-p))^i on the nose
    assert by_profile[(2, 2)] * (p * (1 - p)) ** 2 == by_profile[(2, 2)] * math.prod(
        edge_moment(2, p) for _ in range(2)
    )


def test_tree_walk_count_pinned():
    assert tree_walk_count(6, 2, 1, 2) == 240
    # one edge, two stops: ordered pairs inside an r-set, summed over r-sets
    assert tree_walk_count(5, 2, 1, 1) == 20
    assert tree_walk_count(6, 3, 1, 1) == binom(6, 3) * 6


def test_tree_walk_count_empty_when_too_few_vertices():
    assert tree_walk_count(4, 3, 1, 2) == 0  # m_2 = 5 > 4


def test_tree_walk_count_matches_census_cell():
    for n, r, s, k in [(5, 2, 1, 2), (6, 3, 1, 2), (9, 4, 2, 1)]:
        cell = (k, s + k * (r - s))
        assert census(n, r, s, 2 * k).counts.get(cell, 0) == tree_walk_count(
            n, r, s, k
        )


def test_tree_walk_count_refuses_an_inexact_division(monkeypatch):
    # the count is C(n, m) m!/(s!^(k+1) (r-2s)!^k) times Catalan(k), an
    # integer for every integer Catalan number, so only a fraction breaks it
    monkeypatch.setattr(walks, "catalan", lambda k: Fraction(1, 7))
    with pytest.raises(RuntimeError, match="360/7 is not a multiple of 4"):
        tree_walk_count(6, 4, 2, 1)


def test_census_upper_bound_pinned():
    # i=2, j=3 at (6,2,1,4): the bound evaluates to 432 exactly
    assert census_upper_bound(6, 2, 1, 4, 2, 3) == pytest.approx(432.0)
    assert census(6, 2, 1, 4).counts[(2, 3)] == 240 <= 432


def test_census_upper_bound_dominates():
    for n, r, s, t in [(6, 2, 1, 4), (6, 3, 1, 4), (6, 3, 1, 6)]:
        cen = census(n, r, s, t)
        for (i, j), cnt in cen.counts.items():
            assert cnt <= census_upper_bound(n, r, s, t, i, j)


def test_census_upper_bound_validation():
    with pytest.raises(BadParams):
        census_upper_bound(6, 2, 1, 1, 1, 2)
    with pytest.raises(BadParams):
        census_upper_bound(6, 2, 1, 4, 3, 3)
    with pytest.raises(BadParams):
        census_upper_bound(6, 2, 1, 4, 2, 9)
    with pytest.raises(TooLarge, match=r"cell \(1, 3\) exceeds the float range"):
        census_upper_bound(10**111, 3, 1, 4, 1, 3)


@pytest.mark.parametrize("args, message", [
    ((5.5, 3, 1, 4, 2, 4), "n must be an integer, got 5.5"),
    ((5, 3.0, 1, 4, 2, 4), "r must be an integer, got 3.0"),
    ((5, 3, 1.0, 4, 2, 4), "s must be an integer, got 1.0"),
    ((5, 3, 1, 4.0, 2, 4), "t must be an integer, got 4.0"),
    ((5, 3, 1, 4, 2.0, 4), "i must be an integer, got 2.0"),
    ((5, 3, 1, 4, 2, 4.0), "j must be an integer, got 4.0"),
], ids=list("nrstij"))
def test_census_upper_bound_sizes_must_be_integers(args, message):
    """5.5 as n used to give a bound, and a float r, s, t, i or j a bare
    TypeError; numpy ints give the bound of the Python ints."""
    with pytest.raises(BadParams, match=re.escape(message)):
        census_upper_bound(*args)
    ints = (5, 3, 1, 4, 2, 4)
    assert census_upper_bound(*map(np.int64, ints)) == census_upper_bound(*ints)


def test_expected_trace_past_the_float_range():
    """A float trace whose walk count no float holds is TooLarge; the exact
    trace is still a Fraction."""
    with pytest.raises(TooLarge, match="exceeds the float range"):
        expected_trace(10**200, 2, 1, 4, 0.5)
    got = expected_trace(10**200, 2, 1, 4, Fraction(1, 2), exact=True)
    assert isinstance(got, Fraction) and got > 0


def test_stop_degree_check_single_edge():
    w = ClosedWalk(((0,), (1,)), ((0, 1, 2), (0, 1, 2)))
    rep = stop_degree_check(w)
    assert rep.lhs == 0
    assert rep.rhs == 0
    assert rep.holds


def test_stop_degree_check_exhaustive_small():
    for w in enumerate_closed_walks(6, 2, 1, 4, good_only=True):
        assert stop_degree_check(w).holds
    for w in enumerate_closed_walks(6, 3, 1, 4, good_only=True):
        rep = stop_degree_check(w)
        assert rep.holds
        assert rep.lhs >= 0


# leaves and re-enters the same stop over three different edges
STAR_WALK = ClosedWalk(
    ((1,), (0,), (3,), (0,), (5,), (0,)),
    ((0, 1, 2), (0, 3, 4), (0, 3, 4), (0, 5, 6), (0, 5, 6), (0, 1, 2)),
)


def test_stop_degree_check_star_revisit():
    # the center has degree 3 and must be discounted once per entering edge,
    # a single capped discount would leave lhs = 1 over an rhs of 0
    rep = stop_degree_check(STAR_WALK)
    assert rep.distinct_edges == 3
    assert rep.distinct_vertices == 7
    assert rep.lhs == 0
    assert rep.rhs == 0
    assert rep.holds


# the eight-step worked example: three distinct edges, eight vertices
PAPER_WALK = ClosedWalk(
    (
        (1, 2), (4, 5), (7, 8), (3, 4), (2, 5), (3, 4), (7, 8), (4, 5),
    ),
    (
        (1, 2, 3, 4, 5),
        (4, 5, 6, 7, 8),
        (3, 4, 5, 7, 8),
        (1, 2, 3, 4, 5),
        (1, 2, 3, 4, 5),
        (3, 4, 5, 7, 8),
        (4, 5, 6, 7, 8),
        (1, 2, 3, 4, 5),
    ),
)


# r in {2, 3, 4}, every loose s, n <= 7, t <= 5, plus (9, 4, 2, 4)
_WALK_GRID = [
    (n, r, s, t)
    for r in (2, 3, 4) for s in range(1, r // 2 + 1)
    for n in range(r, 8) for t in range(1, 6)
] + [(9, 4, 2, 4)]


@pytest.mark.parametrize("point", _WALK_GRID, ids=_point_id)
def test_enumerated_walks_pass_the_constructor(point):
    """enumerate_closed_walks builds its walks unchecked, from a table
    checked once; every such walk must be one the validating constructor
    accepts and rebuilds equal.  All walks, not only good ones, where there
    are few enough: (7, 4, 1, 5) alone has 777 million."""
    n, _, _, t = point
    for good_only in (True, False) if n + t <= 9 else (True,):
        for w in enumerate_closed_walks(*point, good_only=good_only):
            assert type(w) is ClosedWalk
            assert ClosedWalk(w.stops, w.edges) == w


@pytest.mark.parametrize("point, good_only, count, digest", [
    ((5, 3, 1, 4), False, 21060,
     "fdfc65a4e0f89a47d8c4bd8856b49de2aa7c0bbe5f0e297e8ef765880929aaf9"),
    ((7, 3, 1, 5), True, 47250,
     "f72b118a736e612d8693ac9225dde3a03a8981ac05f913a4eafc44a0658b2c56"),
    ((5, 4, 1, 5), True, 20400,
     "b74bee090a88bc2f9403c432a559d91ad0912cec4901193b875c578e82fef320"),
    ((9, 4, 2, 4), True, 30996,
     "7ffbac70535d603601d3ea7337af3de6909f8cf025786117849bcba09e71f5d6"),
])
def test_enumeration_order_digest_pinned(point, good_only, count, digest):
    """sha256 of the repr of every (stops, edges) in enumeration order, as
    frozen from the validating enumerator."""
    h = hashlib.sha256()
    k = 0
    for w in enumerate_closed_walks(*point, good_only=good_only):
        h.update(repr((w.stops, w.edges)).encode())
        k += 1
    assert (k, h.hexdigest()) == (count, digest)


# walk_sweep's grid, r in {2, 3}, n <= 7, t <= 5, and (10, 4, 2, 4), plus
# two more s = 2 points
_REPLAY_GRID = [
    (n, r, 1, t) for r in (2, 3) for n in range(r, 8) for t in range(1, 6)
] + [(10, 4, 2, 4), (6, 4, 2, 4), (8, 4, 2, 3)]


def _searched_from_every_stop(n, r, s, t, good_only):
    """(stops, edges) of every walk, by the search with every label met run
    stop by stop."""
    stops, edges, succ = walks._tables(n, r, s)
    rule = walks._rule(stops, edges)
    ssets = [tuple(x) for x in stops.tolist()]
    rsets = [tuple(x) for x in edges.tolist()]
    return [
        (tuple(ssets[a] for a in sidx), tuple(rsets[j] for j in eidx))
        for a0 in range(len(succ))
        for sidx, eidx, _, _ in walks._walk_search(succ, rule, t, 10**8, a0, n,
                                                   0 if good_only else t)
    ]


@pytest.mark.parametrize("point", _REPLAY_GRID, ids=_point_id)
def test_replayed_walks_match_the_search_from_every_stop(point):
    """enumerate_closed_walks searches stop 0 and relabels its walks to
    reach the other stops: the same walks, in the same order."""
    n, _, _, t = point
    for good_only in (True, False) if n + t <= 9 else (True,):
        got = [(w.stops, w.edges) for w in enumerate_closed_walks(*point, good_only=good_only)]
        assert got == _searched_from_every_stop(*point, good_only)


def _follows_the_labelling_rule(stops, edges, s):
    """Whether a walk from range(s) gives each new edge's unmet vertices
    the next labels, and the entered stop's unmet vertices the first of
    them."""
    met = set(range(s))
    for k, f in enumerate(edges):
        u = len(met)
        new, entered = set(f) - met, set(stops[(k + 1) % len(stops)]) - met
        if new != set(range(u, u + len(new))) or entered != set(range(u, u + len(entered))):
            return False
        met |= new
    return True


def _colex(n, k):
    return sorted(combinations(range(n), k), key=lambda c: c[::-1])


def _brute_force_walks(n, r, s, t, a0, good_only):
    """(stops, edges) of every closed t-walk from the a0-th s-set in colex
    order, or of every good one, in (next stop, edge) order: every stop
    sequence from a0 and every choice of linking edges, built from the
    vertex tuples and checked on sets, with no successor table."""
    stops, edges = _colex(n, s), _colex(n, r)
    found = []
    for rest in product(range(len(stops)), repeat=t - 1):
        seq = (a0,) + rest
        pairs = [(set(stops[a]), set(stops[b])) for a, b in zip(seq, rest + (a0,))]
        if any(x & y for x, y in pairs):
            continue
        choices = [[j for j, f in enumerate(edges) if x | y <= set(f)] for x, y in pairs]
        for es in product(*choices):
            if not (good_only and 1 in Counter(es).values()):
                found.append(([k for step in zip(rest, es) for k in step] + [es[-1]], seq, es))
    found.sort()
    return [(tuple(stops[a] for a in seq), tuple(edges[j] for j in es)) for _, seq, es in found]


def _searched(stops, edges, succ, t, a0, u, spare):
    """(stops, edges, u, weight) of every walk of the search, decoded to
    vertex tuples."""
    ssets = [tuple(x) for x in stops.tolist()]
    rsets = [tuple(x) for x in edges.tolist()]
    return [
        (tuple(ssets[a] for a in sidx), tuple(rsets[j] for j in eidx), u, ways)
        for sidx, eidx, u, ways in walks._walk_search(succ, walks._rule(stops, edges), t,
                                                      10**8, a0, u, spare)
    ]


@pytest.mark.parametrize("point", [(4, 2, 1, 4), (5, 3, 1, 4), (5, 2, 1, 5), (6, 4, 2, 4)],
                         ids=_point_id)
def test_walk_search_matches_the_brute_force_oracle(point):
    """With every label met (u = n) the search from each stop yields the
    oracle's walks, good ones with no spare and all of them with spare t,
    in the oracle's order and with weight 1; with u = s from stop 0 it
    yields the oracle's good walks that follow the labelling rule, on the
    tables over range(n) and over range(min(n, J)) alike."""
    n, r, s, t = point
    stops, edges, succ = walks._tables(n, r, s)
    for good_only in (True, False):
        for a0 in range(len(succ)):
            got = _searched(stops, edges, succ, t, a0, n, 0 if good_only else t)
            assert [w[:2] for w in got] == _brute_force_walks(n, r, s, t, a0, good_only)
            assert {w[2:] for w in got} <= {(n, 1)}
    ruled = [w for w in _brute_force_walks(n, r, s, t, 0, True)
             if _follows_the_labelling_rule(*w, s)]
    small = walks._tables(min(n, s + t // 2 * (r - s)), r, s)
    for tables in ((stops, edges, succ), small):
        assert [w[:2] for w in _searched(*tables, t, 0, s, 0)] == ruled


def _canonical_tables(n, r, s, t):
    """The tables on min(n, J) vertices, their rule, their masks and their
    rows as tuples."""
    stops, edges, succ = walks._tables(min(n, s + t // 2 * (r - s)), r, s)
    masks = walks._masks(stops).tolist(), walks._masks(edges).tolist()
    rows = [tuple(x) for x in stops.tolist()], [tuple(x) for x in edges.tolist()]
    return succ, walks._rule(stops, edges), masks, *rows


@pytest.mark.parametrize("point", _REPLAY_GRID, ids=_point_id)
def test_canonical_filter_keeps_the_walks_that_follow_the_rule(point):
    """The canonical search from stop 0 on min(n, J) vertices yields exactly
    the good walks of the unfiltered search that follow the labelling rule,
    checked set by set in plain Python."""
    n, r, s, t = point
    succ, rule, _, ssets, rsets = _canonical_tables(n, r, s, t)
    kept = {(sidx, eidx) for sidx, eidx, _, _ in
            walks._walk_search(succ, rule, t, 10**8, 0, s, 0)}
    ruled = {
        (sidx, eidx) for sidx, eidx, _, _ in walks._walk_search(succ, rule, t, 10**8, 0, n, 0)
        if _follows_the_labelling_rule([ssets[a] for a in sidx], [rsets[j] for j in eidx], s)
    }
    assert kept == ruled


def _weighed_walk_by_walk(n, r, s, t):
    """(stop ranks, edge ranks, u, weight) of every canonical walk, found
    by the unfiltered labelled search and the labelling rule, with u and
    the class weight re-derived walk by walk from the masks: at a new
    edge's first step, g its unmet labels and h the entered stop's, the
    weight takes C(u, g) C(g, h), u counted after the step."""
    succ, rule, (smask, emask), ssets, rsets = _canonical_tables(n, r, s, t)
    out = []
    for st, e, _, _ in walks._walk_search(succ, rule, t, 10**8, 0, n, 0):
        if not _follows_the_labelling_rule([ssets[a] for a in st], [rsets[j] for j in e], s):
            continue
        u, ways = s, 1
        for k, j in enumerate(e):
            if g := (emask[j] >> u).bit_length():
                h = (smask[st[k + 1]] >> u).bit_length()
                u += g
                ways *= binom(u, g) * binom(g, h)
        out.append((st, e, u, ways))
    return out


@pytest.mark.parametrize("point", _REPLAY_GRID + [(6, 3, 1, 6)], ids=_point_id)
def test_canonical_weights_match_the_walk_by_walk_count(point):
    """The canonical search's u and running weight are those re-derived
    walk by walk, and _walk_profiles sums them to the same dict in the same
    key order; the weights times C(n, j) count every good walk."""
    n, r, s, t = point
    want = _weighed_walk_by_walk(*point)
    succ, rule, _, _, _ = _canonical_tables(*point)
    got = list(walks._walk_search(succ, rule, t, 10**8, 0, s, 0))
    assert got == want
    keys = Counter()
    for _, e, u, ways in want:
        mult = Counter(e)
        keys[len(mult), u, tuple(sorted(mult.values()))] += ways * binom(n, u)
    profiles = walks._walk_profiles(n, r, s, t, None)
    assert profiles == keys
    assert list(profiles) == list(keys)
    good = sum(1 for _ in enumerate_closed_walks(*point, good_only=True))
    assert sum(ways * binom(n, u) for _, _, u, ways in want) == good


def test_census_at_n_10000_peak_memory():
    """The per-call step index of census(10^4, 4, 1, 6) stays small: 0.45 MB
    of tracemalloc peak before it, 0.89 MB with it."""
    gc.collect()
    tracemalloc.start()
    try:
        census(10**4, 4, 1, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("point", [(5, 3, 1, 4), (6, 4, 2, 4), (4, 2, 1, 4)], ids=_point_id)
def test_enumerated_walks_are_tuples_of_ints(point):
    """Searched (stop 0) and replayed walks alike hold tuples of plain ints,
    never lists or numpy scalars, and hash as the walk the constructor
    builds from them."""
    for good_only in (True, False):
        first = set()
        for w in enumerate_closed_walks(*point, good_only=good_only):
            first.add(w.stops[0])
            assert type(w.stops) is tuple and type(w.edges) is tuple
            for v in w.stops + w.edges:
                assert type(v) is tuple
                assert all(type(x) is int for x in v)
            assert hash(w) == hash(ClosedWalk(w.stops, w.edges))
        assert len(first) == binom(point[0], point[2])  # stop 0 and every replayed stop


@pytest.mark.parametrize("chunk", [1, 7])
def test_replay_chunk_boundaries_keep_the_walks(chunk, monkeypatch):
    points = [(5, 3, 1, 4), (6, 4, 2, 4), (7, 3, 1, 5)]
    want = [[(w.stops, w.edges) for w in enumerate_closed_walks(*p, good_only=True)]
            for p in points]
    monkeypatch.setattr(walks, "_REPLAY_CHUNK", chunk)
    got = [[(w.stops, w.edges) for w in enumerate_closed_walks(*p, good_only=True)]
           for p in points]
    assert got == want


def test_stop_0_past_the_replay_cap_is_searched_at_every_stop(monkeypatch):
    # stop 0 of (5, 3, 1, 4) has 1740/5 good walks of 8 ranks each, so a cap
    # of 2400 ranks is crossed partway through it
    want = _searched_from_every_stop(5, 3, 1, 4, True)
    for cap in (0, 8 * 300):
        monkeypatch.setattr(walks, "MAX_REPLAY_RANKS", cap)
        got = [(w.stops, w.edges) for w in enumerate_closed_walks(5, 3, 1, 4, good_only=True)]
        assert got == want
        with pytest.raises(TooLarge, match="visited 5219 states.* finished 4 of 5 roots"):
            list(enumerate_closed_walks(5, 3, 1, 4, good_only=True, budget=5219))


@pytest.mark.parametrize("size", [2, 4], ids=["stops", "edges"])
def test_relabelling_rejects_a_corrupt_rank_map(size, monkeypatch):
    """A stop or edge rank map that does not name the relabelled rows is a
    RuntimeError, in enumerate_closed_walks too; so is a stop whose
    relabelling is not a permutation."""
    stops, edges, _ = walks._tables(6, 4, 2)
    walks._relabelling(stops, edges, 5, 6)
    ranks = walks.subset_ranks

    def rolled(rows, n, k):  # the table's own (edges, n, s) call is left alone
        out = ranks(rows, n, k)
        return np.roll(out, 1, axis=0) if rows.shape[1] == k == size else out

    monkeypatch.setattr(walks, "subset_ranks", rolled)
    match = f"rank map to stop 5 does not name the relabelled {size}-sets"
    with pytest.raises(RuntimeError, match=match):
        walks._relabelling(stops, edges, 5, 6)
    with pytest.raises(RuntimeError, match="rank map to stop 1 does not name"):
        list(enumerate_closed_walks(6, 4, 2, 4, good_only=True))
    monkeypatch.undo()
    stops[5] = (1, 1)
    with pytest.raises(RuntimeError, match=r"stop 5 is not a permutation of range\(6\)"):
        walks._relabelling(stops, edges, 5, 6)


def _self_step(stops, edges, succ):
    _, j = succ[0][0]
    return 0, j  # stop 0 to itself, over an edge that holds it


def _outside_step(stops, edges, succ):
    b, _ = succ[0][0]
    return b, next(k for k, f in enumerate(edges.tolist()) if stops[b][0] not in f)


@pytest.mark.parametrize("step", [_self_step, _outside_step], ids=["self", "outside"])
def test_table_check_rejects_a_corrupt_table(step, monkeypatch):
    match = "not disjoint or not inside the edge"
    stops, edges, succ = walks._tables(5, 3, 1)
    row = (step(stops, edges, succ),) + succ[0][1:]
    with pytest.raises(RuntimeError, match=match):
        walks._check_tables(stops, edges, (row,) + succ[1:], 3, 1)
    walks._check_tables(stops, edges, succ, 3, 1)
    unsorted = edges.copy()
    unsorted[0] = (2, 1, 0)
    with pytest.raises(RuntimeError, match=r"\(2, 1, 0\), not a sorted 3-set"):
        walks._check_tables(stops, unsorted, succ, 3, 1)
    stops, edges, succ = walks._tables(6, 4, 2)
    stops[0] = (1, 0)
    with pytest.raises(RuntimeError, match=r"\(1, 0\), not a sorted 2-set"):
        walks._check_tables(stops, edges, succ, 4, 2)
    # a table built wrong is refused by _tables itself: here every step
    # goes from a stop to itself
    ca, _ = combin._disjoint_columns(3, 1)
    monkeypatch.setattr(walks, "_disjoint_columns", lambda r, s: (ca, ca))
    with pytest.raises(RuntimeError, match=match):
        walks._tables(5, 3, 1)


def _old_stop_degree_check(w):
    """stop_degree_check as it was first written, with explicit degree
    counts and a vertex-by-vertex overlap test: the oracle."""
    if not w.is_good:
        raise NotGood("walk has a single-occurrence edge")
    s = len(w.stops[0])
    r = len(w.edges[0])
    order = w.distinct_edges()
    i = len(order)
    degs = {}
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
    return walks.StopDegreeReport(lhs, rhs, holds, i, j)


def _same_report(w):
    got, want = stop_degree_check(w), _old_stop_degree_check(w)
    assert got == want
    assert math.copysign(1, got.rhs) == math.copysign(1, want.rhs)


@pytest.mark.parametrize("point", _WALK_GRID, ids=_point_id)
def test_stop_degree_check_matches_oracle(point):
    seen = set()
    for w in enumerate_closed_walks(*point, good_only=True):
        if w.edges not in seen:
            seen.add(w.edges)
            _same_report(w)


def test_stop_degree_check_matches_oracle_by_hand():
    a, b = (0, 1, 2), (0, 3, 4)
    triple = ClosedWalk(((0,), (1,), (2,), (0,), (3,), (4,)), (a, a, a, b, b, b))
    quad = ClosedWalk(((0,), (1,), (0,), (1,)), (a, a, a, a))
    for w in (PAPER_WALK, STAR_WALK, triple, quad):
        _same_report(w)
    assert max(triple.edge_multiplicities().values()) == 3
    assert max(quad.edge_multiplicities().values()) == 4


def _random_dyck(k, rng):
    out, opens = [], 0
    for pos in range(2 * k):
        closes = pos - opens
        if opens < k and (opens == closes or rng.random() < 0.5):
            out.append("(")
            opens += 1
        else:
            out.append(")")
    return "".join(out)


def _dyck_walk(stops, extras, code):
    """The tree walk of a Dyck word from stop 0: the i-th '(' climbs to
    stop i over a new edge made of the stop it leaves, stop i and
    extras[i - 1], and each ')' walks back over the edge of the last climb
    still open.  The ClosedWalk constructor checks every walk axiom."""
    stops = [tuple(sorted(v)) for v in stops]
    extras = [tuple(sorted(v)) for v in extras]
    walk_stops, walk_edges, open_climbs = [], [], []
    at, new = 0, 1
    for ch in code:
        walk_stops.append(stops[at])
        if ch == "(":
            f = tuple(sorted(stops[at] + stops[new] + extras[new - 1]))
            open_climbs.append((at, f))
            at, new = new, new + 1
        else:
            at, f = open_climbs.pop()
        walk_edges.append(f)
    return ClosedWalk(tuple(walk_stops), tuple(walk_edges))


def _tree_walk(r, s, k, rng):
    """A tree walk of k pairs (length 2k) on the vertices
    range((k + 1) s + k (r - 2s)) in shuffled order."""
    e = r - 2 * s
    verts = list(range((k + 1) * s + k * e))
    rng.shuffle(verts)
    stops = [verts[i * s:(i + 1) * s] for i in range(k + 1)]
    rest = verts[(k + 1) * s:]
    extras = [rest[i * e:(i + 1) * e] for i in range(k)]
    return _dyck_walk(stops, extras, _random_dyck(k, rng))


def _bounced(w, i):
    """w with one more back-and-forth over its edge i, inserted at step i."""
    nxt = w.stops[(i + 1) % w.length]
    return ClosedWalk(w.stops[:i] + (w.stops[i], nxt) + w.stops[i:],
                      w.edges[:i] + (w.edges[i],) * 2 + w.edges[i:])


def _there_and_back(n, r, s, steps, rng):
    """A random path of the given steps on range(n), walked out and back:
    a good closed walk of length 2 steps whose edges share vertices."""
    path = [tuple(range(s))]
    hops = []
    for _ in range(steps):
        a = path[-1]
        b = tuple(sorted(rng.sample([v for v in range(n) if v not in a], s)))
        rest = [v for v in range(n) if v not in a + b]
        hops.append(tuple(sorted(a + b + tuple(rng.sample(rest, r - 2 * s)))))
        path.append(b)
    return ClosedWalk(tuple(path + path[-2:0:-1]), tuple(hops + hops[::-1]))


@pytest.mark.parametrize("r, s", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)])
def test_stop_degree_check_matches_oracle_on_long_walks(r, s):
    """Past the t <= 5 grid: tree walks up to 200 pairs (t = 400), the same
    walked twice and with bounces added ('*' multiplicities), and long
    there-and-back walks whose edges overlap, so that rhs > 0."""
    rng = random.Random(r * 10 + s)
    gaps = set()
    for k in (1, 2, 3, 10, 50, 200):
        w = _tree_walk(r, s, k, rng)
        assert w.length == 2 * k
        twice = ClosedWalk(w.stops * 2, w.edges * 2)
        bounced = _bounced(_bounced(w, 0), rng.randrange(w.length))
        for v in (w, twice, bounced):
            _same_report(v)
        assert "*" in code_from_walk(twice) + code_from_walk(bounced)
    for steps in (1, 5, 40, 200):
        w = _there_and_back(2 * r + 3, r, s, steps, rng)
        _same_report(w)
        gaps.add(stop_degree_check(w).rhs > 0)
    assert gaps == {False, True}


def test_stop_degree_check_rejects_non_good_long_walk():
    """The only single-occurrence edge is the last distinct one, 403 steps
    in: a count that stops early, or looks only at the first edges, misses
    it."""
    w = _tree_walk(3, 1, 200, random.Random(7))
    a, b, c = 401, 402, 403  # unused by the tree walk on range(401)
    first = w.stops[0][0]
    tail = ClosedWalk(w.stops + ((first,), (a,), (b,)),
                      w.edges + (tuple(sorted((first, a, b))),) * 2
                      + (tuple(sorted((first, b, c))),))
    mult = tail.edge_multiplicities()
    assert list(mult.values()).count(1) == 1 and mult[tail.distinct_edges()[-1]] == 1
    with pytest.raises(NotGood):
        stop_degree_check(tail)
    with pytest.raises(NotGood):
        _old_stop_degree_check(tail)


def test_stop_degree_check_rejects_non_good():
    bad = 0
    for point in [(5, 2, 1, 4), (5, 3, 1, 4), (6, 4, 2, 3)]:
        for w in enumerate_closed_walks(*point):
            if not w.is_good:
                bad += 1
                with pytest.raises(NotGood):
                    stop_degree_check(w)
    assert bad == 120 + 19320 + 90  # all walks less the good ones, per point


def _checked_twice_against_the_oracle(walk_iter):
    """Check every walk twice, the second time from its report slot when
    it has one: each report equals the oracle's on a fresh walk, which has
    none, the sign of rhs included; a walk that is not good raises NotGood
    both times.  Returns the reports."""
    reports = []
    for w in walk_iter:
        fresh = ClosedWalk(w.stops, w.edges)
        if not fresh.is_good:
            for _ in range(2):
                with pytest.raises(NotGood):
                    stop_degree_check(w)
            continue
        want = _old_stop_degree_check(fresh)
        for _ in range(2):
            got = stop_degree_check(w)
            assert got == want
            assert math.copysign(1, got.rhs) == math.copysign(1, want.rhs)
        reports.append(got)
    return reports


@pytest.mark.parametrize("point", _REPLAY_GRID, ids=_point_id)
def test_report_slot_gives_each_walk_the_oracle_report(point):
    """A replayed walk shares its report slot with the stop-0 walk it
    relabels; the shared report is the one each walk's own check gives."""
    n, _, _, t = point
    for good_only in (True, False) if n + t <= 9 else (True,):
        _checked_twice_against_the_oracle(enumerate_closed_walks(*point, good_only=good_only))


def test_report_slot_checks_each_class_once():
    """At (10, 4, 2, 4) stop 0 has 1540 good walks, one per class, and the
    69300 walks of one call share at most that many report objects."""
    reports = _checked_twice_against_the_oracle(
        enumerate_closed_walks(10, 4, 2, 4, good_only=True))
    assert len(reports) == 69300
    assert len({id(rep) for rep in reports}) <= 1540


@pytest.mark.parametrize("cap", [0, 8 * 300])
def test_report_slot_past_the_replay_cap(cap, monkeypatch):
    """No stop-0 walk kept (cap 0), or the cap crossed partway through stop
    0: every stop is searched and every report is still the oracle's."""
    monkeypatch.setattr(walks, "MAX_REPLAY_RANKS", cap)
    reports = _checked_twice_against_the_oracle(
        enumerate_closed_walks(5, 3, 1, 4, good_only=True))
    assert len(reports) == 1740


def test_report_slot_survives_copy_and_pickle():
    """An enumerated walk, from stop 0 or replayed, checked or not, copies
    and pickles to a walk equal to a fresh one, with its hash, repr, fields
    and report, and pickles to the same bytes: the call's report list is
    left behind.  The report itself stays frozen and copies and pickles."""
    every = list(enumerate_closed_walks(5, 3, 1, 4, good_only=True))
    for w, checked in product((every[0], every[-1]), (False, True)):
        if checked:
            stop_degree_check(w)
        fresh = ClosedWalk(w.stops, w.edges)
        want = stop_degree_check(fresh)
        assert pickle.dumps(w) == pickle.dumps(fresh)
        for twin in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert twin == fresh and hash(twin) == hash(fresh)
            assert repr(twin) == repr(fresh)
            assert dataclasses.asdict(twin) == {"stops": w.stops, "edges": w.edges}
            assert stop_degree_check(twin) == want
    rep = stop_degree_check(every[0])
    for twin in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert twin == rep and type(twin) is walks.StopDegreeReport
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.lhs = 0
    assert [f.name for f in dataclasses.fields(rep)] == [
        "lhs", "rhs", "holds", "distinct_edges", "distinct_vertices"]


def test_code_from_walk_example():
    assert code_from_walk(PAPER_WALK) == "((()*))*"
    assert stop_degree_check(PAPER_WALK).holds


def test_code_from_walk_rejects_non_good():
    w = ClosedWalk(((0,), (1,)), ((0, 1, 2), (0, 1, 3)))
    assert not w.is_good
    with pytest.raises(NotGood):
        code_from_walk(w)


def test_partition_code_walk_roundtrip_exhaustive():
    """The tree walks of 2 pairs, every good 4-walk with 2 distinct edges on
    (6, 2, 1), have exactly the two Dyck words of length 4 as codes."""
    codes = Counter(
        code_from_walk(w) for w in enumerate_closed_walks(6, 2, 1, 4, good_only=True)
        if len(w.distinct_edges()) == 2)
    assert set(codes) == {"(())", "()()"}
    assert sum(codes.values()) == tree_walk_count(6, 2, 1, 2)


def _dyck_words(k):
    if k == 0:
        return [""]
    out = []
    for inner in range(k):
        for a in _dyck_words(inner):
            for b in _dyck_words(k - 1 - inner):
                out.append("(" + a + ")" + b)
    return out


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_code_roundtrip_random_trees(data):
    """The tree walk built from a drawn Dyck word has that word as its
    code, and meets its stops in the order given."""
    s = data.draw(st.integers(1, 2))
    extra = data.draw(st.integers(0, 2))
    r = 2 * s + extra
    k = data.draw(st.integers(1, 3))
    m = (k + 1) * s + k * extra
    pool = data.draw(st.permutations(range(m + 3)))
    verts = list(pool[:m])
    stops = [tuple(sorted(verts[i * s : (i + 1) * s])) for i in range(k + 1)]
    rest = verts[(k + 1) * s :]
    extras = [
        tuple(sorted(rest[i * extra : (i + 1) * extra])) for i in range(k)
    ]
    code = data.draw(st.sampled_from(_dyck_words(k)))
    w = _dyck_walk(stops, extras, code)
    assert w.length == 2 * k
    assert code_from_walk(w) == code
    assert tuple(dict.fromkeys(w.stops)) == tuple(stops)


def test_tree_count_formula_agrees_with_codes():
    """Count tree walks as (vertex choices) x (partitions) x (Dyck words)."""
    n, r, s, k = 6, 3, 1, 2
    m = s + k * (r - s)
    want = (
        binom(n, m)
        * math.factorial(m)
        // (math.factorial(s) ** (k + 1) * math.factorial(r - 2 * s) ** k)
        * catalan(k)
    )
    assert tree_walk_count(n, r, s, k) == want
