"""Closed walk enumeration, censuses, moments, and the occurrence code."""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    BadCode,
    BadParams,
    ClosedWalk,
    NotGood,
    NotLoose,
    TooLarge,
    WalkCode,
    binom,
    canonical_partition,
    catalan,
    census,
    census_upper_bound,
    code_from_walk,
    edge_moment,
    enumerate_closed_walks,
    expected_trace,
    stop_degree_check,
    tree_walk_count,
    walk_from_code,
)
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


_WALK_ENTRIES = [
    lambda n, r, s, t: list(enumerate_closed_walks(n, r, s, t)),
    lambda n, r, s, t: census(n, r, s, t),
    lambda n, r, s, t: expected_trace(n, r, s, t, 0.5),
]


@pytest.mark.parametrize("entry", _WALK_ENTRIES, ids=["enumerate", "census", "trace"])
def test_bad_walk_params_rejected_before_tables(entry, monkeypatch):
    """Every public walk function rejects a non-loose s, then t < 1, before
    it builds any walk table."""

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


def test_stop_degree_check_star_revisit():
    # leaves and re-enters the same stop over three different edges; the
    # center has degree 3 and must be discounted once per entering edge,
    # a single capped discount would leave lhs = 1 over an rhs of 0
    star = ClosedWalk(
        ((1,), (0,), (3,), (0,), (5,), (0,)),
        ((0, 1, 2), (0, 3, 4), (0, 3, 4), (0, 5, 6), (0, 5, 6), (0, 1, 2)),
    )
    rep = stop_degree_check(star)
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


def test_code_from_walk_example():
    assert code_from_walk(PAPER_WALK).symbols == "((()*))*"
    assert stop_degree_check(PAPER_WALK).holds


def test_code_from_walk_rejects_non_good():
    w = ClosedWalk(((0,), (1,)), ((0, 1, 2), (0, 1, 3)))
    assert not w.is_good
    with pytest.raises(NotGood):
        code_from_walk(w)


def test_walk_code_validation():
    WalkCode("()")
    WalkCode("(())()")
    for bad in [")(", "(*", "((", "(()", "()*(", "x)", "("]:
        with pytest.raises(BadCode):
            WalkCode(bad)


def test_walk_from_code_example():
    """k=3, code (())(): the walk climbs two stops, returns, then a leaf."""
    w = walk_from_code(
        [(0,), (1,), (2,), (3,)], [(4,), (5,), (6,)], "(())()"
    )
    f1, f2, f3 = (0, 1, 4), (1, 2, 5), (0, 3, 6)
    assert w.stops == ((0,), (1,), (2,), (1,), (0,), (3,))
    assert w.edges == (f1, f2, f2, f1, f3, f3)


def test_partition_code_walk_roundtrip_exhaustive():
    """Every tree-shaped walk survives decompose + rebuild unchanged."""
    seen_codes = set()
    for w in enumerate_closed_walks(6, 2, 1, 4, good_only=True):
        if len(w.distinct_edges()) != 2:
            continue
        stops, extras = canonical_partition(w)
        code = code_from_walk(w)
        seen_codes.add(code.symbols)
        back = walk_from_code(stops, extras, code)
        assert back == w
    assert seen_codes == {"(())", "()()"}  # the two Dyck words for k=2


def test_canonical_partition_rejects_non_tree():
    with pytest.raises(NotGood):
        canonical_partition(PAPER_WALK)  # eight steps, only three edges
    w = ClosedWalk(((0,), (1,), (0,), (1,)), ((0, 1),) * 4)
    with pytest.raises(NotGood):
        canonical_partition(w)  # one edge used four times, not a 2-tree


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
    w = walk_from_code(stops, extras, code)
    assert w.length == 2 * k
    assert code_from_walk(w).symbols == code
    got_stops, got_extras = canonical_partition(w)
    assert got_stops == tuple(stops)
    assert got_extras == tuple(extras)


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
