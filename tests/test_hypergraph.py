"""Hypergraph model, random sampling, degrees, and the text format."""

import hashlib
import importlib
import io
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    BadParams,
    BadRank,
    BadVertex,
    Hypergraph,
    RandomModel,
    StopTooLarge,
    TooLarge,
    as_sset,
    binom,
    complete,
    degree_stats,
    expected_stop_degree,
    hypergraph,
    read_hypergraph,
    sample,
    sset_rank,
    write_hypergraph,
)
from hyperlap.combin import colex_unrank


def test_builder_canonicalizes():
    h = hypergraph(5, 3, [[2, 0, 1], (4, 3, 2)])
    assert h.edges == {(0, 1, 2), (2, 3, 4)}
    assert h.num_edges == 2


def test_builder_rejects_bad_edges():
    with pytest.raises(BadVertex):
        hypergraph(5, 3, [[0, 1, 5]])
    with pytest.raises(BadVertex):
        hypergraph(5, 3, [[0, 1, 1]])
    with pytest.raises(BadVertex):
        hypergraph(5, 3, [[0, 1]])
    with pytest.raises(BadVertex):
        hypergraph(5, 2, [(0, "a")])
    with pytest.raises(BadVertex, match="vertex True is not an integer"):
        hypergraph(5, 2, [(True, 3)])  # a bool is not a vertex id
    with pytest.raises(BadVertex):
        hypergraph(5, 2, [3])
    # the message names the vertices of an edge that can be read only once
    with pytest.raises(BadVertex, match=r"edge \(0, 1\) does not have 3 vertices"):
        hypergraph(5, 3, [iter([1, 0])])


@pytest.mark.parametrize("make", [
    lambda: Hypergraph(5.5, 2, []),
    lambda: Hypergraph(5, 2.0, []),
    lambda: Hypergraph("5", 2, []),
    lambda: hypergraph(5, 2.0, []),
    lambda: RandomModel(5.0, 2, 0.5, 0),
    lambda: RandomModel(5, 2.0, 0.5, 0),
    lambda: RandomModel(5, 2, 0.5, 1.5),
], ids=["n float", "r float", "n str", "builder r float", "model n float", "model r float", "seed float"])
def test_non_integer_sizes_are_bad_params(make):
    with pytest.raises(BadParams, match="must be an integer"):
        make()


def test_numpy_int_sizes_pass():
    h = Hypergraph(np.int64(5), np.int32(2), np.array([[0, 1]]))
    assert (h.n, h.r) == (5, 2) and type(h.n) is int
    model = RandomModel(np.int64(6), np.uint8(3), 0.5, np.uint64(7))
    assert sample(model) == sample(RandomModel(6, 3, 0.5, 7))


# a vertex id recast as another type: numpy ints keep it an integer id,
# the rest make it something as_sset refuses
_RECAST = (int, int, int, np.int64, np.int32, np.uint64, bool, float, str)


def _canonical_by_as_sset(n: int, r: int, edges: frozenset) -> frozenset | None:
    """The per-edge definition: what as_sset makes of each edge, or None if
    it refuses one or makes one of another size than r."""
    try:
        canon = frozenset(as_sset(e, n) for e in edges)
    except BadVertex:
        return None
    return canon if all(len(e) == r for e in canon) else None


@st.composite
def _edge_sets(draw):
    r = draw(st.integers(1, 4))
    clean = draw(st.booleans())  # half the examples hold only canonical edges
    n = draw(st.integers(r if clean else 0, 7))
    edges = set()
    for _ in range(draw(st.integers(0, 4))):
        if clean:
            ids = sorted(draw(st.permutations(range(n)))[:r])
        else:
            size = draw(st.sampled_from([r, r, r, r - 1, r + 1]))
            lo, hi = (-1, n + 1) if draw(st.integers(0, 3)) == 0 else (0, max(n - 1, 0))
            ids = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
            if draw(st.integers(0, 3)):
                ids = sorted(set(ids))
        kinds = st.sampled_from(_RECAST[:6] if clean else _RECAST)
        cast = draw(st.lists(kinds, min_size=len(ids), max_size=len(ids)))
        # np.uint64 cannot hold -1, and bool keeps only 0 and 1 apart
        edges.add(tuple(
            v if (k is np.uint64 and v < 0) or (k is bool and v > 1) else k(v)
            for v, k in zip(ids, cast)
        ))
    if not clean:
        edges |= draw(st.sets(st.sampled_from(["ab", 3, frozenset({0, 1})]), max_size=1))
    return n, r, frozenset(edges)


@given(_edge_sets())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_edge_check_matches_as_sset(args):
    """hypergraph() accepts exactly the edges that as_sset accepts at size
    r, and holds what as_sset makes of them; ragged, unsorted, float,
    string, bool, numpy and out-of-range ids included."""
    n, r, edges = args
    want = _canonical_by_as_sset(n, r, edges)
    if want is not None:
        assert hypergraph(n, r, edges).edges == want
    else:
        with pytest.raises(BadVertex):
            hypergraph(n, r, edges)


@pytest.mark.parametrize("edges", [[(0, 1)], frozenset({(0, 1)}), [[0, 1]]],
                         ids=["tuples", "frozenset", "lists"])
def test_constructor_takes_only_the_array(edges):
    """Edges in any other form go through hypergraph(), which the refusal names."""
    with pytest.raises(BadVertex, match=r"canonical \(m, 2\) int64 array.*hypergraph\(\)"):
        Hypergraph(5, 2, edges)
    assert hypergraph(5, 2, edges) == Hypergraph(5, 2, np.array([[0, 1]]))


def test_edge_check_is_exact_for_large_mixed_ids():
    # numpy widens np.uint64 with a Python int to float64, where these are equal
    edge = (np.uint64(2**53), 2**53 + 1)
    assert hypergraph(2**60, 2, [edge]).num_edges == 1
    with pytest.raises(BadVertex):
        hypergraph(2**60, 2, [(np.uint64(2**53 + 1), 2**53 + 1)])


def test_edge_array_is_the_edges_read_only():
    h = sample(RandomModel(9, 3, 0.4, 2))
    arr = h._edge_array
    assert arr.dtype == np.int64 and arr.shape == (h.num_edges, 3)
    assert set(map(tuple, arr.tolist())) == h.edges
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 0
    same = hypergraph(9, 3, sorted(h.edges, reverse=True))
    assert same == h and hash(same) == hash(h)
    assert "_edge_array" not in repr(h)
    assert hypergraph(9, 3, [])._edge_array.shape == (0, 3)


def test_edge_array_rejects_ids_past_int64():
    edge = (np.uint64(2**63), np.uint64(2**63 + 1))
    with pytest.raises(BadVertex):
        hypergraph(2**64, 2, [edge])
    assert hypergraph(2**64, 2, [(0, 2**63 - 1)]).num_edges == 1


# canonical (m, 3) arrays over range(5) but one fault each
_BAD_ARRAYS = {
    "not colex": np.array([[0, 1, 3], [0, 1, 2]]),
    "repeated row": np.array([[0, 1, 2], [0, 1, 2]]),
    "id out of range": np.array([[0, 1, 2], [1, 2, 5]]),
    "negative id": np.array([[-1, 1, 2]]),
    "decreasing row": np.array([[0, 2, 1]]),
    "int32": np.array([[0, 1, 2]], dtype=np.int32),
    "float": np.array([[0.0, 1.0, 2.0]]),
    "width 2": np.array([[0, 1]]),
    "one row, flat": np.array([0, 1, 2]),
}


@pytest.mark.parametrize("fault", list(_BAD_ARRAYS))
def test_array_check_refuses(fault):
    with pytest.raises(BadVertex):
        Hypergraph(5, 3, _BAD_ARRAYS[fault])
    # the same array made read-only, which is taken without a copy
    arr = _BAD_ARRAYS[fault].copy()
    arr.flags.writeable = False
    with pytest.raises(BadVertex):
        Hypergraph(5, 3, arr)


@pytest.mark.parametrize("rows, match", [
    ([[0, 1, 2], [0, 2, 2], [1, 0, 3]], r"^edge \(0, 2, 2\) is not increasing$"),
    ([[0, 1, 3], [0, 1, 2], [0, 2, 4], [1, 2, 3]],
     r"^edge \(0, 1, 2\) does not follow \(0, 1, 3\) in strict colex order$"),
    ([[0, 1, 2], [0, 1, 2]],
     r"^edge \(0, 1, 2\) does not follow \(0, 1, 2\) in strict colex order$"),
], ids=["two non-increasing rows", "two colex inversions", "equal rows"])
def test_array_check_names_the_first_bad_row(rows, match):
    with pytest.raises(BadVertex, match=match):
        Hypergraph(5, 3, np.array(rows))


def _first_colex_fault(arr):
    """The argmax formulation of the colex test: each pair of neighbours
    is compared at the last column where it differs, a repeated row at
    column r - 1; the index of the first bad pair, or None."""
    a, b = arr[:-1], arr[1:]
    last = arr.shape[1] - 1 - (a != b)[:, ::-1].argmax(axis=1)
    rows = np.arange(len(a))
    bad = a[rows, last] >= b[rows, last]
    return int(bad.argmax()) if bad.any() else None


def _colex_corruptions(arr, rng):
    """arr with two neighbours swapped, a row repeated, and a pair that ties
    on every column but 0 put out of order."""
    k = int(rng.integers(len(arr) - 1))
    swapped = arr.copy()
    swapped[[k, k + 1]] = swapped[[k + 1, k]]
    yield swapped
    yield np.insert(arr, k, arr[k], axis=0)
    ties = np.flatnonzero((arr[:-1, 1:] == arr[1:, 1:]).all(axis=1))
    k = int(rng.choice(ties))
    tied = arr.copy()
    tied[[k, k + 1]] = tied[[k + 1, k]]
    yield tied


@pytest.mark.parametrize("m", [RandomModel(12, 3, 0.5, 0), RandomModel(30, 3, 0.5, 1),
                               RandomModel(14, 4, 0.3, 2), RandomModel(10, 2, 0.6, 3),
                               RandomModel(9, 5, 0.4, 4)], ids=str)
def test_colex_check_matches_the_argmax_oracle(m):
    arr = sample(m)._edge_array
    assert _first_colex_fault(arr) is None
    Hypergraph(m.n, m.r, arr)
    for bad in _colex_corruptions(arr, np.random.default_rng(m.seed)):
        k = _first_colex_fault(bad)
        assert k is not None
        msg = (f"edge {tuple(bad[k + 1].tolist())} does not follow "
               f"{tuple(bad[k].tolist())} in strict colex order")
        with pytest.raises(BadVertex) as exc:
            Hypergraph(m.n, m.r, bad)
        assert str(exc.value) == msg


def test_array_is_copied_unless_read_only():
    arr = np.array([[0, 1, 2], [0, 1, 3]])
    h = Hypergraph(5, 3, arr)
    arr[0, 0] = 4  # the caller's later write does not reach h
    assert h.edges == {(0, 1, 2), (0, 1, 3)} and arr.flags.writeable
    assert Hypergraph(5, 3, np.zeros((0, 3), dtype=np.int64)).num_edges == 0


def test_array_order_is_colex():
    h = hypergraph(5, 3, [(2, 3, 4), (0, 1, 4), (0, 1, 2), (0, 2, 3)])
    assert h._edge_array.tolist() == [[0, 1, 2], [0, 2, 3], [0, 1, 4], [2, 3, 4]]
    assert h == Hypergraph(5, 3, h._edge_array.copy())
    assert h != hypergraph(6, 3, h.edges) and h != hypergraph(5, 3, [(0, 1, 2)])


_MODELS = [RandomModel(9, 3, 0.4, 0), RandomModel(10, 4, 0.1, 7),
           RandomModel(8, 5, 0.7, 2**63 + 5), RandomModel(6, 6, 0.5, 1)]


@pytest.mark.parametrize("m", _MODELS, ids=str)
def test_sample_equals_its_edges_rebuilt(m):
    h = sample(m)
    again = hypergraph(m.n, m.r, reversed(sorted(h.edges)))
    assert h == again and hash(h) == hash(again)


def test_complete_counts():
    assert complete(4, 2).num_edges == 6
    assert complete(6, 3).num_edges == 20
    assert complete(np.int64(4), np.int64(2)) == complete(4, 2)
    for n, r in [(3, 4), (5, 0), (-1, 2)]:  # r outside [1, n]
        with pytest.raises(BadRank):
            complete(n, r)


@pytest.mark.parametrize("n, r, message", [(5.0, 2, "n must be an integer, got 5.0"),
                                          (5, 2.0, "r must be an integer, got 2.0")])
def test_complete_sizes_must_be_integers(n, r, message):
    with pytest.raises(BadParams, match=message):
        complete(n, r)


def test_complete_degrees():
    h = complete(10, 4)
    assert degree_stats(h, 2)[sset_rank((0, 1), 10)] == binom(8, 2)
    assert degree_stats(h, 1)[sset_rank((7,), 10)] == binom(9, 3)


def test_sample_deterministic():
    m = RandomModel(6, 3, 0.5, 42)
    assert sample(m).edges == sample(m).edges


@pytest.mark.parametrize("block", [1, 7, 64])
def test_sample_blocks_match_one_draw(block, monkeypatch):
    """Blocked draws keep the same edges as one draw over all candidates."""
    hg = importlib.import_module("hyperlap.hypergraph")
    models = [RandomModel(9, 3, 0.4, 0), RandomModel(10, 4, 0.1, 7),
              RandomModel(8, 5, 0.7, 2**63 + 5), RandomModel(6, 6, 0.5, 1)]
    want = []
    for m in models:
        draws = np.random.default_rng(m.seed).random(binom(m.n, m.r))
        edges = map(tuple, colex_unrank(np.arange(binom(m.n, m.r)), m.n, m.r).tolist())
        want.append({e for e, u in zip(edges, draws) if u < m.p})
    monkeypatch.setattr(hg, "_DRAW_BLOCK", block)
    assert [set(sample(m).edges) for m in models] == want


# (n, r, p, seed), with the lone candidate edge kept, no edge kept, r = 1,
# the README's (30, 3, 0.5) and a draw past one _DRAW_BLOCK of candidates
_TRUSTED_GRID = [(12, 3, 0.5, 0), (30, 3, 0.5, 1), (14, 4, 0.3, 2), (10, 2, 0.6, 3),
                 (9, 5, 0.4, 4), (6, 6, 0.5, 2), (7, 3, 0.001, 0), (8, 1, 0.5, 0),
                 (40, 3, 0.5, 7), (24, 6, 0.002, 5), (200, 3, 0.01, 11)]


@pytest.mark.parametrize("n, r, p, seed", _TRUSTED_GRID)
def test_sample_output_passes_the_array_check(n, r, p, seed):
    """sample builds its hypergraph without _check_array, on the strength of
    colex_unrank giving the canonical array for increasing ranks: the check
    passes on every array it hands over, and the checked constructor builds
    an equal hypergraph from a copy."""
    hg = importlib.import_module("hyperlap.hypergraph")
    h = sample(RandomModel(n, r, p, seed))
    arr = h._edge_array
    hg._check_array(arr, n, r)
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert type(h.n) is int and type(h.r) is int and (h.n, h.r) == (n, r)
    assert h == Hypergraph(n, r, arr.copy()) and hash(h) == hash(Hypergraph(n, r, arr.copy()))


@pytest.mark.parametrize("budget", [1e3, "x", Fraction(10**4)])
def test_sample_budget_must_be_an_integer(budget):
    with pytest.raises(BadParams, match=re.escape(f"budget must be an integer, got {budget!r}")):
        sample(RandomModel(6, 3, 0.5, 0), budget=budget)
    with pytest.raises(BadParams, match="budget must be positive, got 0"):
        sample(RandomModel(6, 3, 0.5, 0), budget=0)


def test_sample_respects_budget():
    with pytest.raises(TooLarge, match=r"C\(12, 6\) candidate edges exceed budget 100"):
        sample(RandomModel(12, 6, 0.5, 0), budget=100)
    # C(100000, 3000) has about 5,850 digits, too many to write out as a str
    with pytest.raises(TooLarge, match=r"C\(100000, 3000\) candidate edges"):
        sample(RandomModel(100000, 3000, 0.5, 0))


def test_sample_near_one_is_complete():
    # p is forced inside (0,1); 1 - 1e-12 accepts every draw at this scale
    h = sample(RandomModel(7, 3, 1 - 1e-12, 3))
    assert h.edges == complete(7, 3).edges


def test_model_validation():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(BadParams):
            RandomModel(6, 3, bad, 0)
    with pytest.raises(BadParams):
        RandomModel(2, 3, 0.5, 0)


def test_sample_mean_edge_count():
    """Binomial law: mean |E| over many seeds within 3 sigma."""
    n, r, p = 10, 3, 0.3
    count = binom(n, r)
    sizes = [sample(RandomModel(n, r, p, k)).num_edges for k in range(1000)]
    mean = np.mean(sizes)
    sigma = np.sqrt(count * p * (1 - p))
    assert abs(mean - p * count) <= 3 * sigma / np.sqrt(1000)


def test_expected_stop_degree():
    assert expected_stop_degree(30, 3, 1, 0.5) == binom(29, 2) * 0.5


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
def test_expected_stop_degree_refuses_a_bad_probability(p):
    """p past [0, 1] gave a degree past the edge count, and NaN gave nan;
    the size checks still come first."""
    with pytest.raises(BadParams, match=f"^probability must lie in \\[0, 1\\], got {p}$"):
        expected_stop_degree(10, 3, 1, p)
    with pytest.raises(BadParams, match="^n must be an integer, got 10.0$"):
        expected_stop_degree(10.0, 3, 1, p)
    with pytest.raises(StopTooLarge):
        expected_stop_degree(10, 3, 4, p)


def test_expected_stop_degree_past_the_float_range():
    with pytest.raises(TooLarge, match=r"C\(999999, 99\) exceeds the float range"):
        expected_stop_degree(10**6, 100, 1, 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: expected_stop_degree(10.0, 4, 2, 0.5), "n must be an integer, got 10.0"),
    (lambda: expected_stop_degree(10, 4.0, 2, 0.5), "r must be an integer, got 4.0"),
    (lambda: expected_stop_degree(10, 4, 2.0, 0.5), "s must be an integer, got 2.0"),
    (lambda: degree_stats(complete(5, 3), 1.0), "s must be an integer, got 1.0"),
], ids=["expected_stop_degree_n", "expected_stop_degree_r", "expected_stop_degree_s",
        "degree_stats"])
def test_degree_sizes_must_be_integers(call, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        call()


def test_degree_stats_complete():
    degs = degree_stats(complete(8, 4), 2)
    assert degs.dtype == np.int64 and degs.shape == (binom(8, 2),)
    assert (degs == binom(6, 2)).all()


def test_degree_stats_empirical_center():
    h = hypergraph(5, 2, [[0, 1], [1, 2], [2, 3]])
    assert degree_stats(h, 1).tolist() == [1, 2, 2, 1, 0]
    assert degree_stats(hypergraph(5, 2, []), 1).tolist() == [0] * 5


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_double_counting(data):
    """Sum of s-set degrees = |E| * C(r,s) for every hypergraph."""
    n = data.draw(st.integers(3, 8))
    r = data.draw(st.integers(2, min(4, n)))
    all_edges = list(map(tuple, colex_unrank(np.arange(binom(n, r)), n, r).tolist()))
    chosen = data.draw(st.sets(st.sampled_from(all_edges), max_size=len(all_edges)))
    h = hypergraph(n, r, chosen)
    for s in range(1, r):
        assert int(degree_stats(h, s).sum()) == h.num_edges * binom(r, s)


def test_text_roundtrip():
    h = sample(RandomModel(7, 3, 0.4, 9))
    buf = io.StringIO()
    write_hypergraph(h, buf)
    buf.seek(0)
    assert read_hypergraph(buf).edges == h.edges


def test_text_format_shape():
    h = hypergraph(5, 2, [[0, 1], [3, 4]])
    buf = io.StringIO()
    write_hypergraph(h, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "5 2 2"
    assert lines[1:] == ["0 1", "3 4"]


def test_read_rejects_duplicates_and_bad_counts():
    with pytest.raises(BadParams):
        read_hypergraph(io.StringIO("5 2 2\n0 1\n1 0\n"))
    with pytest.raises(BadParams):
        read_hypergraph(io.StringIO("5 2 2\n0 1\n"))
    with pytest.raises(BadParams):
        read_hypergraph(io.StringIO("5 2\n"))
    # an edge line past the header's count is not silently dropped
    with pytest.raises(BadParams, match="header promises 1 edges, file holds more"):
        read_hypergraph(io.StringIO("5 2 1\n0 1\n3 4\n"))
    assert read_hypergraph(io.StringIO("5 2 1\n0 1\n\n \n")).num_edges == 1


# sha256 of write_hypergraph's output, frozen before the edges became an array
@pytest.mark.parametrize("build, digest", [
    (lambda: sample(RandomModel(12, 4, 0.3, 1)),
     "b785f8460fa8429b1c4d714a5c5c69ddb2bd675382d1d5976bff472fea33e4fe"),
    (lambda: complete(7, 3),
     "4c3ae98433f4915b2b0573cc22956f22977edeab3ba471290fd9e75429d317c3"),
], ids=["sample(12,4,0.3,1)", "complete(7,3)"])
def test_written_bytes_pinned(build, digest):
    buf = io.StringIO()
    write_hypergraph(build(), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("text", ["x 2 1\n0 1\n", "5 2 1.5\n0 1\n", "5 2 1\n0 x\n",
                                  "5 2 1\n0 1.5\n"])
def test_read_rejects_non_integer_tokens(text):
    with pytest.raises(BadParams, match="non-integer token"):
        read_hypergraph(io.StringIO(text))
