"""Hypergraph model, random sampling, degrees, and the text format."""

import hashlib
import importlib
import io
import itertools

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
    ssets_colex,
    write_hypergraph,
)


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


# a vertex id recast as another type: numpy ints keep it an integer id,
# the rest make it something as_sset refuses
_RECAST = (int, int, int, np.int64, np.int32, np.uint64, bool, float, str)


def _accepted_by_as_sset(n: int, r: int, edges: frozenset) -> bool:
    """The per-edge definition: each edge is exactly what as_sset makes of it."""
    try:
        return all(len(e) == r and as_sset(e, n) == e for e in edges)
    except (BadVertex, TypeError):  # TypeError: len() of an int, sorting str with int
        return False


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
    """The bulk edge check accepts exactly the edges as_sset leaves unchanged,
    ragged, float, string, numpy and out-of-range ids included."""
    n, r, edges = args
    if _accepted_by_as_sset(n, r, edges):
        assert Hypergraph(n, r, edges).edges == edges
    else:
        with pytest.raises(BadVertex):
            Hypergraph(n, r, edges)


def test_edge_check_is_exact_for_large_mixed_ids():
    # numpy widens np.uint64 with a Python int to float64, where these are equal
    edge = (np.uint64(2**53), 2**53 + 1)
    assert Hypergraph(2**60, 2, frozenset({edge})).num_edges == 1
    with pytest.raises(BadVertex):
        Hypergraph(2**60, 2, frozenset({(np.uint64(2**53 + 1), 2**53 + 1)}))


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
        Hypergraph(2**64, 2, frozenset({edge}))
    assert Hypergraph(2**64, 2, frozenset({(0, 2**63 - 1)})).num_edges == 1


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


@pytest.mark.parametrize("m", [RandomModel(7, 3, 0.5, 4), RandomModel(8, 4, 0.3, 11)],
                         ids=str)
def test_degree_matches_brute_force(m):
    h = sample(m)
    edges = h.edges
    for s in range(1, m.r):
        for vs in itertools.combinations(range(m.n), s):
            assert h.degree(vs) == sum(1 for e in edges if set(vs) <= set(e))


def test_degree_of_an_id_past_int64_is_zero():
    h = Hypergraph(2**64, 2, frozenset({(0, 2**63 - 1)}))
    assert h.degree((2**63 - 1,)) == 1
    assert h.degree((2**63,)) == h.degree((2**64 - 1,)) == 0


def test_complete_counts():
    assert complete(4, 2).num_edges == 6
    assert complete(6, 3).num_edges == 20
    with pytest.raises(BadRank):
        complete(3, 4)


def test_complete_degrees():
    h = complete(10, 4)
    assert h.degree((0, 1)) == binom(8, 2)
    assert h.degree((7,)) == binom(9, 3)


def test_degree_edge_cases():
    h = hypergraph(6, 4, [[0, 1, 2, 3]])
    assert h.degree((0, 1)) == 1
    assert h.degree((0, 4)) == 0
    assert hypergraph(6, 4, []).degree((0, 1)) == 0
    with pytest.raises(StopTooLarge):
        h.degree((0, 1, 2, 3))


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
        want.append({e for e, u in zip(ssets_colex(m.n, m.r), draws) if u < m.p})
    monkeypatch.setattr(hg, "_DRAW_BLOCK", block)
    assert [set(sample(m).edges) for m in models] == want


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


def test_expected_stop_degree_past_the_float_range():
    with pytest.raises(TooLarge, match=r"C\(999999, 99\) exceeds the float range"):
        expected_stop_degree(10**6, 100, 1, 0.5)


def test_degree_stats_complete():
    st_ = degree_stats(complete(8, 4), 2, d_ref=15)
    assert st_.min == st_.max == binom(6, 2) == 15
    assert st_.sum_sq_dev == 0.0


def test_degree_stats_empirical_center():
    h = hypergraph(5, 2, [[0, 1], [1, 2], [2, 3]])
    st_ = degree_stats(h, 1)
    assert st_.degrees.tolist() == [1, 2, 2, 1, 0]
    assert st_.mean == pytest.approx(6 / 5)
    assert st_.sum_sq_dev == pytest.approx(sum((d - 1.2) ** 2 for d in [1, 2, 2, 1, 0]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_double_counting(data):
    """Sum of s-set degrees = |E| * C(r,s) for every hypergraph."""
    n = data.draw(st.integers(3, 8))
    r = data.draw(st.integers(2, min(4, n)))
    all_edges = list(ssets_colex(n, r))
    chosen = data.draw(st.sets(st.sampled_from(all_edges), max_size=len(all_edges)))
    h = Hypergraph(n, r, frozenset(chosen))
    for s in range(1, r):
        st_ = degree_stats(h, s)
        assert int(st_.degrees.sum()) == h.num_edges * binom(r, s)


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
