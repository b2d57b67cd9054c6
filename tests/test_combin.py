"""Ranking, binomials, and the Kneser closed form."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    BadParams,
    BadRank,
    BadVertex,
    DegenerateKneser,
    NotLoose,
    as_sset,
    binom,
    build_aux,
    catalan,
    complete,
    complete_spectrum,
    edge_expansion,
    ekr_bound,
    kneser_adjacency,
    kneser_spectrum,
    sset_rank,
    sset_unrank,

)
import hyperlap.combin as combin
from hyperlap.combin import colex_unrank, subset_ranks


def test_binom_matches_math_comb():
    for n in range(0, 25):
        for k in range(0, n + 2):
            assert binom(n, k) == math.comb(n, k)


def test_binom_rejects_negatives():
    with pytest.raises(BadParams):
        binom(-1, 2)
    with pytest.raises(BadParams):
        binom(4, -1)


def test_catalan_small():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("args, match", [
    ((5.5, 2), r"^binom needs integer arguments, got \(5\.5, 2\)$"),
    ((5, 2.0), r"^binom needs integer arguments, got \(5, 2\.0\)$"),
    (("5", 2), r"^binom needs integer arguments, got \('5', 2\)$"),
])
def test_binom_refuses_non_integers(args, match):
    with pytest.raises(BadParams, match=match):
        binom(*args)


def test_catalan_refuses_non_integers_and_negatives():
    with pytest.raises(BadParams, match=r"^catalan needs an integer, got 2\.5$"):
        catalan(2.5)
    with pytest.raises(BadParams, match=r"^catalan needs k >= 0, got -1$"):
        catalan(-1)


def test_binom_and_catalan_take_numpy_integers():
    assert binom(np.int64(10), np.int32(4)) == 210
    assert catalan(np.int64(5)) == 42


def test_as_sset_sorts_and_validates():
    assert as_sset([3, 0, 2], 5) == (0, 2, 3)
    with pytest.raises(BadVertex):
        as_sset([0, 0, 1], 5)
    with pytest.raises(BadVertex):
        as_sset([0, 5], 5)
    with pytest.raises(BadVertex):
        as_sset([-1, 2], 5)
    for ids in [(True, 3), (np.bool_(True), 3), (False,)]:  # a bool is not a vertex id
        with pytest.raises(BadVertex, match="is not an integer"):
            as_sset(ids, 5)


def test_colex_order_is_rank_order():
    # colex_unrank of ranks 0, 1, 2, ... must emit the s-sets in that order
    for n, s in [(6, 3), (7, 2), (5, 1), (8, 4)]:
        seq = colex_unrank(np.arange(binom(n, s)), n, s).tolist()
        assert len(seq) == binom(n, s)
        assert [sset_rank(x, n) for x in seq] == list(range(len(seq)))


def test_unrank_examples():
    assert sset_unrank(0, 6, 3) == (0, 1, 2)
    assert sset_unrank(binom(6, 3) - 1, 6, 3) == (3, 4, 5)
    with pytest.raises(BadRank):
        sset_unrank(binom(6, 3), 6, 3)
    with pytest.raises(BadRank):
        sset_unrank(-1, 6, 3)


def test_unrank_is_fast_for_huge_n():
    n = 10**30
    assert sset_unrank(10, n, 3) == (0, 1, 5)
    top = binom(n, 3)
    for idx in (top - 1, top - 2, top - 10**6, top - binom(n - 1, 2), top // 2):
        assert sset_rank(sset_unrank(idx, n, 3), n) == idx
    assert sset_unrank(top - 1, n, 3) == (n - 3, n - 2, n - 1)


@pytest.mark.parametrize("args, name", [
    ((3.5, 5, 2), "idx"), ((3, 5.0, 2), "n"), ((3, 5, 2.0), "s"), (("3", 5, 2), "idx"),
])
def test_unrank_sizes_must_be_integers(args, name):
    with pytest.raises(BadParams, match=rf"^{name} must be an integer, got "):
        sset_unrank(*args)


def test_unrank_takes_numpy_integers():
    assert sset_unrank(np.int64(3), np.int32(5), np.int8(2)) == (0, 3)
    assert type(sset_unrank(np.int64(3), 5, 2)[0]) is int


@pytest.mark.parametrize("call, message", [
    (lambda: build_aux(complete(5, 2), 1.0), "s must be an integer, got 1.0"),
    (lambda: complete_spectrum(10, 4.0, 2), "r must be an integer, got 4.0"),
    (lambda: edge_expansion(complete(6, 4), 1.5, [(0,)], [(1,)], 0.5),
     "s must be an integer, got 1.5"),
], ids=["build_aux", "complete_spectrum", "edge_expansion"])
def test_stop_sizes_must_be_integers(call, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: sset_rank((0, 3), 5.5), "n must be an integer, got 5.5"),
    (lambda: kneser_adjacency(5.0, 2), "n must be an integer, got 5.0"),
    (lambda: kneser_adjacency(5, 2.0), "s must be an integer, got 2.0"),
    (lambda: kneser_spectrum(6.0, 2), "n must be an integer, got 6.0"),
    (lambda: ekr_bound(6.5, 2), "n must be an integer, got 6.5"),
    (lambda: ekr_bound(3.5, 2), "n must be an integer, got 3.5"),
    (lambda: complete_spectrum(10.0, 4, 2), "n must be an integer, got 10.0"),
], ids=["sset_rank", "kneser_adjacency_n", "kneser_adjacency_s", "kneser_spectrum",
        "ekr_bound", "ekr_bound_below_2s", "complete_spectrum"])
def test_set_sizes_must_be_integers(call, message):
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        call()


def test_kneser_checks_keep_their_order_for_integers():
    with pytest.raises(DegenerateKneser, match=r"^K\(3,2\) needs n >= 2s$"):
        kneser_spectrum(np.int64(3), 2)
    with pytest.raises(DegenerateKneser, match=r"^need n >= 2s >= 2, got n=3, s=2$"):
        ekr_bound(np.int64(3), np.int64(2))
    with pytest.raises(BadParams, match=r"^need 1 <= s <= n, got s=3, n=2$"):
        kneser_adjacency(np.int32(2), 3)
    assert kneser_adjacency(np.int64(5), np.int64(2)).sum() == 30
    assert sset_rank((0, 3), np.int64(5)) == 3


def test_colex_unrank_spans_only_the_largest_rank(monkeypatch):
    """Rank 5 is (2, 3), so range(4) holds every row: a table over
    range(10**6) would be two million Python ints."""
    table = combin._comb_table

    def narrow(n, s):
        if n > 4:
            raise AssertionError(f"Pascal table spans range({n})")
        return table(n, s)

    monkeypatch.setattr(combin, "_comb_table", narrow)
    assert colex_unrank(np.array([0, 5]), 10**6, 2).tolist() == [[0, 1], [2, 3]]


def test_colex_unrank_refuses_a_rank_past_the_range():
    with pytest.raises(BadRank, match=r"^rank 10 outside \[0, 10\)$"):
        colex_unrank(np.array([0, 10]), 5, 2)


@pytest.mark.parametrize("idx", [[-1, 3], [-7]])
def test_colex_unrank_refuses_a_negative_rank(idx):
    """Every rank is checked, not only the largest: -1 below rank 3 would
    decode to the row [-1, -1]."""
    with pytest.raises(BadRank, match=rf"^rank {min(idx)} outside \[0, 10\)$"):
        colex_unrank(np.array(idx), 5, 2)


@pytest.mark.parametrize("args, err, match", [
    ((5, 2.0), BadParams, r"^s must be an integer, got 2\.0$"),
    ((5, 6), BadParams, r"^need 1 <= s <= n, got s=6, n=5$"),
    ((5, 0), BadParams, r"^need 1 <= s <= n, got s=0, n=5$"),
])
def test_colex_unrank_checks_as_sset_unrank(args, err, match):
    """The largest rank is checked as sset_unrank checks it: sizes first."""
    with pytest.raises(err, match=match):
        colex_unrank(np.array([0, 10]), *args)


def test_rank_tables_are_read_only_and_shared():
    tables = (combin._comb_table(6, 2), combin._subset_columns(4, 2),
              *combin._disjoint_columns(4, 2), combin._comb_table(10**4, 1))
    for arr in tables:
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert combin._comb_table(6, 2) is combin._comb_table(6, 2)
    assert combin._subset_columns(4, 2).tolist() == [[0, 1], [0, 2], [1, 2], [0, 3], [1, 3], [2, 3]]
    a, b = combin._disjoint_columns(4, 2)
    assert list(zip(a.tolist(), b.tolist())) == [(0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)]


def test_rank_tables_alternate_widths_and_stop_sizes():
    """Tables of one process serve every (width, s) in turn."""
    rng = np.random.default_rng(0)
    for n in (5, 50, 5):
        for s in (1, 3, 1):
            rows = np.sort(np.array([rng.permutation(n)[:4] for _ in range(6)]), axis=1)
            want = [[sset_rank(row[list(sset_unrank(k, 4, s))], n) for k in range(binom(4, s))]
                    for row in rows]
            assert subset_ranks(rows, n, s).tolist() == want
            idx = rng.integers(0, binom(n, s), 8)
            got = colex_unrank(idx, n, s)
            assert [tuple(row) for row in got.tolist()] == [sset_unrank(int(i), n, s) for i in idx]


def test_rank_table_cache_is_bounded():
    """A table past _TABLE_ENTRIES is built per call and not kept, and the
    cache keeps at most _TABLE_RESULTS tables: at most 1 MB of int64."""
    assert colex_unrank(np.array([0, 10**6 - 1]), 10**6, 1).tolist() == [[0], [10**6 - 1]]
    assert not any(key[1] == 10**6 for key in combin._tables)
    widths = range(100, 100 + 3 * combin._TABLE_RESULTS)
    for w in widths:
        combin._comb_table(w, 2)
    assert len(combin._tables) == combin._TABLE_RESULTS
    assert ("_comb_table", widths[-1], 2) in combin._tables
    assert ("_comb_table", widths[0], 2) not in combin._tables
    sizes = [sum(a.size for a in (v if isinstance(v, tuple) else (v,)))
             for v in combin._tables.values()]
    assert max(sizes) <= combin._TABLE_ENTRIES
    assert 8 * sum(sizes) <= 8 * combin._TABLE_RESULTS * combin._TABLE_ENTRIES == 2**20


def test_comb_table_matches_math_comb():
    """The running-sum table is the clipped C(v, i) table, and past int64
    it is the OverflowError of converting the clipped terms."""
    def reference(w, s):
        cap = math.comb(w, s)
        return [[min(math.comb(v, i), cap) for v in range(w)] for i in range(s + 1)]

    for w, s in [(w, s) for w in range(45) for s in range(14)] + [(64, 32), (66, 33)]:
        tab = combin._comb_table(w, s)
        assert tab.dtype == np.int64 and tab.tolist() == reference(w, s), (w, s)
    with pytest.raises(OverflowError):
        combin._comb_table(200, 100)


def test_loose_check_keeps_its_order_for_integers():
    with pytest.raises(NotLoose, match=r"^need 1 <= s <= r/2, got s=3, r=4$"):
        complete_spectrum(10, 4, 3)
    with pytest.raises(NotLoose, match=r"^need 1 <= s <= r/2, got s=1, r=1$"):
        build_aux(complete(5, 1), np.int64(1))
    assert build_aux(complete(5, 2), np.int64(1)).dim == 5


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rank_unrank_roundtrip(data):
    n = data.draw(st.integers(1, 20))
    s = data.draw(st.integers(1, n))
    idx = data.draw(st.integers(0, binom(n, s) - 1))
    assert sset_rank(sset_unrank(idx, n, s), n) == idx


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rank_is_colex_monotone(data):
    n = data.draw(st.integers(2, 12))
    s = data.draw(st.integers(1, n))
    a = data.draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s))
    b = data.draw(st.sets(st.integers(0, n - 1), min_size=s, max_size=s))
    ta, tb = tuple(sorted(a)), tuple(sorted(b))
    ra, rb = sset_rank(ta, n), sset_rank(tb, n)
    # colex comparison: compare reversed tuples
    assert (ra < rb) == (ta[::-1] < tb[::-1])


# (100, 98) puts C(v, i) far past int64 unless the table is clipped at C(n, s)
RANK_SHAPES = st.just((100, 98)) | st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n))
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_subset_ranks_match_sset_rank(data):
    n, r = data.draw(RANK_SHAPES)
    s = data.draw(st.integers(r - 1 if n > 20 else 1, r))
    m = data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    rows = np.array([np.sort(rng.permutation(n)[:r]) for _ in range(m)]).reshape(m, r)
    want = [
        [sset_rank(row[list(sset_unrank(k, r, s))], n) for k in range(binom(r, s))]
        for row in rows
    ]
    assert subset_ranks(rows, n, s).tolist() == want


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_colex_unrank_matches_sset_unrank(data):
    n, s = data.draw(RANK_SHAPES)
    idx = data.draw(st.lists(st.integers(0, binom(n, s) - 1), max_size=8))
    got = colex_unrank(np.array(idx, dtype=np.int64), n, s)
    assert [tuple(row) for row in got.tolist()] == [sset_unrank(i, n, s) for i in idx]


def test_kneser_adjacency_petersen():
    a = kneser_adjacency(5, 2)
    assert a.shape == (10, 10)
    assert a.sum() == 10 * 3  # Petersen is 3-regular
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


@pytest.mark.parametrize("n, s", [(5, 2), (6, 2), (7, 3), (9, 2), (3, 2), (4, 4)])
def test_kneser_mask_is_the_adjacency(n, s):
    """The bool mask the matrix layer reads is kneser_adjacency, one byte an
    entry; n < 2s gives the all-false mask."""
    mask = combin._kneser_mask(n, s)
    assert mask.dtype == bool
    assert np.array_equal(mask.astype(np.int64), kneser_adjacency(n, s))
    assert kneser_adjacency(n, s).dtype == np.int64


def test_kneser_spectrum_petersen():
    # Petersen graph: eigenvalue 3 once, 1 five times, -2 four times
    pairs = {(e.value, e.multiplicity) for e in kneser_spectrum(5, 2)}
    assert pairs == {(3.0, 1), (-2.0, 4), (1.0, 5)}


def test_kneser_spectrum_matches_eigensolver():
    for n, s in [(5, 2), (6, 2), (7, 3), (9, 2)]:
        pairs = kneser_spectrum(n, s)
        closed = np.sort(
            np.repeat([e.value for e in pairs], [e.multiplicity for e in pairs])
        )
        vals = np.linalg.eigvalsh(kneser_adjacency(n, s).astype(float))
        assert np.max(np.abs(closed - vals)) < 1e-9


def test_kneser_spectrum_multiplicities_sum():
    for n, s in [(5, 2), (8, 3), (12, 4)]:
        assert sum(e.multiplicity for e in kneser_spectrum(n, s)) == binom(n, s)


def test_kneser_degenerate():
    with pytest.raises(DegenerateKneser):
        kneser_spectrum(3, 2)
