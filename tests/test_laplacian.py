"""Auxiliary graph assembly, the normalized Laplacian, and closed forms."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    BadParams,
    DimMismatch,
    Hypergraph,
    NotLoose,
    TooLarge,
    binom,
    build_aux,
    centered_weight,
    complete,
    complete_spectrum,
    degree_stats,
    dump_matrix,
    eigenvalues_sym,
    hypergraph,
    kneser_adjacency,
    load_matrix,
    normalized_laplacian,
    sample,
    sset_rank,
    RandomModel,
)
from hyperlap.combin import colex_unrank
from hyperlap.laplacian import MAX_DENSE_DIM


def test_build_aux_single_edge():
    g = build_aux(hypergraph(6, 4, [[0, 1, 2, 3]]), 1)
    for u in range(4):
        for v in range(4):
            assert g.weights[u, v] == (0 if u == v else 1)
    assert g.weights[:, 4:].sum() == 0
    assert g.stop_degrees.tolist() == [1, 1, 1, 1, 0, 0]


def test_build_aux_complete_6_4():
    # every disjoint pair of 2-sets has codegree C(2,0) = 1
    g = build_aux(complete(6, 4), 2)
    assert g.degrees.tolist() == [6] * binom(6, 2)
    off = g.weights[np.triu_indices(g.dim, 1)]
    assert set(off.tolist()) <= {0, 1}


def test_build_aux_empty():
    g = build_aux(hypergraph(6, 4, []), 2)
    assert g.weights.sum() == 0
    assert g.volume == 0


def test_build_aux_rejects_tight():
    with pytest.raises(NotLoose):
        build_aux(complete(6, 4), 3)
    # C(65, 2) = 2080 s-sets, past the 2048 dense cap
    with pytest.raises(TooLarge, match=r"C\(65, 2\) s-sets exceed the dense budget of 2048"):
        build_aux(hypergraph(65, 4, []), 2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_aux_invariants_random(data):
    n = data.draw(st.integers(4, 9))
    r = data.draw(st.integers(2, min(4, n)))
    s = data.draw(st.integers(1, r // 2))
    p = data.draw(st.sampled_from([0.2, 0.5, 0.8]))
    seed = data.draw(st.integers(0, 10_000))
    h = sample(RandomModel(n, r, p, seed))
    g = build_aux(h, s)
    w = g.weights
    assert np.array_equal(w, w.T)
    stops = colex_unrank(np.arange(binom(n, s)), n, s).tolist()
    for a, sa in enumerate(stops):
        assert w[a, a] == 0
    # spot check a few entries against the codegree definition
    rng = np.random.default_rng(seed)
    for _ in range(10):
        a, b = rng.integers(0, len(stops), 2)
        sa, sb = stops[a], stops[b]
        union = set(sa) | set(sb)
        if set(sa) & set(sb):
            assert w[a, b] == 0
        else:
            assert w[a, b] == sum(1 for e in h.edges if union <= set(e))
    assert np.array_equal(w.sum(axis=1), g.degrees - 0)
    assert g.degrees.tolist() == (binom(r - s, s) * g.stop_degrees).tolist()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_aux_and_degrees_match_definitions(data):
    """Every W(S,T) and every degree against a brute-force count."""
    n = data.draw(st.integers(2, 8))
    r = data.draw(st.integers(2, min(5, n)))
    all_edges = list(map(tuple, colex_unrank(np.arange(binom(n, r)), n, r).tolist()))
    h = Hypergraph(n, r, frozenset(data.draw(st.sets(st.sampled_from(all_edges)))))
    for s in range(1, r + 1):
        stops = [set(x) for x in colex_unrank(np.arange(binom(n, s)), n, s).tolist()]
        deg = [sum(1 for e in h.edges if x <= set(e)) for x in stops]
        assert degree_stats(h, s).tolist() == deg
        if 2 * s > r:
            continue
        g = build_aux(h, s)
        assert g.stop_degrees.tolist() == deg
        w = [
            [0 if x & y else sum(1 for e in h.edges if x | y <= set(e)) for y in stops]
            for x in stops
        ]
        assert g.weights.tolist() == w


def test_laplacian_complete_graph():
    # complete(n,2) at s=1 is the complete graph: eigenvalues 0, n/(n-1) x (n-1)
    lap = normalized_laplacian(build_aux(complete(7, 2), 1))
    spec = eigenvalues_sym(lap)
    want = np.sort(np.concatenate([[0.0], np.full(6, 7 / 6)]))
    assert np.max(np.abs(spec.values - want)) < 1e-12


def test_laplacian_excludes_zero_degree():
    g = build_aux(hypergraph(6, 4, [[0, 1, 2, 3]]), 1)
    assert len(normalized_laplacian(g)) == 4
    assert g.kept.tolist() == [0, 1, 2, 3]
    assert g.dim == 6


def test_laplacian_empty_hypergraph():
    g = build_aux(hypergraph(5, 2, []), 1)
    assert len(normalized_laplacian(g)) == 0
    assert g.kept.size == 0
    assert g.dim == 5


def test_laplacian_is_kneser_for_complete():
    # for K^r_n the Laplacian is I - K/C(n-s,s) on the s-sets
    n, r, s = 10, 4, 2
    lap = normalized_laplacian(build_aux(complete(n, r), s))
    want = np.eye(binom(n, s)) - kneser_adjacency(n, s) / binom(n - s, s)
    assert np.max(np.abs(lap - want)) < 1e-12


def _laplacian_formula(g):
    """I - D^{-1/2} W D^{-1/2} on the live stops, written on whole arrays."""
    kept = g.kept
    w = g.weights[np.ix_(kept, kept)].astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(g.degrees[kept].astype(np.float64))
    return np.eye(kept.size) - w * np.outer(inv_sqrt, inv_sqrt)


# s = 1 and s = 2; the (10, 4), (20, 4) and (9, 2) draws have dead stops
# (7, 8 and 1 of them), the lone edge 2 and the empty hypergraph all 5
_LAPLACIAN_GRID = [
    (sample(RandomModel(12, 3, 0.05, 0)), 1),
    (sample(RandomModel(16, 3, 0.3, 1)), 1),
    (sample(RandomModel(9, 2, 0.3, 4)), 1),
    (sample(RandomModel(10, 4, 0.05, 0)), 2),
    (sample(RandomModel(14, 4, 0.5, 2)), 2),
    (sample(RandomModel(20, 4, 0.02, 3)), 2),
    (complete(10, 4), 2),
    (hypergraph(6, 4, [[0, 1, 2, 3]]), 1),
    (hypergraph(5, 2, []), 1),
]


@pytest.mark.parametrize("h, s", _LAPLACIAN_GRID, ids=[
    "12-3-s1", "16-3-s1", "9-2-s1", "10-4-s2", "14-4-s2", "20-4-s2", "complete-s2",
    "lone-edge", "empty"])
def test_laplacian_bits_match_the_whole_array_formula(h, s):
    g = build_aux(h, s)
    lap, want = normalized_laplacian(g), _laplacian_formula(g)
    assert lap.shape == want.shape and lap.dtype == np.float64
    assert np.array_equal(lap.view(np.int64), want.view(np.int64))
    assert np.array_equal(g.weights, build_aux(h, s).weights)  # g is not written


@pytest.mark.parametrize("m, s", [(RandomModel(24, 4, 0.3, 0), 2),
                                  (RandomModel(30, 4, 0.01, 0), 2)], ids=str)
def test_laplacian_working_set(m, s):
    """One float64 copy of the live weights and the scaling, no more: the
    whole-array formula peaks at 3.0-3.2 matrices here, this at 2.0-2.2."""
    g = build_aux(sample(m), s)
    k = g.kept.size
    tracemalloc.start()
    try:
        normalized_laplacian(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * k * k * 8


def test_laplacian_diagonal_and_range():
    h = sample(RandomModel(9, 3, 0.4, 11))
    lap = normalized_laplacian(build_aux(h, 1))
    assert np.allclose(np.diag(lap), 1.0)
    spec = eigenvalues_sym(lap)
    assert spec.values[0] > -1e-9
    assert spec.values[-1] < 2 + 1e-9


def test_harmonic_vector_in_kernel():
    """sqrt(degree) is the 0-eigenvector on connected instances."""
    for seed in (0, 1):
        h = sample(RandomModel(10, 3, 0.5, seed))
        g = build_aux(h, 1)
        lap = normalized_laplacian(g)
        deg = g.degrees[g.kept].astype(float)
        phi = np.sqrt(deg / deg.sum())
        assert np.max(np.abs(lap @ phi)) < 1e-9


COMPLETE_CASES = {
    # evaluated from the alternating-binomial closed form, checked by solver
    (8, 2, 1): [(0.0, 1), (8 / 7, 7)],
    (9, 3, 1): [(0.0, 1), (9 / 8, 8)],
    (10, 4, 2): [(0.0, 1), (27 / 28, 35), (1.25, 9)],
    (9, 4, 2): [(0.0, 1), (20 / 21, 27), (9 / 7, 8)],
}


@pytest.mark.parametrize("key", sorted(COMPLETE_CASES))
def test_complete_spectrum_closed_form(key):
    n, r, s = key
    got = [(e.value, e.multiplicity) for e in complete_spectrum(n, r, s)]
    want = COMPLETE_CASES[key]
    assert len(got) == len(want)
    for (gv, gm), (wv, wm) in zip(got, want):
        assert gm == wm
        assert gv == pytest.approx(wv, abs=1e-12)


@pytest.mark.parametrize("key", sorted(COMPLETE_CASES))
def test_complete_spectrum_matches_solver(key):
    n, r, s = key
    pairs = complete_spectrum(n, r, s)
    closed = np.sort(
        np.repeat([e.value for e in pairs], [e.multiplicity for e in pairs])
    )
    lap = normalized_laplacian(build_aux(complete(n, r), s))
    spec = eigenvalues_sym(lap)
    assert spec.dim == binom(n, s)
    assert np.max(np.abs(closed - spec.values)) < 1e-9


def test_complete_spectrum_extremes():
    pairs = complete_spectrum(10, 4, 2)
    assert pairs[-1].value == pytest.approx(1 + 2 / 8)  # 1 + s/(n-s)
    assert sum(e.multiplicity for e in pairs) == binom(10, 2)
    with pytest.raises(BadParams):
        complete_spectrum(10, 4, 3)
    with pytest.raises(BadParams):
        complete_spectrum(3, 4, 2)


def test_centered_weight_complete_and_empty():
    n, r, s, p = 8, 4, 2, 0.3
    k = kneser_adjacency(n, s)
    coef = binom(n - 2 * s, r - 2 * s)
    full = centered_weight(build_aux(complete(n, r), s), p)
    assert np.max(np.abs(full - coef * (1 - p) * k)) < 1e-12
    empty = centered_weight(build_aux(hypergraph(n, r, []), s), p)
    assert np.max(np.abs(empty + coef * p * k)) < 1e-12


def test_centered_weight_mean_is_zero():
    """Each disjoint-pair entry of C is a centered binomial across seeds."""
    n, r, s, p, trials = 7, 3, 1, 0.4, 2000
    coef = binom(n - 2, r - 2)
    acc = np.zeros((n, n))
    for seed in range(trials):
        acc += centered_weight(build_aux(sample(RandomModel(n, r, p, seed)), s), p)
    acc /= trials
    sigma = np.sqrt(coef * p * (1 - p) / trials)  # variance bound per entry
    mask = 1 - np.eye(n)
    assert np.max(np.abs(acc * mask)) < 4 * sigma


def test_dump_load_roundtrip():
    h = sample(RandomModel(8, 3, 0.5, 2))
    lap = normalized_laplacian(build_aux(h, 1))
    buf = io.StringIO()
    dump_matrix(lap, buf)
    buf.seek(0)
    back = load_matrix(buf)
    assert np.array_equal(back, lap)


@pytest.mark.parametrize("h, s", [
    (complete(10, 4), 1),
    (complete(10, 4), 2),
    (sample(RandomModel(9, 3, 0.4, 11)), 1),
    (hypergraph(6, 4, [[0, 1, 2, 3]]), 1),
], ids=["complete-s1", "complete-s2", "sampled", "lone-edge"])
def test_matrices_are_exactly_symmetric_float64(h, s):
    """The library's own matrices are symmetric to the bit, not only to the
    solver's 1e-10 tolerance, so dump_matrix loses nothing by its triangle."""
    g = build_aux(h, s)
    for m in (normalized_laplacian(g), centered_weight(g, 0.4)):
        assert m.dtype == np.float64
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("m, exc, match", [
    (np.zeros((2, 3)), DimMismatch, r"^expected a square matrix, got shape \(2, 3\)$"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), BadParams, "^matrix has non-finite entries$"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), DimMismatch, "^matrix is not symmetric$"),
    (np.array([[0, 1j], [-1j, 0]]), BadParams, "got dtype complex128"),
], ids=["non-square", "nan", "asymmetric", "complex"])
def test_dump_refuses_what_the_solver_refuses(m, exc, match):
    for check in (eigenvalues_sym, lambda a: dump_matrix(a, io.StringIO())):
        with pytest.raises(exc, match=match):
            check(m)


def test_load_rejects_malformed():
    with pytest.raises(DimMismatch):
        load_matrix(io.StringIO("2\n1.0\n"))
    with pytest.raises(DimMismatch):
        load_matrix(io.StringIO("2\n1.0\n0.5 1.0 3.0\n"))
    with pytest.raises(DimMismatch, match="line 4 holds data after the last row"):
        load_matrix(io.StringIO("2\n1\n0 1\n9 9 9\n"))


@pytest.mark.parametrize("text, match", [
    ("x\n", r"header has a non-integer token in \['x'\]"),
    ("1.5\n", "header has a non-integer token"),
    ("2\nz\n", r"line 2 \(row 0\) has a non-float token in \['z'\]"),
    ("2\n1\n0 y\n", r"line 3 \(row 1\) has a non-float token in \['0', 'y'\]"),
    ("1\nnan\n", "non-finite"),
], ids=["header-word", "header-float", "row0", "row1", "nan"])
def test_load_rejects_bad_tokens(text, match):
    with pytest.raises(BadParams, match=match):
        load_matrix(io.StringIO(text))


def test_load_refuses_a_dimension_past_the_dense_cap():
    # a header of 10^7 would ask numpy for 728 TiB before any row is read
    for dim in (MAX_DENSE_DIM + 1, 10**7):
        with pytest.raises(TooLarge, match=f"^dimension {dim} exceeds the dense budget of 2048$"):
            load_matrix(io.StringIO(f"{dim}\n1.0\n"))
    head = f"{MAX_DENSE_DIM}\n"  # the cap itself is read, and its rows are checked
    with pytest.raises(DimMismatch, match="row 1 has 0 entries, expected 2"):
        load_matrix(io.StringIO(head + "1.0\n"))


def test_load_accepts_trailing_blank_lines():
    m = load_matrix(io.StringIO("2\n1\n0 1\n\n  \n"))
    assert np.array_equal(m, np.eye(2))
