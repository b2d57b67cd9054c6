"""Spectral applications: mixing, diameter, expansion, intersecting families."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import shortest_path

from hyperlap import (
    AuxGraph,
    BadParams,
    Disconnected,
    EmptyFamily,
    EmptySample,
    Hypergraph,
    RandomModel,
    binom,
    build_aux,
    complete,
    degree_stats,
    diameter_bound,
    edge_expansion,
    eigenvalues_sym,
    ekr_bound,
    expected_stop_degree,
    hypergraph,
    is_connected,
    kneser_adjacency,
    mixing_contraction,
    monotonicity_check,
    normalized_laplacian,
    perturbation_diagnostics,
    s_diameter,
    sample,
    spectral_norm,
    spectral_radius,
    transition_system,
    ZeroDegree,
)
import hyperlap.apps as apps
import hyperlap.combin as combin


def _spec_of(h, s):
    return eigenvalues_sym(normalized_laplacian(build_aux(h, s)))


TWO_TRIANGLES = hypergraph(5, 3, [[0, 1, 2], [2, 3, 4]])  # aux at s=1: bowtie
SPLIT = hypergraph(6, 3, [[0, 1, 2], [3, 4, 5]])


def test_is_connected():
    assert is_connected(build_aux(complete(10, 4), 2))
    assert is_connected(build_aux(TWO_TRIANGLES, 1))
    assert not is_connected(build_aux(SPLIT, 1))


def test_s_diameter_hand_cases():
    # overlapping 2-sets are non-adjacent in the auxiliary graph, so even
    # the complete hypergraph needs two hops between them
    assert s_diameter(build_aux(complete(10, 4), 2)) == 2
    assert s_diameter(build_aux(complete(7, 2), 1)) == 1
    assert s_diameter(build_aux(TWO_TRIANGLES, 1)) == 2
    with pytest.raises(Disconnected):
        s_diameter(build_aux(SPLIT, 1))


def _oracle(g):
    """s_diameter's value or Disconnected message, and is_connected, from
    scipy's unweighted shortest paths on the positive-degree stops."""
    kept = np.flatnonzero(g.stop_degrees > 0)
    if kept.size == 0:
        return "auxiliary graph has no positive-degree stops", False
    adj = csr_array(g.weights[np.ix_(kept, kept)] > 0)
    dist = shortest_path(adj, directed=False, unweighted=True)
    if not np.isfinite(dist).all():
        return "auxiliary graph is disconnected", False
    return int(dist.max()), kept.size == g.dim


def _diameter_or_message(g):
    try:
        return s_diameter(g)
    except Disconnected as e:
        return str(e)


def test_diameter_and_connectivity_match_shortest_paths():
    kinds = set()
    for n, r, p, seed in itertools.product(
        (6, 8, 10, 13), (2, 3, 4), (0.05, 0.15, 0.4, 0.8), range(6)
    ):
        h = sample(RandomModel(n, r, p, seed))
        for s in range(1, r // 2 + 1):
            g = build_aux(h, s)
            want, connected = _oracle(g)
            assert (_diameter_or_message(g), is_connected(g)) == (want, connected)
            kinds.add((type(want), connected))
    # connected, disconnected, and a connected kept part beside zero-degree stops
    assert kinds == {(int, True), (str, False), (int, False)}


@pytest.mark.parametrize("n", [64, 257])
def test_diameter_of_a_path(n):
    g = build_aux(hypergraph(n, 2, [(i, i + 1) for i in range(n - 1)]), 1)
    assert s_diameter(g) == n - 1
    assert is_connected(g)


def test_diameter_of_one_kept_stop():
    lone = AuxGraph(3, 2, 1, np.zeros((3, 3), dtype=np.int64), np.array([0, 2, 0]))
    assert lone.kept.tolist() == [1]
    assert s_diameter(lone) == 0
    assert not is_connected(lone)
    only = AuxGraph(1, 2, 1, np.zeros((1, 1), dtype=np.int64), np.array([1]))
    assert only.kept.tolist() == [0]
    assert s_diameter(only) == 0
    assert is_connected(only)


def test_diameter_without_kept_stops():
    g = build_aux(hypergraph(6, 3, []), 1)
    with pytest.raises(Disconnected, match="^auxiliary graph has no positive-degree stops$"):
        s_diameter(g)
    assert not is_connected(g)
    assert is_connected(build_aux(hypergraph(0, 2, []), 1))


def test_transition_system():
    ts = transition_system(build_aux(TWO_TRIANGLES, 1))
    assert np.allclose(ts.matrix.sum(axis=1), 1.0)
    assert ts.stationary.sum() == pytest.approx(1.0)
    assert np.allclose(ts.stationary @ ts.matrix, ts.stationary)


def test_mixing_complete():
    g = build_aux(complete(10, 4), 2)
    lam = spectral_radius(_spec_of(complete(10, 4), 2))
    rep = mixing_contraction(transition_system(g), lam, steps=3)
    assert rep.holds
    assert len(rep.factors) == 3
    assert np.all(rep.factors <= lam + 1e-9)


def test_mixing_random_connected():
    for seed in range(5):
        h = sample(RandomModel(12, 3, 0.5, seed))
        g = build_aux(h, 1)
        spec = eigenvalues_sym(normalized_laplacian(g))
        lam = spectral_radius(spec)
        rep = mixing_contraction(transition_system(g), lam, steps=2)
        assert rep.holds, f"seed {seed}: factors {rep.factors} vs {lam}"


def test_mixing_custom_start():
    # row 0 of the default starts is the point mass on stop 0
    g = build_aux(TWO_TRIANGLES, 1)
    lam = spectral_radius(_spec_of(TWO_TRIANGLES, 1))
    rep = mixing_contraction(transition_system(g), lam, steps=4)
    assert rep.factors.shape == (4,)
    assert rep.holds


@pytest.mark.parametrize("steps, message", [
    (0, "need steps >= 1, got 0"),
    (2.5, "steps must be an integer, got 2.5"),
], ids=["zero", "float"])
def test_mixing_steps_must_be_a_positive_integer(steps, message):
    ts = transition_system(build_aux(TWO_TRIANGLES, 1))
    with pytest.raises(BadParams, match=f"^{message}$"):
        mixing_contraction(ts, 1.0, steps=steps)


def test_diameter_bound_complete():
    h = complete(10, 4)
    spec = _spec_of(h, 2)
    assert diameter_bound(spec, build_aux(h, 2)) == 2
    assert s_diameter(build_aux(h, 2)) <= 2


def test_diameter_bound_degenerate_two_point_spectrum():
    # complete graph: the only nontrivial eigenvalue is n/(n-1), bound is 1
    h = complete(7, 2)
    assert diameter_bound(_spec_of(h, 1), build_aux(h, 1)) == 1


def test_diameter_bound_random():
    hits = 0
    for seed in range(10):
        h = sample(RandomModel(12, 3, 0.5, seed))
        g = build_aux(h, 1)
        if not is_connected(g):
            continue
        hits += 1
        spec = eigenvalues_sym(normalized_laplacian(g))
        bound = diameter_bound(spec, g)
        assert s_diameter(g) <= bound
        # the same bound with |E| C(r,s) and the least s-set degree read off h
        num = math.log(h.num_edges * binom(3, 1) / int(degree_stats(h, 1).min()))
        lam1, lmax = spec.lambda1, spec.lambda_max
        assert bound == math.ceil(num / math.log((lmax + lam1) / (lmax - lam1)))
    assert hits >= 8  # p=0.5 at n=12 is far above the connectivity threshold


def test_diameter_bound_disconnected():
    with pytest.raises(Disconnected):
        diameter_bound(_spec_of(SPLIT, 1), build_aux(SPLIT, 1))


def test_diameter_bound_without_ssets():
    h = hypergraph(0, 2, [])
    with pytest.raises(EmptySample):
        diameter_bound(_spec_of(h, 1), build_aux(h, 1))


def test_expansion_pinned_singletons():
    """Two disjoint singleton families in complete(8,4) at s=2."""
    h = complete(8, 4)
    lam = spectral_radius(_spec_of(h, 2))
    rep = edge_expansion(h, 2, [(0, 1)], [(2, 3)], lam)
    assert rep.e_st == pytest.approx(1 / 70)  # exactly one edge contains both
    assert rep.e_s == pytest.approx(15 / 420)
    assert rep.e_t == pytest.approx(15 / 420)
    assert rep.lhs == pytest.approx(abs(1 / 70 - (1 / 28) ** 2))
    # the printed inequality fails on this instance and the report says so
    assert rep.lhs > rep.rhs
    assert not rep.holds


def test_expansion_full_families():
    h = complete(8, 4)
    lam = spectral_radius(_spec_of(h, 2))
    fam = combin.colex_unrank(np.arange(binom(8, 2)), 8, 2).tolist()
    rep = edge_expansion(h, 2, fam, fam, lam)
    assert rep.e_st == 1.0
    assert rep.e_s == rep.e_t == 1.0
    assert rep.lhs == pytest.approx(0.0)
    assert rep.holds


def test_expansion_hits_match_brute_force():
    """e(S,T), e(S) and e(T) against the set definitions on random instances."""
    from itertools import combinations

    from hyperlap import degree_stats, sset_rank, sset_unrank

    for n, r, s, seed in [(8, 4, 2, 0), (9, 3, 1, 1), (10, 5, 2, 2), (7, 6, 3, 3)]:
        h = sample(RandomModel(n, r, 0.4, seed))
        rng = np.random.default_rng(seed)
        count = binom(n, s)
        fam_s, fam_t = (
            {sset_unrank(int(x), n, s) for x in rng.choice(count, k, replace=False)}
            for k in (count // 4 + 1, count // 3 + 1)
        )
        hit = sum(
            any(a in fam_s and b in fam_t and not set(a) & set(b)
                for a in combinations(e, s) for b in combinations(e, s))
            for e in h.edges
        )
        degs = degree_stats(h, s)
        vol = int(degs.sum())
        rep = edge_expansion(h, s, fam_s, fam_t, 0.5)
        assert rep.e_st == hit / h.num_edges
        assert rep.e_s == sum(int(degs[sset_rank(x, n)]) for x in fam_s) / vol
        assert rep.e_t == sum(int(degs[sset_rank(x, n)]) for x in fam_t) / vol


def test_expansion_at_a_huge_n(monkeypatch):
    """One edge on 2**40 vertices: the rank tables span the ids the rows
    hold, not range(n), and no array over all C(n, s) s-sets is built."""
    table = combin._comb_table

    def small(n, s):
        if n > 2:
            raise AssertionError(f"a rank table over range({n})")
        return table(n, s)

    monkeypatch.setattr(combin, "_comb_table", small)
    rep = edge_expansion(Hypergraph(2**40, 2, frozenset({(0, 1)})), 1, [(0,)], [(1,)], 0.5)
    assert (rep.e_st, rep.e_s, rep.e_t) == (1.0, 0.5, 0.5)
    assert (rep.lhs, rep.rhs, rep.holds) == (0.75, 0.125, False)


def test_expansion_errors():
    h = complete(8, 4)
    with pytest.raises(EmptyFamily):
        edge_expansion(h, 2, [], [(0, 1)], 0.25)
    with pytest.raises(BadParams):
        edge_expansion(h, 2, [(0, 1, 2)], [(0, 1)], 0.25)
    from hyperlap import EmptySample

    with pytest.raises(EmptySample):
        edge_expansion(hypergraph(8, 4, []), 2, [(0, 1)], [(2, 3)], 0.25)


def test_ekr_pinned():
    b = ekr_bound(10, 3)
    assert (b.n_plus, b.n_minus, b.bound, b.star) == (84, 36, 36, 36)
    b = ekr_bound(10, 1)
    assert b.bound == b.star == 1
    b = ekr_bound(16, 8)
    assert b.bound == b.star == binom(15, 7)


def test_ekr_counts_match_spectrum_signs():
    """N+ and N- really count eigenvalues above and below 1."""
    for n, s in [(8, 2), (9, 3), (10, 4)]:
        # any r with r >= 2s works: the counts depend only on the Kneser part
        r = 2 * s
        spec = _spec_of(complete(n, r), s)
        above = int((spec.values > 1 + 1e-9).sum())
        below = int((spec.values < 1 - 1e-9).sum())
        b = ekr_bound(n, s)
        assert above == b.n_plus
        assert below == b.n_minus


def test_ekr_exact_past_float_range():
    """The counts stay exact integers where a Kneser eigenvalue such as
    C(1300, 700) is far past the largest float."""
    n, s = 2000, 700
    b = ekr_bound(n, s)
    # alternating binomial sums: odd Kneser indices are negative eigenvalues
    n_plus = sum(binom(n, 2 * i + 1) - binom(n, 2 * i) for i in range((s - 1) // 2 + 1))
    n_minus = sum(
        binom(n, 2 * i) - (binom(n, 2 * i - 1) if i else 0) for i in range(s // 2 + 1)
    )
    assert (b.n_plus, b.n_minus) == (n_plus, n_minus)
    assert b.n_plus + b.n_minus == binom(n, s)
    assert b.bound == b.star == binom(n - 1, s - 1)


def test_monotonicity_complete():
    rep = monotonicity_check(complete(10, 4))
    assert [row.s for row in rep.rows] == [1, 2]
    assert rep.rows[0].lambda1 == pytest.approx(10 / 9)
    assert rep.rows[1].lambda1 == pytest.approx(27 / 28)
    assert rep.rows[1].lambda_max == pytest.approx(1.25)
    assert rep.lambda1_nonincreasing
    assert rep.lambda_max_nondecreasing


def test_monotonicity_random():
    for seed in range(3):
        h = sample(RandomModel(12, 4, 0.6, seed))
        rep = monotonicity_check(h)
        assert rep.lambda1_nonincreasing
        assert rep.lambda_max_nondecreasing


def test_monotonicity_disconnected():
    with pytest.raises(Disconnected):
        monotonicity_check(SPLIT)


def test_perturbation_identity_and_triangle():
    rep = perturbation_diagnostics(build_aux(complete(10, 4), 2), 0.5)
    assert set(rep.norms) == {"m", "m1", "m2", "m3", "m4"}
    assert rep.identity_residual < 1e-12
    assert rep.triangle_holds
    assert rep.norms["m"] <= sum(rep.norms[k] for k in ("m1", "m2", "m3", "m4")) + 1e-9


def test_perturbation_random():
    for seed in range(3):
        h = sample(RandomModel(12, 3, 0.5, seed))
        rep = perturbation_diagnostics(build_aux(h, 1), 0.5)
        assert rep.identity_residual < 1e-9
        assert rep.triangle_holds
        assert all(v >= 0 for v in rep.ratios.values())


# norms, identity residual and ratios of perturbation_diagnostics on
# sample(RandomModel(n, r, p, 0)), which the diagnostics report prints in
# full.  The residual is elementwise arithmetic and must match bit for bit.
# The norms come from LAPACK, whose kernels differ in the last bits across
# CPUs, so they get a relative 1e-12; perfbench's golden digests pin their
# bits on the platform the digests were frozen on.
_PERTURBATION_BITS = {
    (48, 4, 2, 0.1): (
        {"m": 0.18450500873811024, "m1": 0.017818715316683168,
         "m2": 0.18680066916391538, "m3": 0.0032353817362268415,
         "m4": 0.04632965800926801},
        1.734723475976807e-18,
        {"m1": 0.7332859845874967, "m2": 2.003214005045381,
         "m3": 0.5959568854133133, "m4": 0.4968302318643755},
    ),
    (14, 4, 2, 0.5): (
        {"m": 0.24631227330182812, "m1": 0.05204103537174667,
         "m2": 0.2290441372799907, "m3": 0.03660235599704788,
         "m4": 0.1176953610298034},
        5.204170427930421e-18,
        {"m1": 1.1435238202352729, "m2": 1.8607633676193556,
         "m3": 1.3860037197365036, "m4": 0.9561616330536173},
    ),
    (16, 3, 1, 0.3): (
        {"m": 0.18199324570734754, "m1": 0.05728665049795146,
         "m2": 0.20878816427719685, "m3": 0.032394182008938836,
         "m4": 0.1961393471983563},
        1.3877787807814457e-17,
        {"m1": 1.2953055840119319, "m2": 1.4005935846636164,
         "m3": 1.7470267359451859, "m4": 1.315742740193873},
    ),
}


@pytest.mark.parametrize("n, r, s, p", sorted(_PERTURBATION_BITS))
def test_perturbation_float_bits_pinned(n, r, s, p):
    norms, resid, ratios = _PERTURBATION_BITS[n, r, s, p]
    rep = perturbation_diagnostics(build_aux(sample(RandomModel(n, r, p, 0)), s), p)
    assert rep.identity_residual == resid
    assert rep.norms == pytest.approx(norms, rel=1e-12, abs=0)
    assert rep.ratios == pytest.approx(ratios, rel=1e-12, abs=0)
    assert rep.triangle_holds


def _perturbation_formula(g, p):
    """The parts m1..m4 and m of perturbation_diagnostics and its identity
    residual, written on whole arrays."""
    n, r, s = g.n, g.r, g.s
    cap_n = g.dim
    d = expected_stop_degree(n, r, s, p)
    kn = kneser_adjacency(n, s).astype(np.float64)
    w = g.weights.astype(np.float64)
    ew = binom(n - 2 * s, r - 2 * s) * p * kn
    c = w - ew
    inv_sqrt = 1.0 / np.sqrt(g.stop_degrees.astype(np.float64))
    scale = np.outer(inv_sqrt, inv_sqrt)
    rs = binom(r - s, s)
    m1 = (c * scale - c / d) / rs
    m2 = c / (rs * d)
    m3 = (ew * scale) / rs - (d / cap_n) * scale - kn / binom(n - s, s) + 1 / cap_n
    m4 = (d * scale - 1) / cap_n
    m = (w * scale) / rs - kn / binom(n - s, s)
    return [m1, m2, m3, m4, m], float(np.abs(m - (m1 + m2 + m3 + m4)).max())


@pytest.mark.parametrize("h, s, p", [
    (sample(RandomModel(12, 3, 0.5, 0)), 1, 0.5),
    (sample(RandomModel(16, 3, 0.3, 1)), 1, 0.3),
    (sample(RandomModel(10, 2, 0.6, 2)), 1, 0.6),
    (sample(RandomModel(14, 4, 0.5, 2)), 2, 0.5),
    (sample(RandomModel(24, 4, 0.3, 0)), 2, 0.3),
    (complete(10, 4), 2, 0.5),
    (sample(RandomModel(10, 4, 0.05, 0)), 2, 0.05),
], ids=["12-3-s1", "16-3-s1", "10-2-s1", "14-4-s2", "24-4-s2", "complete-s2", "dead-stops-s2"])
def test_perturbation_bits_match_the_whole_array_formula(h, s, p, monkeypatch):
    """Each part reaches the solver with the bits of the whole-array formula,
    once, and the residual is the same float."""
    g = build_aux(h, s)
    if g.kept.size < g.dim:  # 7 dead stops: refused before any matrix
        with pytest.raises(ZeroDegree):
            perturbation_diagnostics(g, p)
        return
    seen = []

    def recorded(m):
        seen.append(m.copy())
        return spectral_norm(m)

    monkeypatch.setattr(apps, "spectral_norm", recorded)
    rep = perturbation_diagnostics(g, p)
    parts, resid = _perturbation_formula(g, p)
    assert len(seen) == len(parts)
    for want in parts:
        assert sum(np.array_equal(got.view(np.int64), want.view(np.int64))
                   for got in seen) == 1
    assert list(rep.norms) == ["m", "m1", "m2", "m3", "m4"]
    assert [rep.norms[k] for k in ("m1", "m2", "m3", "m4", "m")] == [
        spectral_norm(m) for m in parts]
    assert rep.identity_residual == resid


def test_perturbation_working_set():
    """Five dense matrices and the symmetry check's temporary, beside g's own
    weights: the whole-array formula peaks at 12.0 matrices here."""
    g = build_aux(sample(RandomModel(24, 4, 0.3, 0)), 2)
    dim = g.dim  # 276
    tracemalloc.start()
    try:
        perturbation_diagnostics(g, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * dim * dim * 8
