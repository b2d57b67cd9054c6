"""End-to-end acceptance checklist.

Thirteen numbered checks, one per shipped capability, each printing a
single PASS/FAIL line (run pytest with -s to see them all).  Frozen
constants: random instances use seeds counted up from 0, slack factors
and tolerances are stated inline next to each check.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hyperlap import (
    RandomModel,
    binom,
    build_aux,
    census,
    census_upper_bound,
    centered_weight,
    complete,
    complete_spectrum,
    degree_stats,
    deviation,
    diameter_bound,
    Ecdf,
    eigenvalues_sym,
    ekr_bound,
    enumerate_closed_walks,
    expected_trace,
    is_connected,
    kneser_adjacency,
    kneser_spectrum,
    ks_distance,
    mixing_contraction,
    monotonicity_check,
    normalized_laplacian,
    s_diameter,
    sample,
    semicircle_cdf,
    spectral_norm,
    spectral_radius,
    stop_degree_check,
    transition_system,
    tree_walk_count,
)
from hyperlap.cli import main


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - acceptance {num:02d}: {detail}")
    assert ok, f"acceptance {num:02d}: {detail}"


def _expand(pairs) -> np.ndarray:
    return np.sort(np.concatenate([np.full(m, v, dtype=np.float64) for v, m in pairs]))


# shared random model for checks 6, 7 and the first half of 12
RADIUS_MODEL = (30, 3, 1, 0.5)

# tree-cell grid shared by checks 3 and 4: (r, s, max k, max n)
TREE_GRID = ((2, 1, 3, 7), (3, 1, 2, 7), (4, 2, 1, 9))


def test_01_complete_laplacian_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n, r, s in ((8, 2, 1), (9, 3, 1), (10, 4, 2), (9, 4, 2)):
        want = _expand((ep.value, ep.multiplicity) for ep in complete_spectrum(n, r, s))
        got = eigenvalues_sym(normalized_laplacian(build_aux(complete(n, r), s)))
        worst = max(worst, float(np.abs(got.values - want).max()))
    elapsed = time.perf_counter() - t0
    _line(1, worst <= 1e-9 and elapsed < 30.0,
          f"closed-form spectrum max error {worst:.2e} (tol 1e-09) in {elapsed:.1f}s (limit 30s)")


def test_02_disjointness_graph_spectrum():
    pairs = sorted((ep.value, ep.multiplicity) for ep in kneser_spectrum(5, 2))
    exact_ok = pairs == [(-2, 4), (1, 5), (3, 1)]
    want = _expand(((-2.0, 4), (1.0, 5), (3.0, 1)))
    got = np.linalg.eigvalsh(kneser_adjacency(5, 2).astype(np.float64))
    err = float(np.abs(np.sort(got) - want).max())
    _line(2, exact_ok and err <= 1e-9,
          f"disjointness graph on 2-sets of [5]: multiplicity table exact={exact_ok}, "
          f"adjacency eigensolve error {err:.2e} (tol 1e-09)")


def test_03_tree_cell_census_formula():
    t0 = time.perf_counter()
    cells = bad = 0
    for r, s, kmax, nmax in TREE_GRID:
        for n in range(max(r, 2 * s), nmax + 1):
            for k in range(1, kmax + 1):
                m_k = s + k * (r - s)
                counted = census(n, r, s, 2 * k).counts.get((k, m_k), 0)
                cells += 1
                if counted != tree_walk_count(n, r, s, k):
                    bad += 1
    elapsed = time.perf_counter() - t0
    _line(3, bad == 0 and elapsed < 300.0,
          f"tree-cell census equals the product formula on {cells} grid cells, "
          f"{bad} mismatches, in {elapsed:.1f}s (limit 300s)")


def test_04_expected_trace_oracle():
    bad = 0
    ps = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    pts = 0
    for r, s, _, nmax in TREE_GRID:
        for n in range(max(r, 2 * s), nmax + 1):
            p = ps[n % 3]
            want = binom(n, s) * binom(n - s, s) * binom(n - 2 * s, r - 2 * s) * p * (1 - p)
            if expected_trace(n, r, s, 2, p, exact=True) != want:
                bad += 1
            pts += 1

    # t=4 check against a direct simulation: 1e5 independent instances of
    # the centered pair-weight matrix at (n=6, r=2, s=1, p=1/2), trace of
    # the fourth power via the squared Frobenius norm of the square
    exact = float(expected_trace(6, 2, 1, 4, Fraction(1, 2), exact=True))
    rng = np.random.default_rng(20260818)
    nn, p, trials = 6, 0.5, 100_000
    iu = np.triu_indices(nn, k=1)
    a = np.zeros((trials, nn, nn))
    a[:, iu[0], iu[1]] = rng.random((trials, iu[0].size)) < p
    a = a + a.transpose(0, 2, 1)
    c = a - p * (np.ones((nn, nn)) - np.eye(nn))
    c2 = np.einsum("bij,bjk->bik", c, c)
    vals = np.einsum("bij,bij->b", c2, c2)
    se = vals.std(ddof=1) / math.sqrt(trials)
    gap = abs(float(vals.mean()) - exact)
    _line(4, bad == 0 and gap <= 3 * se,
          f"order-2 trace exact on {pts} rational grid points ({bad} mismatches); "
          f"order-4 Monte Carlo gap {gap:.4f} <= 3se={3 * se:.4f}")


def test_05_walk_bound_sweep():
    t0 = time.perf_counter()
    grids = [(n, r, 1, t) for r in (2, 3) for n in range(r, 8) for t in range(2, 7)]
    grids.append((9, 4, 2, 4))
    deg_bad = seqs = 0
    cell_bad = cells = 0
    for n, r, s, t in grids:
        # the degree check depends only on the edge sequence, dedupe on it
        seen = set()
        for w in enumerate_closed_walks(n, r, s, t, good_only=True):
            if w.edges in seen:
                continue
            seen.add(w.edges)
            if not stop_degree_check(w).holds:
                deg_bad += 1
        seqs += len(seen)
        for (i, j), cnt in census(n, r, s, t).counts.items():
            cells += 1
            if cnt > census_upper_bound(n, r, s, t, i, j):
                cell_bad += 1
    elapsed = time.perf_counter() - t0
    _line(5, deg_bad == 0 and cell_bad == 0,
          f"discounted stop-degree bound: {deg_bad} violations over {seqs} edge sequences; "
          f"census cell bound: {cell_bad} violations over {cells} cells; {elapsed:.0f}s")


def test_06_random_radius_bound():
    n, r, s, p = RADIUS_MODEL
    dev_bound = 3.5 * math.sqrt((1 - p) / (binom(n - s, r - s) * p))
    rad_bound = s / (n - s) + dev_bound
    ref = eigenvalues_sym(normalized_laplacian(build_aux(complete(n, r), s)))
    rad_ok = dev_ok = 0
    for seed in range(50):
        h = sample(RandomModel(n, r, p, seed))
        spec = eigenvalues_sym(normalized_laplacian(build_aux(h, s)))
        if spectral_radius(spec) <= rad_bound:
            rad_ok += 1
        if deviation(spec, ref) <= dev_bound:
            dev_ok += 1
    _line(6, rad_ok >= 49 and dev_ok >= 49,
          f"radius within 3.5-slack bound in {rad_ok}/50 trials, full sorted-spectrum "
          f"deviation within bound in {dev_ok}/50 (need 49)")


def test_07_eigenvalue_shift_vs_difference_norm():
    n, r, s, p = RADIUS_MODEL
    ref_mat = normalized_laplacian(build_aux(complete(n, r), s))
    ref = eigenvalues_sym(ref_mat)
    bad = 0
    worst = -math.inf
    for seed in range(100):
        mat = normalized_laplacian(build_aux(sample(RandomModel(n, r, p, seed)), s))
        gap = deviation(eigenvalues_sym(mat), ref) - spectral_norm(mat - ref_mat)
        worst = max(worst, gap)
        if gap > 1e-9:
            bad += 1
    _line(7, bad == 0,
          f"sorted-eigenvalue shift exceeded the perturbation norm in {bad}/100 "
          f"instances (worst slack {worst:.2e}, tol 1e-09)")


def test_08_semicircle_fit():
    t0 = time.perf_counter()
    n, r, s, p = 40, 3, 1, 0.3
    radius = 2.0 * math.sqrt(binom(r - s, s) * binom(n - s, r - s) * p * (1 - p))
    pool = np.concatenate([
        eigenvalues_sym(centered_weight(build_aux(sample(RandomModel(n, r, p, seed)), s), p)).values
        for seed in range(30)
    ]) / radius
    ks = ks_distance(Ecdf(pool), semicircle_cdf)
    elapsed = time.perf_counter() - t0
    _line(8, ks <= 0.05 and elapsed < 300.0,
          f"pooled scaled spectrum vs semicircle: KS {ks:.4f} (tol 0.05) over "
          f"{pool.size} eigenvalues in {elapsed:.1f}s (limit 300s)")


def test_09_mixing_and_diameter():
    n, r, s, p = 12, 3, 1, 0.5
    fixtures = [(complete(10, 4), 2), (complete(7, 2), 1)]
    seeded = [(sample(RandomModel(n, r, p, seed)), s) for seed in range(20)]
    mix_bad = diam_bad = 0
    for idx, (h, ss) in enumerate(fixtures + seeded):
        g = build_aux(h, ss)
        assert is_connected(g)
        spec = eigenvalues_sym(normalized_laplacian(g))
        lam = spectral_radius(spec)
        if not mixing_contraction(transition_system(g), lam, steps=3).holds:
            mix_bad += 1
        if idx >= len(fixtures) and s_diameter(g) > diameter_bound(spec, g):
            diam_bad += 1
    _line(9, mix_bad == 0 and diam_bad == 0,
          f"contraction factor above radius+1e-09 on {mix_bad}/22 fixtures; "
          f"walk diameter above spectral bound on {diam_bad}/20 seeded instances")


def test_10_intersecting_family_bound():
    bad = pts = 0
    for n in range(2, 17):
        for s in range(1, n // 2 + 1):
            pts += 1
            if ekr_bound(n, s).bound != binom(n - 1, s - 1):
                bad += 1
    _line(10, bad == 0,
          f"min eigenvalue-sign count equals the star size C(n-1,s-1) on "
          f"{pts} (n,s) pairs, {bad} mismatches")


def test_11_stop_size_monotonicity():
    bad = 0
    for seed in range(20):
        rep = monotonicity_check(sample(RandomModel(12, 4, 0.6, seed)), tol=1e-9)
        if not (rep.lambda1_nonincreasing and rep.lambda_max_nondecreasing):
            bad += 1
    _line(11, bad == 0,
          f"lambda_1 nonincreasing and lambda_max nondecreasing across stop sizes "
          f"on {20 - bad}/20 random 4-uniform instances")


def test_12_degree_concentration():
    n, r, s, p = RADIUS_MODEL
    d = binom(n - s, r - s) * p
    window = 3.0 * math.sqrt(d * math.log(binom(n, s)))
    outside = 0
    for seed in range(20):
        degs = degree_stats(sample(RandomModel(n, r, p, seed)), s)
        outside += int(((degs <= d - window) | (degs >= d + window)).sum())

    n2, r2, s2, p2 = 40, 3, 1, 0.5
    d2 = binom(n2 - s2, r2 - s2) * p2
    ref = binom(n2, s2) * d2 * (1 - p2)
    inside = 0
    for seed in range(20):
        degs = degree_stats(sample(RandomModel(n2, r2, p2, seed)), s2)
        if 0.75 <= float(((degs - d2) ** 2).sum()) / ref <= 1.25:
            inside += 1
    _line(12, outside == 0 and inside >= 15,
          f"degrees outside the 3-sigma-log window: {outside} stops over 20 seeds; "
          f"squared-deviation sum within 25% of its mean in {inside}/20 seeds (need 15)")


CLI_RUNS = (
    ("spectrum", "--complete", "--n", "8", "--r", "4", "--s", "2", "--format", "json"),
    ("radius", "--n", "14", "--r", "3", "--s", "1", "--p", "0.5",
     "--trials", "3", "--seed", "7"),
    ("semicircle", "--n", "16", "--r", "3", "--s", "1", "--p", "0.4",
     "--trials", "2", "--seed", "3", "--bins", "12"),
    ("walk-count", "--n", "5", "--r", "2", "--s", "1", "--t", "4", "--format", "csv"),
    ("mixing", "--n", "12", "--r", "3", "--s", "1", "--p", "0.5",
     "--trials", "2", "--seed", "5", "--steps", "2"),
    ("diameter", "--n", "12", "--r", "3", "--s", "1", "--p", "0.5",
     "--trials", "2", "--seed", "5"),
    ("expansion", "--n", "12", "--r", "3", "--s", "1", "--p", "0.5",
     "--trials", "2", "--seed", "5"),
    ("monotonicity", "--complete", "--n", "10", "--r", "4"),
    ("ekr", "--n", "12", "--s", "3"),
    ("diagnostics", "--n", "14", "--r", "3", "--s", "1", "--p", "0.5",
     "--trials", "2", "--seed", "9"),
)


def test_13_cli_determinism(tmp_path, capsys):
    stable = 0
    for idx, args in enumerate(CLI_RUNS):
        out = tmp_path / f"run{idx}.out"
        argv = list(args) + ["--deterministic", "--output", str(out)]
        rc1 = main(argv)
        first = out.read_bytes()
        rc2 = main(argv)
        capsys.readouterr()
        if rc1 == rc2 and rc1 in (0, 1) and first == out.read_bytes():
            stable += 1
    _line(13, stable == len(CLI_RUNS),
          f"byte-identical deterministic re-runs for {stable}/{len(CLI_RUNS)} CLI commands")
