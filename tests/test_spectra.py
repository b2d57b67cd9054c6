"""Eigensolver wrapper, spectral statistics, and the semicircle law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hyperlap import (
    BadParams,
    BadRadius,
    DimMismatch,
    Disconnected,
    Ecdf,
    EmptySample,
    RandomModel,
    Spectrum,
    build_aux,
    complete,
    deviation,
    eigenvalues_sym,
    hypergraph,
    ks_distance,
    normalized_laplacian,
    sample,
    scaled_ecdf,
    semicircle_cdf,
    spectral_norm,
    spectral_radius,
)
from hyperlap.spectra import ZERO_TOL


def test_eigenvalues_tiny():
    spec = eigenvalues_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert spec.values.tolist() == [-1.0, 1.0]
    spec = eigenvalues_sym(np.diag([3.0, 1.0, 4.0]))
    assert spec.values.tolist() == [1.0, 3.0, 4.0]


def test_eigenvalues_empty():
    assert eigenvalues_sym(np.zeros((0, 0))).dim == 0


def test_eigenvalues_rejects_asymmetric():
    with pytest.raises(DimMismatch):
        eigenvalues_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("solve", [eigenvalues_sym, spectral_norm])
def test_bare_array_rejects_non_finite(solve, bad):
    """A bare array is held to SymMatrix's rule, not solved into nan."""
    with pytest.raises(BadParams, match="non-finite"):
        solve(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("dim", [5, 40, 400])
def test_planted_spectrum_recovery(dim):
    """Rotate a known diagonal and ask for it back."""
    rng = np.random.default_rng(dim)
    planted = np.sort(rng.uniform(-5, 5, dim))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spec = eigenvalues_sym(q @ np.diag(planted) @ q.T)
    assert np.max(np.abs(spec.values - planted)) < 1e-9


@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_trace_preserved(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    a = (a + a.T) / 2
    spec = eigenvalues_sym(a)
    scale = max(1.0, spectral_norm(a))
    assert abs(spec.values.sum() - np.trace(a)) < 1e-8 * dim * scale


def test_spectrum_fields():
    spec = Spectrum(np.array([0.0, 0.5, 1.5]))
    assert spec.dim == 3
    assert spec.trivial_count == 1
    assert spec.lambda1 == 0.5
    assert spec.lambda_max == 1.5
    assert spec.lambda_bar == 0.5


def test_trivial_count_threshold():
    assert Spectrum(np.array([0.5 * ZERO_TOL, 1.0])).trivial_count == 1
    assert Spectrum(np.array([2 * ZERO_TOL, 1.0])).trivial_count == 0
    assert Spectrum(np.array([-0.5 * ZERO_TOL, 0.5 * ZERO_TOL, 1.0])).trivial_count == 2


@pytest.mark.parametrize("values, count", [
    ([2 * ZERO_TOL, 1.0, 1.5], 0),
    ([0.0, 0.5 * ZERO_TOL, 1.5], 2),
])
def test_spectral_radius_needs_one_trivial(values, count):
    with pytest.raises(Disconnected, match=f"found {count}$"):
        spectral_radius(Spectrum(np.array(values)))


def test_spectral_radius_complete():
    lap = normalized_laplacian(build_aux(complete(10, 4), 2))
    assert spectral_radius(eigenvalues_sym(lap.matrix)) == pytest.approx(0.25)
    lap = normalized_laplacian(build_aux(complete(9, 2), 1))
    assert spectral_radius(eigenvalues_sym(lap.matrix)) == pytest.approx(1 / 8)


def test_spectral_radius_disconnected():
    # two vertex-disjoint edges: the 1-set aux graph splits in two
    h = hypergraph(6, 3, [[0, 1, 2], [3, 4, 5]])
    spec = eigenvalues_sym(normalized_laplacian(build_aux(h, 1)).matrix)
    with pytest.raises(Disconnected):
        spectral_radius(spec)


def test_weyl_shift():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2
    sa = eigenvalues_sym(a)
    sb = eigenvalues_sym(a + 0.25 * np.eye(12))
    assert deviation(sa, sb) == pytest.approx(0.25, abs=1e-12)
    assert deviation(sa, sa) == 0.0


def test_weyl_inequality_random_pairs():
    """Sorted eigenvalues move at most the perturbation's spectral norm."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        dim = int(rng.integers(2, 25))
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) * rng.uniform(0.01, 2.0)
        a, b = (a + a.T) / 2, (b + b.T) / 2
        gap = deviation(eigenvalues_sym(a), eigenvalues_sym(a + b))
        assert gap <= spectral_norm(b) + 1e-9


def test_deviation_dim_mismatch():
    with pytest.raises(DimMismatch):
        deviation(eigenvalues_sym(np.eye(2)), eigenvalues_sym(np.eye(3)))


def test_semicircle_cdf_pins():
    assert semicircle_cdf(0.0) == 0.5
    assert semicircle_cdf(1.0) == 1.0
    assert semicircle_cdf(-1.0) == 0.0
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(3.0) == 1.0


def test_semicircle_cdf_against_quadrature():
    density = lambda t: (2 / np.pi) * np.sqrt(1 - t * t)
    for x in [-0.9, -0.5, -0.1, 0.3, 0.5, 0.77]:
        want, err = quad(density, -1, x)
        assert err < 1e-9
        assert semicircle_cdf(x) == pytest.approx(want, abs=1e-8)
    assert semicircle_cdf(0.5) == pytest.approx(0.80450, abs=5e-6)


def test_semicircle_cdf_shape():
    xs = np.linspace(-1, 1, 20001)
    ys = semicircle_cdf(xs)
    assert np.all(np.diff(ys) >= 0)
    # centered numeric derivative matches the density away from the edges,
    # where the square root's curvature stops fighting the finite difference
    mid = slice(500, -500)
    dens = (ys[2:] - ys[:-2]) / (xs[2] - xs[0])
    want = (2 / np.pi) * np.sqrt(1 - xs[1:-1] ** 2)
    assert np.max(np.abs(dens[mid] - want[mid])) < 1e-6


def test_scaled_ecdf():
    spec = Spectrum(np.array([1.0, 1.0, 1.0]))
    assert scaled_ecdf(spec, 1.0, 2.0).points.tolist() == [0.0, 0.0, 0.0]
    pts = scaled_ecdf(np.array([3.0, 1.0]), 1.0, 2.0).points
    assert pts.tolist() == [0.0, 1.0]
    with pytest.raises(BadRadius):
        scaled_ecdf(spec, 0.0, 0.0)


def test_ecdf_empty():
    with pytest.raises(EmptySample):
        Ecdf(np.array([]))


def test_ks_distance_quantile_sample():
    """Samples placed at exact quantiles are as close as a sample can be."""

    def quantile(q):
        lo, hi = -1.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if semicircle_cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    m = 1000
    pts = np.array([quantile((k - 0.5) / m) for k in range(1, m + 1)])
    assert ks_distance(Ecdf(pts), semicircle_cdf) <= 1 / (2 * m) + 1e-6


def test_ks_distance_point_mass():
    assert ks_distance(Ecdf(np.zeros(50)), semicircle_cdf) == pytest.approx(0.5)


def test_ks_distance_uniform_sample():
    # sup_x |(x+1)/2 - F(x)| = 0.05771 at x ~= 0.619; finite samples sit near it
    xs = np.linspace(-1, 1, 200_001)
    sup = np.max(np.abs((xs + 1) / 2 - semicircle_cdf(xs)))
    assert sup == pytest.approx(0.05771, abs=5e-5)
    rng = np.random.default_rng(0)
    d = ks_distance(Ecdf(rng.uniform(-1, 1, 10_000)), semicircle_cdf)
    assert abs(d - sup) < 0.02


def test_scaled_spectrum_support():
    """Centered weight eigenvalues stay inside the slightly inflated disk."""
    from hyperlap import binom, centered_weight

    n, r, s, p = 40, 3, 1, 0.3
    radius = 2 * np.sqrt(binom(2, 1) * binom(39, 2) * p * (1 - p))
    for seed in range(3):
        h = sample(RandomModel(n, r, p, seed))
        pts = scaled_ecdf(eigenvalues_sym(centered_weight(h, s, p)), 0.0, radius)
        assert pts.points.min() > -1.2
        assert pts.points.max() < 1.2
