"""Spectra of symmetric matrices and empirical-distribution comparisons.

Eigenvalues come from the LAPACK symmetric solver and are always reported
in ascending order.  The semicircle CDF and the Kolmogorov-Smirnov
statistic support checking scaled centered-weight spectra against the
limiting law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    BadParams,
    BadRadius,
    DimMismatch,
    Disconnected,
    EigenFail,
    EmptySample,
)
from .laplacian import SymMatrix

ZERO_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, ascending."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimMismatch(f"expected a vector of eigenvalues, got shape {v.shape}")
        if v.size > 1 and np.any(np.diff(v) < 0):
            raise BadParams("eigenvalues must be ascending")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def trivial_count(self) -> int:
        """Number of eigenvalues within ZERO_TOL of zero."""
        return int((np.abs(self.values) <= ZERO_TOL).sum())

    @property
    def lambda1(self) -> float:
        """Second-smallest eigenvalue."""
        if self.dim < 2:
            raise DimMismatch("lambda1 needs at least two eigenvalues")
        return float(self.values[1])

    @property
    def lambda_max(self) -> float:
        if self.dim < 1:
            raise EmptySample("empty spectrum")
        return float(self.values[-1])

    @property
    def lambda_bar(self) -> float:
        """max(1 - lambda1, lambda_max - 1), the nontrivial radius around 1."""
        if self.dim < 2:
            raise DimMismatch("lambda_bar needs at least two eigenvalues")
        return max(1.0 - self.lambda1, self.lambda_max - 1.0)


def _as_array(m: SymMatrix | np.ndarray) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return m.entries
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10, rtol=0.0):
        raise DimMismatch("matrix is not symmetric")
    if not np.isfinite(a).all():
        raise BadParams("matrix has non-finite entries")
    return a


def eigenvalues_sym(m: SymMatrix | np.ndarray) -> Spectrum:
    """All eigenvalues of a symmetric matrix, ascending."""
    a = _as_array(m)
    if a.size == 0:
        return Spectrum(np.zeros(0))
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFail(f"symmetric eigensolver failed: {exc}") from exc
    return Spectrum(vals)


def spectral_radius(spec: Spectrum) -> float:
    """Nontrivial spectral radius max(1 - lambda1, lambda_max - 1).

    Only defined for the Laplacian of a connected auxiliary graph, i.e.
    exactly one eigenvalue within ZERO_TOL of zero.
    """
    if spec.trivial_count != 1:
        raise Disconnected(
            f"expected exactly one near-zero eigenvalue, found {spec.trivial_count}"
        )
    return spec.lambda_bar


def spectral_norm(m: SymMatrix | np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    vals = eigenvalues_sym(m).values
    if vals.size == 0:
        return 0.0
    return float(np.abs(vals).max())


def deviation(a: Spectrum, b: Spectrum) -> float:
    """Largest eigenvalue gap max_k |a_k - b_k| between equal-length spectra."""
    if a.dim != b.dim:
        raise DimMismatch(f"spectra have different sizes: {a.dim} vs {b.dim}")
    if a.dim == 0:
        return 0.0
    return float(np.abs(a.values - b.values).max())


def semicircle_cdf(x):
    """CDF of the semicircle law on [-1, 1].

    F(x) = 1/2 + (x sqrt(1-x^2) + arcsin x)/pi on the support; accepts
    scalars or arrays.
    """
    a = np.asarray(x, dtype=np.float64)
    inner = np.clip(a, -1.0, 1.0)
    out = 0.5 + (inner * np.sqrt(1.0 - inner**2) + np.arcsin(inner)) / math.pi
    out = np.where(a <= -1.0, 0.0, np.where(a >= 1.0, 1.0, out))
    if np.isscalar(x):
        return float(out)
    return out


@dataclass(frozen=True)
class Ecdf:
    """Empirical CDF of a finite sample, stored as sorted points."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.sort(np.asarray(self.points, dtype=np.float64).ravel())
        if p.size == 0:
            raise EmptySample("empirical CDF of an empty sample")
        if not np.all(np.isfinite(p)):
            raise BadParams("sample has non-finite points")
        object.__setattr__(self, "points", p)


def scaled_ecdf(spec: Spectrum | np.ndarray, center: float, radius: float) -> Ecdf:
    """Empirical CDF of (values - center) / radius."""
    if radius <= 0:
        raise BadRadius(f"radius must be positive, got {radius}")
    vals = spec.values if isinstance(spec, Spectrum) else np.asarray(spec)
    return Ecdf((vals - center) / radius)


def ks_distance(sample: Ecdf, cdf: Callable) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF.

    sup_x |F_m(x) - F(x)| computed exactly at the jump points:
    max_i max(i/m - F(x_i), F(x_i) - (i-1)/m) over the sorted sample.
    cdf must accept the array of sorted points and return an array of the
    same shape, as semicircle_cdf does.
    """
    pts = sample.points
    ref = np.asarray(cdf(pts), dtype=np.float64)
    m = pts.size
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.maximum(hi - ref, ref - lo).max())
