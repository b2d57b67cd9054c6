"""Spectra of symmetric matrices and empirical-distribution comparisons.

Eigenvalues come from the LAPACK symmetric solver and are always reported
in ascending order.  The semicircle CDF and the Kolmogorov-Smirnov
statistic support checking scaled centered-weight spectra against the
limiting law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import (
    BadParams,
    DimMismatch,
    Disconnected,
    EigenFail,
    EmptySample,
)

ZERO_TOL = 1e-8

# entries of a dim x dim matrix that one row-block pass of the matrix layer
# holds in each temporary: 128 KB of float64
_BLOCK_ENTRIES = 2**14


def _row_blocks(dim: int) -> Iterator[slice]:
    """Consecutive row slices of a dim x dim matrix, each of about
    _BLOCK_ENTRIES entries and at least one row, covering range(dim).

    The matrix layer builds and checks its dense matrices a row block at a
    time, so a temporary holds one block, not a whole matrix; every entry
    is the same IEEE operation as in the whole-array formula.
    """
    step = max(1, _BLOCK_ENTRIES // max(dim, 1))
    return (slice(i, i + step) for i in range(0, dim, step))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, ascending."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DimMismatch(f"expected a vector of eigenvalues, got shape {v.shape}")
        # NaN fails every comparison, so the order test would pass it
        if not np.isfinite(v).all():
            raise BadParams("eigenvalues must be finite")
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


def _as_array(m) -> np.ndarray:
    """m as a float64 array, held to the one rule for a symmetric matrix.

    Every solver, dump and load of a matrix goes through this check: m must
    hold real numbers (bool reads as 0/1), be square, be finite and lie
    within 1e-10 of its transpose.  A float64 array is not copied.  The
    finiteness test reduces to the minimum and maximum, which NaN and inf
    reach, and the symmetry test runs a row block at a time (_row_blocks),
    a[b] - a[:, b].T, so the check holds no dim x dim temporary.  Every
    entry is tested before any is compared with its transpose.
    """
    try:
        a = np.asarray(m)
    except ValueError as exc:  # ragged rows
        raise BadParams(f"matrix is not a rectangular array: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise BadParams(f"matrix entries must be real numbers, got dtype {a.dtype}")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    # NaN fails the symmetry test, so check finiteness first; min and max
    # propagate NaN
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise BadParams("matrix has non-finite entries")
    for b in _row_blocks(len(a)):
        diff = a[b] - a[:, b].T
        if not (np.abs(diff, out=diff) <= 1e-10).all():
            raise DimMismatch("matrix is not symmetric")
    return a


def eigenvalues_sym(m: np.ndarray) -> Spectrum:
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
    """The paper's lambda_bar = max_{i != 0} |1 - lambda_i|, which for a
    Laplacian spectrum in [0, 2] is max(1 - lambda1, lambda_max - 1).

    The library's one lambda_bar.  Only defined for the Laplacian of a
    connected auxiliary graph, i.e. exactly one eigenvalue within ZERO_TOL
    of zero (else Disconnected), and at least two eigenvalues (else
    DimMismatch).
    """
    if spec.trivial_count != 1:
        raise Disconnected(
            f"expected exactly one near-zero eigenvalue, found {spec.trivial_count}"
        )
    if spec.dim < 2:
        raise DimMismatch("lambda_bar needs at least two eigenvalues")
    return max(1.0 - spec.lambda1, spec.lambda_max - 1.0)


def spectral_norm(m: np.ndarray) -> float:
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
