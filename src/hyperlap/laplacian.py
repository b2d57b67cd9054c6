"""Auxiliary weighted graph on s-sets and its normalized Laplacian.

The auxiliary graph of a hypergraph puts weight W(S,T) = number of edges
containing S u T on every pair of disjoint s-sets S, T (zero otherwise).
Its weighted degree is C(r-s,s) d_S, with d_S the number of edges through
S, so the normalized Laplacian I - D^{-1/2} W D^{-1/2} restricted to
positive-degree s-sets captures the s-th spectral structure of the
hypergraph.  All matrices are dense; s-sets are indexed in colex order.
The colex ranks and the disjointness rule come from combin (subset_ranks
and _disjoint_columns); this module only counts with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .combin import (EigenPair, _check_loose, _disjoint_columns, binom,
                     kneser_adjacency, subset_ranks)
from .errors import BadParams, DimMismatch, TooLarge
from .hypergraph import Hypergraph

MAX_DENSE_DIM = 2048


@dataclass(frozen=True)
class SymMatrix:
    """A dense real symmetric matrix."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise DimMismatch("matrix is not symmetric")
        if a.size and not np.all(np.isfinite(a)):
            raise BadParams("matrix has non-finite entries")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class AuxGraph:
    """Auxiliary weighted graph of a hypergraph at stop size s.

    weights[a, b] is the codegree of the disjoint s-sets of colex ranks a
    and b; stop_degrees[a] is the hypergraph degree of the a-th s-set.
    """

    n: int
    r: int
    s: int
    weights: np.ndarray = field(repr=False)
    stop_degrees: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degrees of the auxiliary graph: C(r-s,s) * stop degree."""
        return binom(self.r - self.s, self.s) * self.stop_degrees

    @property
    def volume(self) -> int:
        return int(self.degrees.sum())


def _dense_dim(n: int, s: int) -> int:
    """C(n,s), the dimension of the dense matrices on the s-sets of range(n),
    or TooLarge past MAX_DENSE_DIM; it needs no hypergraph to check."""
    dim = binom(n, s)
    if dim > MAX_DENSE_DIM:
        raise TooLarge(f"{dim} s-sets exceed the dense budget of {MAX_DENSE_DIM}")
    return dim


def build_aux(h: Hypergraph, s: int) -> AuxGraph:
    """Assemble the dense auxiliary weight matrix of h at stop size s."""
    _check_loose(h.r, s)
    dim = _dense_dim(h.n, s)
    ranks = subset_ranks(h._edge_array, h.n, s)
    a, b = _disjoint_columns(h.r, s)
    degrees = np.bincount(ranks.ravel(), minlength=dim)
    pairs = (ranks[:, a] * dim + ranks[:, b]).ravel()
    weights = np.bincount(pairs, minlength=dim * dim).reshape(dim, dim)
    return AuxGraph(h.n, h.r, s, weights, degrees)


@dataclass(frozen=True)
class Laplacian:
    """Normalized Laplacian of an auxiliary graph, restricted to the
    positive-degree s-sets (colex ranks in `kept`)."""

    matrix: SymMatrix
    kept: np.ndarray = field(repr=False)
    excluded: np.ndarray = field(repr=False)


def normalized_laplacian(g: AuxGraph) -> Laplacian:
    """I - D^{-1/2} W D^{-1/2} on the positive-degree part of the aux graph."""
    pos = g.stop_degrees > 0
    kept = np.flatnonzero(pos)
    excluded = np.flatnonzero(~pos)
    w = g.weights[np.ix_(kept, kept)].astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(g.degrees[kept].astype(np.float64))
    lap = np.eye(kept.size) - w * np.outer(inv_sqrt, inv_sqrt)
    return Laplacian(SymMatrix(lap), kept, excluded)


def complete_spectrum(n: int, r: int, s: int) -> list[EigenPair]:
    """Closed-form Laplacian spectrum of the complete r-uniform hypergraph.

    Eigenvalue 1 - (-1)^i C(n-s-i, s-i)/C(n-s, s) with multiplicity
    C(n,i) - C(n,i-1) for i = 0..s, returned ascending by value.
    Multiplicities sum to C(n,s).
    """
    _check_loose(r, s)
    if n < r:
        raise BadParams(f"complete hypergraph needs n >= r, got n={n}, r={r}")
    denom = binom(n - s, s)
    pairs = []
    for i in range(s + 1):
        val = 1.0 - (-1) ** i * binom(n - s - i, s - i) / denom
        mult = binom(n, i) - (binom(n, i - 1) if i >= 1 else 0)
        pairs.append(EigenPair(val, mult))
    return sorted(pairs, key=lambda pr: pr.value)


def centered_weight(h: Hypergraph, s: int, p: float) -> SymMatrix:
    """W minus its Bernoulli(p) expectation C(n-2s, r-2s) p K, with K the
    Kneser adjacency on s-sets."""
    _check_loose(h.r, s)
    if not 0 <= p <= 1:
        raise BadParams(f"probability must lie in [0, 1], got {p}")
    g = build_aux(h, s)
    c = g.weights.astype(np.float64)
    if h.n >= 2 * s:
        coef = binom(h.n - 2 * s, h.r - 2 * s) * p
        c -= coef * kneser_adjacency(h.n, s)
    return SymMatrix(c)


def dump_matrix(m: SymMatrix, fh: IO[str]) -> None:
    """Write dim header, then one lower-triangle row per line.

    Entries are shortest round-trip float reprs, so load_matrix recovers
    the matrix exactly.
    """
    fh.write(f"{m.dim}\n")
    a = m.entries
    for i in range(m.dim):
        fh.write(" ".join(repr(float(x)) for x in a[i, : i + 1]) + "\n")


def load_matrix(fh: IO[str]) -> SymMatrix:
    """Parse the format written by dump_matrix."""
    header = fh.readline().split()
    if len(header) != 1:
        raise DimMismatch(f"expected a lone dimension header, got {header!r}")
    dim = int(header[0])
    if dim < 0:
        raise DimMismatch(f"dimension must be nonnegative, got {dim}")
    a = np.zeros((dim, dim))
    for i in range(dim):
        row = fh.readline().split()
        if len(row) != i + 1:
            raise DimMismatch(f"row {i} has {len(row)} entries, expected {i + 1}")
        vals = [float(x) for x in row]
        a[i, : i + 1] = vals
        a[: i + 1, i] = vals
    return SymMatrix(a)
