"""Auxiliary weighted graph on s-sets and its normalized Laplacian.

The auxiliary graph of a hypergraph puts weight W(S,T) = number of edges
containing S u T on every pair of disjoint s-sets S, T (zero otherwise).
Its weighted degree is C(r-s,s) d_S, with d_S the number of edges through
S, so the normalized Laplacian I - D^{-1/2} W D^{-1/2} restricted to the
positive-degree s-sets (the live stops, AuxGraph.kept) captures the s-th
spectral structure of the hypergraph; normalized_laplacian returns it as
a plain float64 array on those stops.  All matrices are dense; s-sets
are indexed in colex order.
The colex ranks and the disjointness rule come from combin (subset_ranks
and _disjoint_columns); this module only counts with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .combin import (EigenPair, _check_loose, _check_probability, _disjoint_columns,
                     _int_at_least, _kneser_terms, binom, kneser_adjacency, subset_ranks)
from .errors import BadParams, DimMismatch, TooLarge
from .hypergraph import Hypergraph, _ints
from .spectra import _as_array

MAX_DENSE_DIM = 2048


@dataclass(frozen=True)
class AuxGraph:
    """Auxiliary weighted graph of a hypergraph at stop size s.

    weights[a, b] is the codegree of the disjoint s-sets of colex ranks a
    and b; stop_degrees[a] is the hypergraph degree of the a-th s-set.
    The live stops are the s-sets of positive degree; kept lists their
    ranks, and the Laplacian, the random walk and the hop distances live
    on them.
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
    def kept(self) -> np.ndarray:
        """Colex ranks of the live stops, the positive-degree s-sets, in order."""
        return np.flatnonzero(self.stop_degrees > 0)

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
        raise TooLarge(f"C({n}, {s}) s-sets exceed the dense budget of {MAX_DENSE_DIM}")
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


def normalized_laplacian(g: AuxGraph) -> np.ndarray:
    """I - D^{-1/2} W D^{-1/2} on the live stops g.kept, in their order.

    Built in place in one float64 copy of the weights: the scaled weights
    x become 0.0 - x, then 1.0 is added on the diagonal, which gives the
    same bits as 1.0 - x there.
    """
    kept = g.kept
    w = g.weights if kept.size == g.dim else g.weights[np.ix_(kept, kept)]
    w = w.astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(g.degrees[kept].astype(np.float64))
    w *= np.outer(inv_sqrt, inv_sqrt)
    np.subtract(0.0, w, out=w)
    w.ravel()[:: kept.size + 1] += 1.0  # the diagonal of w, as a view
    return w


def complete_spectrum(n: int, r: int, s: int) -> list[EigenPair]:
    """Closed-form Laplacian spectrum of the complete r-uniform hypergraph.

    Eigenvalue 1 - k/C(n-s, s) for each Kneser K(n,s) eigenvalue k, with
    its multiplicity, returned ascending by value.  Multiplicities sum to
    C(n,s).
    """
    n = _int_at_least(n, "n", -math.inf)
    _check_loose(r, s)
    if n < r:
        raise BadParams(f"complete hypergraph needs n >= r, got n={n}, r={r}")
    denom = binom(n - s, s)
    pairs = [EigenPair(1.0 - k / denom, mult) for k, mult in _kneser_terms(n, s)]
    return sorted(pairs, key=lambda pr: pr.value)


def centered_weight(g: AuxGraph, p: float) -> np.ndarray:
    """The weights of the auxiliary graph g minus their Bernoulli(p)
    expectation C(n-2s, r-2s) p K, with K the Kneser adjacency on s-sets."""
    _check_probability(p)
    c = g.weights.astype(np.float64)
    if g.n >= 2 * g.s:
        c -= binom(g.n - 2 * g.s, g.r - 2 * g.s) * p * kneser_adjacency(g.n, g.s)
    return c


def dump_matrix(m: np.ndarray, fh: IO[str]) -> None:
    """Write dim header, then one lower-triangle row per line.

    m must pass the symmetric-matrix check of the eigensolver: a matrix
    within 1e-10 of symmetric is written by its lower triangle, which is
    all that eigvalsh reads.  Entries are shortest round-trip float reprs,
    so load_matrix recovers the triangle exactly, and an exactly symmetric
    matrix in full.
    """
    a = _as_array(m)
    fh.write(f"{len(a)}\n")
    for i in range(len(a)):
        fh.write(" ".join(repr(float(x)) for x in a[i, : i + 1]) + "\n")


def load_matrix(fh: IO[str]) -> np.ndarray:
    """Parse the format written by dump_matrix; only blank lines may
    follow the last row.  A dimension past MAX_DENSE_DIM is TooLarge, as
    for every dense matrix the library builds."""
    header = fh.readline().split()
    if len(header) != 1:
        raise DimMismatch(f"expected a lone dimension header, got {header!r}")
    (dim,) = _ints(header, "header")
    if dim < 0:
        raise DimMismatch(f"dimension must be nonnegative, got {dim}")
    if dim > MAX_DENSE_DIM:  # refused before the dim x dim array is allocated
        raise TooLarge(f"dimension {dim} exceeds the dense budget of {MAX_DENSE_DIM}")
    a = np.zeros((dim, dim))
    for i in range(dim):
        row = fh.readline().split()
        if len(row) != i + 1:
            raise DimMismatch(f"row {i} has {len(row)} entries, expected {i + 1}")
        try:
            vals = [float(x) for x in row]
        except ValueError as exc:
            raise BadParams(
                f"line {i + 2} (row {i}) has a non-float token in {row!r}"
            ) from exc
        a[i, : i + 1] = vals
        a[: i + 1, i] = vals
    for lineno, line in enumerate(fh, start=dim + 2):
        if line.strip():
            raise DimMismatch(f"line {lineno} holds data after the last row")
    return _as_array(a)
