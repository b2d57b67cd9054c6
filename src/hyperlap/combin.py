"""Exact combinatorics: binomials, colex ranking of s-sets, Kneser spectra.

s-sets are canonical tuples of strictly increasing vertex ids in
range(n).  Ranking is colexicographic: rank(S) = sum_i C(v_i, i+1) for
S = (v_0 < v_1 < ... < v_{s-1}), so {0,...,s-1} has rank 0 and the rank
of S does not depend on n.

This module is the one home of the two rules the s-th Laplacian is built
from: the colex rank of an s-set (subset_ranks, and its inverse
colex_unrank, in bulk over arrays) and the disjointness of two s-sets
(_disjoint, the disjoint column pattern _disjoint_columns and the Kneser
mask _kneser_mask).  The scalar sset_rank and sset_unrank are kept as the
reference the array kernels are tested against.

The kernels' constant tables are built once per process: the Pascal table
_comb_table(w, s), the subset positions _subset_columns(r, s) and the
disjoint column pairs _disjoint_columns(r, s).  Each is a read-only int64
array, so every caller shares it.  Only a table of at most _TABLE_ENTRIES
entries is kept, and at most _TABLE_RESULTS of them, oldest dropped first;
a bigger table is built on each call.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadParams, BadRank, BadVertex, DegenerateKneser, NotLoose, TooLarge

SSet = tuple[int, ...]

# the per-process table cache (see the module docstring) keeps at most
# _TABLE_RESULTS tables of at most _TABLE_ENTRIES int64 entries each:
# 32 * 2**12 * 8 B = 1 MB at worst
_TABLE_ENTRIES = 2**12
_TABLE_RESULTS = 32
_tables: dict[tuple[str, int, int], np.ndarray | tuple[np.ndarray, ...]] = {}
_tables_lock = threading.Lock()  # held to insert and evict; a lookup needs none


def _per_process(build):
    """Memoise build(a, b), a read-only table or tuple of tables, in
    _tables under (build's name, a, b).  The arguments are keyed as ints,
    so a float is the TypeError math.comb raises on it."""

    @functools.wraps(build)
    def table(a: int, b: int):
        key = (build.__name__, operator.index(a), operator.index(b))
        got = _tables.get(key)
        if got is None:
            got = build(a, b)
            arrays = got if isinstance(got, tuple) else (got,)
            for arr in arrays:
                arr.flags.writeable = False
            if sum(arr.size for arr in arrays) <= _TABLE_ENTRIES:
                with _tables_lock:
                    if len(_tables) >= _TABLE_RESULTS:
                        del _tables[next(iter(_tables))]
                    _tables[key] = got
        return got

    return table


# work cap shared by random sampling (candidate edges) and walk
# enumeration (search states) when no budget is given
DEFAULT_BUDGET = 10**8


def _work_budget(budget: int | None) -> int:
    """Resolve the work budget: the explicit arg, an integer, else
    DEFAULT_BUDGET."""
    if budget is None:
        return DEFAULT_BUDGET
    budget = _int_at_least(budget, "budget", -math.inf)
    if budget < 1:
        raise BadParams(f"budget must be positive, got {budget}")
    return budget


def _check_loose(r: int, s: int) -> None:
    r, s = _int_at_least(r, "r", -math.inf), _int_at_least(s, "s", -math.inf)
    if s < 1 or 2 * s > r:
        raise NotLoose(f"need 1 <= s <= r/2, got s={s}, r={r}")


def _int_at_least(x, name: str, lo: int) -> int:
    """x as a Python int >= lo, numpy ints included, else BadParams naming it."""
    try:
        x = operator.index(x)
    except TypeError:
        raise BadParams(f"{name} must be an integer, got {x!r}") from None
    if x < lo:
        raise BadParams(f"need {name} >= {lo}, got {x}")
    return x


def _check_probability(p) -> None:
    """p in [0, 1]; NaN fails the comparison and is rejected too."""
    if not 0 <= p <= 1:
        raise BadParams(f"probability must lie in [0, 1], got {p}")


def binom(n: int, k: int) -> int:
    """Exact C(n,k); 0 when k > n, error when either argument is negative
    or not an integer."""
    try:
        if n < 0 or k < 0:
            raise BadParams(f"binom needs nonnegative arguments, got ({n}, {k})")
        return math.comb(n, k)
    except TypeError:
        raise BadParams(f"binom needs integer arguments, got ({n!r}, {k!r})") from None


def _to_float(x: int, name: str) -> float:
    """The exact integer x as a float, or TooLarge naming x as name when
    it is past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise TooLarge(f"{name} exceeds the float range") from None


def catalan(k: int) -> int:
    """k-th Catalan number C(2k,k)/(k+1)."""
    try:
        if k < 0:
            raise BadParams(f"catalan needs k >= 0, got {k}")
        return math.comb(2 * k, k) // (k + 1)
    except TypeError:
        raise BadParams(f"catalan needs an integer, got {k!r}") from None


def as_sset(vertices: Iterable[int], n: int) -> SSet:
    """Canonicalize an iterable of vertex ids into an s-set tuple.

    Checks that labels are distinct integers in range(n), else BadVertex;
    a bool is not a vertex id, though Python counts it an int.
    """
    try:
        vs = tuple(sorted(vertices))
    except TypeError as exc:
        raise BadVertex(f"{vertices!r} is not a set of vertex ids: {exc}") from None
    if not vs:
        raise BadVertex("empty vertex set")
    for v in vs:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise BadVertex(f"vertex {v!r} is not an integer")
        if v < 0 or v >= n:
            raise BadVertex(f"vertex {v} outside range(0, {n})")
    if len(set(vs)) != len(vs):
        raise BadVertex(f"repeated vertex in {vs}")
    return tuple(map(int, vs))


def sset_rank(vertices: Iterable[int], n: int) -> int:
    """Colex rank of an s-set among all s-subsets of range(n)."""
    vs = as_sset(vertices, _int_at_least(n, "n", -math.inf))
    return sum(math.comb(v, i + 1) for i, v in enumerate(vs))


def _checked_rank(idx: int, n: int, s: int) -> tuple[int, int, int]:
    """idx, n and s as ints, or BadParams for a non-integer or s outside
    [1, n], else BadRank for idx outside [0, C(n, s))."""
    idx, n, s = (_int_at_least(x, name, -math.inf)
                 for x, name in zip((idx, n, s), ("idx", "n", "s")))
    if s < 1 or s > n:
        raise BadParams(f"need 1 <= s <= n, got s={s}, n={n}")
    total = math.comb(n, s)
    if idx < 0 or idx >= total:
        raise BadRank(f"rank {idx} outside [0, {total})")
    return idx, n, s


def _top_vertex(rem: int, hi: int, i: int) -> int:
    """The largest v <= hi with C(v, i) <= rem, by bisection; C(i - 1, i) = 0."""
    lo = i - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if math.comb(mid, i) <= rem else (lo, mid - 1)
    return lo


def sset_unrank(idx: int, n: int, s: int) -> SSet:
    """Inverse of sset_rank: the s-set of colex rank idx in range(n)."""
    rem, n, s = _checked_rank(idx, n, s)
    out = []
    hi = n - 1
    for i in range(s, 0, -1):
        v = _top_vertex(rem, hi, i)
        out.append(v)
        rem -= math.comb(v, i)
        hi = v - 1
    return tuple(reversed(out))


@_per_process
def _comb_table(n: int, s: int) -> np.ndarray:
    """(s+1, n) read-only table of C(v, i), clipped at C(n, s) to fit int64:
    each term of a rank below C(n, s) is itself below C(n, s), so no result
    changes.  Row i sums row i - 1, C(v, i) = sum_{u<v} C(u, i-1), in Python
    ints; a clipped term forces its sum past the clip, so clipping each row
    before the next sum gives the same table.  Kept per process when small."""
    cap = math.comb(n, s)
    tab = np.zeros((s + 1, n), dtype=object)
    tab[0] = min(1, cap)
    for i in range(1, s + 1):
        np.cumsum(tab[i - 1, :-1], out=tab[i, 1:])
        np.minimum(tab[i], cap, out=tab[i])
    return tab.astype(np.int64)


@_per_process
def _subset_columns(r: int, s: int) -> np.ndarray:
    """(C(r, s), s) read-only positions of the s-subsets of an r-set, row k
    the subset of colex rank k.  Kept per process when small."""
    return colex_unrank(np.arange(math.comb(r, s)), r, s)


def subset_ranks(sets: np.ndarray, n: int, s: int) -> np.ndarray:
    """Colex ranks of the s-subsets of each row of an (m, r) array of
    increasing vertex ids in range(n): an (m, C(r,s)) array whose column k
    is the subset at the positions colex_unrank(k, r, s).  The table spans
    range(w), w = min(n, largest id + 1): a rank of an s-subset of range(w)
    is below C(w, s), so the clip at C(w, s) changes none of its terms.
    The Pascal table and the column positions are the per-process ones."""
    sets = np.asarray(sets, dtype=np.int64)
    tab = _comb_table(min(n, int(sets.max()) + 1) if sets.size else 0, s)
    cols = _subset_columns(sets.shape[1], s)
    out = np.zeros((len(sets), len(cols)), dtype=np.int64)
    for i in range(s):
        out += tab[i + 1][sets[:, cols[:, i]]]
    return out


def colex_unrank(idx: np.ndarray, n: int, s: int) -> np.ndarray:
    """Bulk inverse of subset_ranks: one increasing row of vertex ids in
    range(n) per colex rank in idx; a rank outside [0, C(n, s)) is BadRank.
    The largest rank is checked and its top vertex found as in sset_unrank;
    the Pascal table below it is the per-process one."""
    rem = np.array(idx, dtype=np.int64)
    if rem.size and rem.min() < 0:
        raise BadRank(f"rank {rem.min()} outside [0, {binom(n, s)})")
    # the table spans range(w), w the top vertex of the largest rank plus one,
    # as in subset_ranks: every rank up to it is below C(w, s), so no row changes
    w = 0
    if rem.size:
        top, n, s = _checked_rank(int(rem.max()), n, s)
        w = _top_vertex(top, n - 1, s) + 1
    tab = _comb_table(w, s)
    out = np.empty((len(rem), s), dtype=np.int64)
    for i in range(s, 0, -1):  # the largest v with C(v, i) <= rem
        out[:, i - 1] = np.searchsorted(tab[i], rem, side="right") - 1
        rem -= tab[i][out[:, i - 1]]
    return out


def _disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bool matrix of which rows of a are disjoint from which rows of b."""
    out = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            out &= a[:, i, None] != b[None, :, j]
    return out


@_per_process
def _disjoint_columns(r: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Column pairs (a, b) of subset_ranks on r-sets with disjoint subsets,
    two read-only arrays kept per process when small."""
    pos = _subset_columns(r, s)
    return np.nonzero(_disjoint(pos, pos))


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue together with its multiplicity."""

    value: float
    multiplicity: int


def kneser_adjacency(n: int, s: int) -> np.ndarray:
    """0/1 adjacency of the Kneser graph K(n,s) on colex-ordered s-sets.

    Vertices are the C(n,s) s-sets, adjacent iff disjoint.  Defined for
    any n >= s >= 1 (all-zero when n < 2s).
    """
    n, s = _int_at_least(n, "n", -math.inf), _int_at_least(s, "s", -math.inf)
    if s < 1 or n < s:
        raise BadParams(f"need 1 <= s <= n, got s={s}, n={n}")
    return _kneser_mask(n, s).astype(np.int64)


def _kneser_mask(n: int, s: int) -> np.ndarray:
    """The bool Kneser adjacency of K(n,s) on colex-ordered s-sets, for
    1 <= s <= n: the matrix layer reads it as a mask, at one byte an entry."""
    sets = colex_unrank(np.arange(math.comb(n, s)), n, s)
    return _disjoint(sets, sets)


def _kneser_terms(n: int, s: int) -> list[tuple[int, int]]:
    """kneser_spectrum's pairs as exact integers: a float eigenvalue rounds
    past 2**53 and overflows past about 1.8e308."""
    row = [0] + [math.comb(n, i) for i in range(s + 1)]  # row[i] = C(n, i-1)
    return [
        ((-1) ** i * math.comb(n - s - i, s - i), row[i + 1] - row[i])
        for i in range(s + 1)
    ]


def kneser_spectrum(n: int, s: int) -> list[EigenPair]:
    """Adjacency spectrum of K(n,s) in closed form.

    Eigenvalue (-1)^i C(n-s-i, s-i) with multiplicity C(n,i) - C(n,i-1),
    for i = 0..s.  Multiplicities sum to C(n,s).
    """
    n, s = _int_at_least(n, "n", -math.inf), _int_at_least(s, "s", -math.inf)
    if s < 1:
        raise BadParams(f"need s >= 1, got {s}")
    if n < 2 * s:
        raise DegenerateKneser(f"K({n},{s}) needs n >= 2s")
    return [EigenPair(float(val), mult) for val, mult in _kneser_terms(n, s)]
