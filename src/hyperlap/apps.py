"""Spectral applications: random s-walk mixing, s-diameter bounds, edge
expansion, intersecting-family bounds, cross-order monotonicity, and the
four-part perturbation split against the complete reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combin import (_check_loose, _disjoint_columns, _int_at_least, _kneser_terms, as_sset,
                     binom, kneser_adjacency, subset_ranks)
from .errors import (
    BadParams,
    DegenerateKneser,
    Disconnected,
    EmptyFamily,
    EmptySample,
    NotLoose,
    ZeroDegree,
)
from .hypergraph import Hypergraph, expected_stop_degree
from .laplacian import AuxGraph, build_aux, normalized_laplacian
from .spectra import Spectrum, eigenvalues_sym, spectral_norm


def _spectrum_of(h: Hypergraph, s: int) -> tuple[AuxGraph, np.ndarray, Spectrum]:
    """The spectrum step of a trial: h's auxiliary graph at stop size s,
    its normalized Laplacian on the live stops and that matrix's spectrum."""
    g = build_aux(h, s)
    lap = normalized_laplacian(g)
    return g, lap, eigenvalues_sym(lap)


def _hop_diameter(g: AuxGraph) -> int | None:
    """Largest hop distance among the positive-degree stops (0 for fewer
    than two), or None when they are not one component.

    R = A | I marks the pairs within one hop.  Square it until it is all
    true, or until it stops growing (disconnected); then descend through
    the stored powers R^(2^i) to the smallest k with R^k all true.  The
    float32 products are exact: each entry counts paths, at most dim < 2**24.
    """
    kept = g.kept
    if kept.size < 2:
        return 0
    powers = [g.weights[np.ix_(kept, kept)] > 0]
    np.fill_diagonal(powers[0], True)
    while not powers[-1].all():
        f = powers[-1].astype(np.float32)
        nxt = (f @ f) > 0
        if np.array_equal(nxt, powers[-1]):
            return None
        powers.append(nxt)
    hops, cur = 0, None  # cur = R^hops, not all true; None stands for R^0 = I
    for i in reversed(range(len(powers) - 1)):
        nxt = powers[i] if cur is None else (
            cur.astype(np.float32) @ powers[i].astype(np.float32)) > 0
        if not nxt.all():
            hops, cur = hops + 2**i, nxt
    return hops + 1


def is_connected(g: AuxGraph) -> bool:
    """True when every s-set has positive degree and the auxiliary graph
    is one component."""
    return g.kept.size == g.dim and _hop_diameter(g) is not None


def s_diameter(g: AuxGraph) -> int:
    """Largest s-distance, in hops, between two positive-degree stops of
    the auxiliary graph."""
    if g.kept.size == 0:
        raise Disconnected("auxiliary graph has no positive-degree stops")
    diam = _hop_diameter(g)
    if diam is None:
        raise Disconnected("auxiliary graph is disconnected")
    return diam


def diameter_bound(spec: Spectrum, g: AuxGraph) -> int:
    """Spectral upper bound on the s-diameter of the auxiliary graph g:
    ceil(log(sum_S d_S / delta) / log((l_max + l_1)/(l_max - l_1))), with
    delta the least s-set degree d_S; sum_S d_S = |E| C(r,s), as each edge
    holds C(r,s) s-sets.  Returns 1 outright when the top spectral gap
    closes (l_max = l_1 forces a complete auxiliary graph).
    """
    if g.dim == 0:
        raise EmptySample(f"no {g.s}-sets on {g.n} vertices")
    delta = int(g.stop_degrees.min())
    if delta == 0:
        raise Disconnected("a zero-degree s-set makes the s-diameter infinite")
    if spec.trivial_count != 1:
        raise Disconnected("spectrum does not look connected (extra zeros)")
    lam1 = spec.lambda1
    lmax = spec.lambda_max
    num = math.log(int(g.stop_degrees.sum()) / delta)
    if lmax - lam1 <= 1e-12:
        return 1
    return math.ceil(num / math.log((lmax + lam1) / (lmax - lam1)))


@dataclass(frozen=True)
class TransitionSystem:
    """Random s-walk on the positive-degree stops: row-stochastic matrix
    and its stationary distribution."""

    matrix: np.ndarray = field(repr=False)
    stationary: np.ndarray = field(repr=False)


def transition_system(g: AuxGraph) -> TransitionSystem:
    """P = D_aux^{-1} W restricted to positive-degree stops; the stationary
    distribution is degree / volume."""
    kept = g.kept
    if kept.size == 0:
        raise EmptySample("no positive-degree stops")
    w = g.weights[np.ix_(kept, kept)].astype(np.float64)
    deg = g.degrees[kept].astype(np.float64)
    return TransitionSystem(w / deg[:, None], deg / deg.sum())


@dataclass(frozen=True)
class MixingReport:
    """Worst pi-weighted L2 contraction factor per step, against a bound."""

    factors: np.ndarray
    bound: float
    holds: bool
    skipped: int


def mixing_contraction(
    ts: TransitionSystem,
    bound: float,
    steps: int = 1,
    tol: float = 1e-9,
) -> MixingReport:
    """Push start distributions through the walk and measure contraction.

    Each step reports max ||(q - pi) P||_pi / ||q - pi||_pi over the start
    rows q, the point masses on every stop.  Start/step pairs whose
    incoming deviation is already ~0 are vacuous and counted in skipped.
    """
    steps = _int_at_least(steps, "steps", 1)
    weight = 1.0 / ts.stationary
    x = np.eye(ts.stationary.size) - ts.stationary
    prev = np.sqrt((x * x * weight).sum(axis=1))
    factors = np.zeros(steps)
    skipped = 0
    for m in range(steps):
        x = x @ ts.matrix
        cur = np.sqrt((x * x * weight).sum(axis=1))
        live = prev > 1e-14
        skipped += int((~live).sum())
        factors[m] = float((cur[live] / prev[live]).max()) if live.any() else 0.0
        prev = cur
    holds = bool(np.all(factors <= bound + tol))
    return MixingReport(factors, float(bound), holds, skipped)


@dataclass(frozen=True)
class ExpansionReport:
    """Edge expansion of a pair of s-set families against the mixing bound."""

    e_st: float
    e_s: float
    e_t: float
    lhs: float
    rhs: float
    holds: bool


def edge_expansion(
    h: Hypergraph,
    s: int,
    fam_s,
    fam_t,
    lambda_bar: float,
    tol: float = 1e-9,
) -> ExpansionReport:
    """Compare |e(S,T) - e(S)e(T)| with lambda_bar sqrt(e(S)e(T)(1-e(S))(1-e(T))).

    e(S,T) is the fraction of edges containing a disjoint pair from the two
    families.  Since r >= 2s, every edge contains at least one disjoint
    pair of s-sets, so the normalizer is just the edge count.
    e(S) = vol(S)/vol.  vol(S) = sum of d_A over A in S is the number of
    (edge, s-set) incidences whose s-set lies in S, counted on the rank
    array that e(S,T) reads; vol = |E| C(r,s), as each edge holds C(r,s)
    s-sets.
    """
    _check_loose(h.r, s)
    fam_a = {as_sset(x, h.n) for x in fam_s}
    fam_b = {as_sset(x, h.n) for x in fam_t}
    if not fam_a or not fam_b:
        raise EmptyFamily("both families must be nonempty")
    for fam in (fam_a, fam_b):
        for x in fam:
            if len(x) != s:
                raise BadParams(f"{x} is not an {s}-set")
    if h.num_edges == 0:
        raise EmptySample("hypergraph has no edges")
    rank_a = subset_ranks(list(fam_a), h.n, s)[:, 0]
    rank_b = subset_ranks(list(fam_b), h.n, s)[:, 0]
    ranks = subset_ranks(h._edge_array, h.n, s)
    a, b = _disjoint_columns(h.r, s)
    hits = np.isin(ranks[:, a], rank_a) & np.isin(ranks[:, b], rank_b)
    e_st = int(hits.any(axis=1).sum()) / h.num_edges
    vol = h.num_edges * binom(h.r, s)
    e_s = int(np.isin(ranks, rank_a).sum()) / vol
    e_t = int(np.isin(ranks, rank_b).sum()) / vol
    lhs = abs(e_st - e_s * e_t)
    rhs = lambda_bar * math.sqrt(e_s * e_t * (1 - e_s) * (1 - e_t))
    return ExpansionReport(e_st, e_s, e_t, lhs, rhs, lhs <= rhs + tol)


@dataclass(frozen=True)
class EkrBound:
    """Eigenvalue-interlacing bound on intersecting families of s-sets."""

    n_plus: int
    n_minus: int
    bound: int
    star: int


def ekr_bound(n: int, s: int) -> EkrBound:
    """Count complete-hypergraph Laplacian eigenvalues above and below 1.

    An intersecting family of s-sets is no larger than min(N+, N-), which
    collapses to the star size C(n-1, s-1).
    """
    n, s = _int_at_least(n, "n", -math.inf), _int_at_least(s, "s", -math.inf)
    if s < 1 or n < 2 * s:
        raise DegenerateKneser(f"need n >= 2s >= 2, got n={n}, s={s}")
    # a Laplacian eigenvalue above 1 is a Kneser eigenvalue below 0
    terms = _kneser_terms(n, s)
    n_plus = sum(m for k, m in terms if k < 0)
    n_minus = sum(m for k, m in terms if k > 0)
    return EkrBound(n_plus, n_minus, min(n_plus, n_minus), binom(n - 1, s - 1))


@dataclass(frozen=True)
class MonotonicityRow:
    s: int
    lambda1: float
    lambda_max: float


@dataclass(frozen=True)
class MonotonicityReport:
    """lambda_1 and lambda_max across every valid stop size."""

    rows: tuple[MonotonicityRow, ...]
    lambda1_nonincreasing: bool
    lambda_max_nondecreasing: bool


def monotonicity_check(h: Hypergraph, tol: float = 1e-9) -> MonotonicityReport:
    """Eigensolve the s-th Laplacian for every s up to r/2 and check that
    lambda_1 never rises and lambda_max never falls as s grows."""
    if h.r < 2:
        raise NotLoose(f"no valid stop size for r={h.r}")
    rows = []
    for s in range(1, h.r // 2 + 1):
        g, _, spec = _spectrum_of(h, s)
        if g.kept.size < g.dim:
            raise Disconnected(f"zero-degree {s}-sets present")
        if spec.trivial_count != 1:
            raise Disconnected(f"auxiliary graph at s={s} is disconnected")
        rows.append(MonotonicityRow(s, spec.lambda1, spec.lambda_max))
    lam1_ok = all(
        rows[i].lambda1 >= rows[i + 1].lambda1 - tol for i in range(len(rows) - 1)
    )
    lmax_ok = all(
        rows[i].lambda_max <= rows[i + 1].lambda_max + tol
        for i in range(len(rows) - 1)
    )
    return MonotonicityReport(tuple(rows), lam1_ok, lmax_ok)


@dataclass(frozen=True)
class PerturbationReport:
    """Norms of the four-part split of the Laplacian perturbation.

    identity_residual is the largest entry of M - (M1+M2+M3+M4), which is
    an algebraic identity and should vanish to rounding.  ratios compare
    each part's norm with its theoretical rate.
    """

    norms: dict[str, float]
    identity_residual: float
    triangle_holds: bool
    ratios: dict[str, float]


def perturbation_diagnostics(g: AuxGraph, p: float) -> PerturbationReport:
    """Split the deviation of the Laplacian of the auxiliary graph g from
    the complete reference into centered, scaled, expectation and flat parts.

    M = D^{-1/2} W D^{-1/2} / C(r-s,s) - K / C(n-s,s) against the pieces
    M1 (recentring of the degree scaling), M2 (centered weights at expected
    degree), M3 (expectation vs Kneser), M4 (flat degree fluctuation).

    Each part is built in a reused buffer, its norm taken, and folded into
    the running sum ((M1 + M2) + M3) + M4; M comes last, and the identity
    residual is max |M - that sum|.  The dense dim x dim float64 working
    set is five matrices (K, the scaling, the centered weights, the sum
    and the current part) beside g's own weights, plus the solver's copy
    while a norm is taken.  Every entry is the same IEEE operation, in the
    same order, as the formula written out on whole arrays.
    """
    if not 0 < p < 1:
        raise BadParams(f"need 0 < p < 1, got {p}")
    if g.kept.size < g.dim:
        raise ZeroDegree("every s-set needs positive degree")
    n, r, s = g.n, g.r, g.s
    cap_n = g.dim
    d = expected_stop_degree(n, r, s, p)
    rs = binom(r - s, s)
    ew_coef = binom(n - 2 * s, r - 2 * s) * p
    flat = d / cap_n
    rs_d = rs * d
    kn_coef = binom(n - s, s)
    kn = kneser_adjacency(n, s).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(g.stop_degrees.astype(np.float64))
    scale = np.outer(inv_sqrt, inv_sqrt)
    c = np.multiply(ew_coef, kn)  # ew, the expected weights
    np.subtract(g.weights, c, out=c)  # c = W - ew
    # m1 = (c * scale - c / d) / rs
    acc = np.multiply(c, scale)
    cur = np.divide(c, d)
    acc -= cur
    acc /= rs
    norm1 = spectral_norm(acc)
    # m2 = c / (rs * d); c is read no more, so it is scratch from here on
    np.divide(c, rs_d, out=cur)
    norm2 = spectral_norm(cur)
    acc += cur
    # m3 = (ew * scale) / rs - (d / cap_n) * scale - kn / C(n-s,s) + 1 / cap_n
    np.multiply(ew_coef, kn, out=cur)
    cur *= scale
    cur /= rs
    np.multiply(flat, scale, out=c)
    cur -= c
    np.divide(kn, kn_coef, out=c)
    cur -= c
    cur += 1 / cap_n
    norm3 = spectral_norm(cur)
    acc += cur
    # m4 = (d * scale - 1) / cap_n
    np.multiply(d, scale, out=cur)
    cur -= 1
    cur /= cap_n
    norm4 = spectral_norm(cur)
    acc += cur
    # m = (W * scale) / rs - kn / C(n-s,s)
    np.multiply(g.weights, scale, out=cur)
    cur /= rs
    np.divide(kn, kn_coef, out=c)
    cur -= c
    norms = {"m": spectral_norm(cur), "m1": norm1, "m2": norm2, "m3": norm3, "m4": norm4}
    cur -= acc
    resid = float(np.abs(cur, out=cur).max())
    triangle = norms["m"] <= norms["m1"] + norms["m2"] + norms["m3"] + norms["m4"] + 1e-9
    log_n = math.log(cap_n)
    ratios = {
        "m1": norms["m1"] / (math.sqrt((1 - p) * log_n) / d),
        "m2": norms["m2"] / math.sqrt((1 - p) / d),
        "m3": norms["m3"] / (math.sqrt(log_n) / (n * math.sqrt(d))),
        "m4": norms["m4"] / math.sqrt((1 - p) / d),
    }
    return PerturbationReport(norms, resid, triangle, ratios)
