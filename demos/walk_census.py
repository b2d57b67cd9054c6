"""
Counting good closed walks exactly
==================================

A closed s-walk alternates s-sets and edges; it is good when every
distinct edge is used at least twice.  The library enumerates them
exhaustively, buckets by (distinct edges, distinct vertices), and the
vertex-maximal bucket is reproduced by an exact product formula: the
ways to split its vertices into stops and edge leftovers, times the
number of Dyck words.  The census also drives an exact expected trace
for the centered random matrix.
"""

from fractions import Fraction

from hyperlap import (
    binom,
    census,
    census_upper_bound,
    code_from_walk,
    enumerate_closed_walks,
    expected_trace,
    tree_walk_count,
)

n, r, s, t = 6, 3, 1, 4
print(f"good closed {t}-walks on {r}-uniform edges over {n} vertices:")
c = census(n, r, s, t)
for (i, j), cnt in sorted(c.counts.items()):
    print(f"  {i} edges, {j} vertices: {cnt:6d} walks"
          f"   (cap {census_upper_bound(n, r, s, t, i, j):.0f})")
print(f"  total {c.total}")

k = t // 2
m_k = s + k * (r - s)
print(f"\nvertex-maximal bucket ({k}, {m_k}) vs the product formula:"
      f" {c.counts.get((k, m_k), 0)} == {tree_walk_count(n, r, s, k)}")

# each walk compresses to an occurrence code: '(' first use of an edge,
# ')' second, '*' later; walks using every edge exactly twice give the
# balanced Dyck words, reusing one edge four times gives the starred one
seen = set()
for w in enumerate_closed_walks(5, 2, 1, 4, good_only=True):
    seen.add(code_from_walk(w))
print(f"codes of all good 4-walks on pairs: {sorted(seen)}")

# exact rational expected trace at t=2 against its closed form
p = Fraction(2, 5)
want = binom(n, s) * binom(n - s, s) * binom(n - 2 * s, r - 2 * s) * p * (1 - p)
got = expected_trace(n, r, s, 2, p, exact=True)
print(f"\nexpected trace of C^2 at p={p}: {got} (closed form {want})")
print(f"float route agrees: {expected_trace(n, r, s, 2, float(p)):.6f}")
