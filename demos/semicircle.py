"""
Semicircle law for centered edge-weight matrices
================================================

Pool the eigenvalues of W - E(W) over many random instances, scale by
R = 2 sqrt(C(r-s,s) C(n-s,r-s) p (1-p)), and the empirical density
fills the semicircle.  Prints a text histogram and the KS distance.
"""

import numpy as np

from hyperlap import (
    Ecdf,
    RandomModel,
    binom,
    build_aux,
    centered_weight,
    eigenvalues_sym,
    ks_distance,
    sample,
    semicircle_cdf,
)

n, r, s, p, seeds = 40, 3, 1, 0.3, 30
radius = 2.0 * np.sqrt(binom(r - s, s) * binom(n - s, r - s) * p * (1 - p))
print(f"pooling {seeds} instances of n={n}, r={r}, p={p}; scale R = {radius:.3f}\n")

pool = np.concatenate([
    eigenvalues_sym(centered_weight(build_aux(sample(RandomModel(n, r, p, seed)), s), p)).values
    for seed in range(seeds)
]) / radius

# 20-bin histogram over [-1.1, 1.1] against the semicircle mass per bin
edges = np.linspace(-1.1, 1.1, 21)
counts, _ = np.histogram(pool, bins=edges)
expect = np.diff([semicircle_cdf(x) for x in edges]) * pool.size
for k in range(20):
    bar = "#" * int(round(counts[k] / 3))
    print(f"[{edges[k]:+.2f},{edges[k + 1]:+.2f})  {counts[k]:4d} ~{expect[k]:6.1f}  {bar}")

ks = ks_distance(Ecdf(pool), semicircle_cdf)
print(f"\n{pool.size} scaled eigenvalues, KS distance to the semicircle cdf: {ks:.4f}")
print(f"support check: min {pool.min():+.3f}, max {pool.max():+.3f} (law lives on [-1,1])")
