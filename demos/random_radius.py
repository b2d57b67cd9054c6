"""
Spectral radius of random hypergraphs vs the probabilistic bound
================================================================

Samples Bernoulli random r-uniform hypergraphs and compares the
nontrivial spectral radius of the s-th Laplacian with the bound

    s/(n-s) + c * sqrt((1-p) / (C(n-s, r-s) p))

at slack c=3.  Also reports how far the whole sorted spectrum moves
from the complete-hypergraph reference, which obeys the same square
root scale.
"""

import math

from hyperlap import (
    RandomModel,
    binom,
    build_aux,
    complete,
    deviation,
    eigenvalues_sym,
    normalized_laplacian,
    sample,
    spectral_radius,
)

n, r, s, p = 30, 3, 1, 0.5
slack = 3.0
noise = math.sqrt((1 - p) / (binom(n - s, r - s) * p))
bound = s / (n - s) + slack * noise
ref = eigenvalues_sym(normalized_laplacian(build_aux(complete(n, r), s)))

print(f"model: each of the {binom(n, r)} possible edges kept with p={p}")
print(f"radius bound {bound:.4f} = {s}/{n - s} + {slack} * {noise:.4f}\n")
print("seed   lambda_bar   spectrum shift")
worst_rad = worst_dev = 0.0
for seed in range(10):
    h = sample(RandomModel(n, r, p, seed))
    spec = eigenvalues_sym(normalized_laplacian(build_aux(h, s)))
    rad = spectral_radius(spec)
    dev = deviation(spec, ref)
    worst_rad = max(worst_rad, rad)
    worst_dev = max(worst_dev, dev)
    print(f"{seed:4d}   {rad:.6f}     {dev:.6f}")

print(f"\nworst radius {worst_rad:.4f} vs bound {bound:.4f}"
      f"  (margin {bound - worst_rad:+.4f})")
print(f"worst shift  {worst_dev:.4f} vs noise scale {slack * noise:.4f}")
