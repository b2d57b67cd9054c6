"""
Random walks on s-sets: mixing and diameter
===========================================

The s-th Laplacian controls how fast the natural random walk on s-sets
forgets its start, and bounds the hop diameter of the s-set graph.
Both are checked here on one random instance.
"""

import numpy as np

from hyperlap import (
    RandomModel,
    build_aux,
    diameter_bound,
    eigenvalues_sym,
    is_connected,
    mixing_contraction,
    normalized_laplacian,
    s_diameter,
    sample,
    spectral_radius,
    transition_system,
)

n, r, s, p, seed = 12, 3, 1, 0.5, 1
h = sample(RandomModel(n, r, p, seed))
g = build_aux(h, s)
print(f"instance: {h.num_edges} edges on {n} vertices, s={s},"
      f" connected={is_connected(g)}")

spec = eigenvalues_sym(normalized_laplacian(g))
lam = spectral_radius(spec)
print(f"nontrivial spectral radius lambda_bar = {lam:.4f}\n")

# push every point-mass start through five steps of the walk
ts = transition_system(g)
rep = mixing_contraction(ts, lam, steps=5)
print("step   worst contraction   allowed")
for m, f in enumerate(rep.factors, start=1):
    print(f"{m:4d}   {f:.6f}            {lam:.6f}")
print(f"every factor within the radius: {rep.holds}")

# after those steps the walk is close to stationary from any start
start = np.zeros(ts.stationary.size)
start[0] = 1.0
q = start
for _ in range(5):
    q = q @ ts.matrix
print(f"\nmax |q - pi| after 5 steps from a point mass: "
      f"{np.abs(q - ts.stationary).max():.2e}")

d = s_diameter(g)
print(f"\nhop diameter of the s-set graph: {d}")
print(f"spectral diameter bound: {diameter_bound(spec, g)}")
