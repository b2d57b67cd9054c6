"""
Set-family bounds and stability diagnostics
===========================================

Four smaller consequences of the spectrum in one place: edge counts
between random s-set families, the intersecting-family (star) bound,
monotonicity of the extreme eigenvalues in s, and the four-part split
of the Laplacian's deviation from its complete reference.
"""

import numpy as np

from hyperlap import (
    RandomModel,
    binom,
    build_aux,
    complete,
    edge_expansion,
    eigenvalues_sym,
    ekr_bound,
    monotonicity_check,
    normalized_laplacian,
    perturbation_diagnostics,
    sample,
    spectral_radius,
    sset_unrank,
)

# edge counts between two disjoint random families of s-sets; the raw
# edge-fraction comparison is strict and usually fails for dense random
# instances, the report keeps both sides so that is visible
n, r, s, p = 14, 3, 1, 0.5
h = sample(RandomModel(n, r, p, 0))
lam = spectral_radius(eigenvalues_sym(normalized_laplacian(build_aux(h, s))))
rng = np.random.default_rng(7)
idx = rng.permutation(binom(n, s))
fam_a = [sset_unrank(int(i), n, s) for i in idx[:10]]
fam_b = [sset_unrank(int(i), n, s) for i in idx[10:20]]
rep = edge_expansion(h, s, fam_a, fam_b, lam)
print(f"random families of 10 stops each: e(S,T)={rep.e_st:.4f},"
      f" e(S)={rep.e_s:.4f}, e(T)={rep.e_t:.4f}")
print(f"product reference {rep.rhs:.4f}, |e(S,T)-e(S)e(T)|={rep.lhs:.4f},"
      f" within bound: {rep.holds}\n")

# the star C(n-1, s-1) is the eigenvalue-count answer for every n >= 2s
print("largest intersecting family of s-sets (by eigenvalue sign counts):")
for nn, ss in ((10, 3), (12, 4), (16, 8)):
    b = ekr_bound(nn, ss)
    print(f"  n={nn:2d} s={ss}:  min(N+={b.n_plus}, N-={b.n_minus})"
          f" = {b.bound} = C({nn - 1},{ss - 1}) = {b.star}")

# extreme eigenvalues move monotonically as the stop size grows
mono = monotonicity_check(complete(10, 4))
print("\nstop size vs extreme eigenvalues, complete 4-uniform on 10 vertices:")
for row in mono.rows:
    print(f"  s={row.s}: lambda_1={row.lambda1:.6f}  lambda_max={row.lambda_max:.6f}")
print(f"lambda_1 nonincreasing: {mono.lambda1_nonincreasing},"
      f" lambda_max nondecreasing: {mono.lambda_max_nondecreasing}")

# where the deviation from the complete reference actually lives
g = build_aux(sample(RandomModel(20, 3, 0.5, 3)), 1)
pert = perturbation_diagnostics(g, 0.5)
print("\nfour-part split of the scaled weight deviation (spectral norms):")
for name, val in pert.norms.items():
    print(f"  {name}: {val:.5f}")
print(f"residual of the exact split identity: {pert.identity_residual:.2e}")
print(f"triangle inequality vs the whole: {pert.triangle_holds}")
