"""
Closed-form spectra of complete hypergraphs
===========================================

The s-th Laplacian of the complete r-uniform hypergraph has a fully
explicit spectrum: s+1 distinct eigenvalues with binomial multiplicity
gaps.  This script prints the closed form and confirms it against a
dense eigensolve of the actual matrix.
"""

import numpy as np

from hyperlap import (
    binom,
    build_aux,
    complete,
    complete_spectrum,
    eigenvalues_sym,
    kneser_spectrum,
    normalized_laplacian,
)

n, r, s = 10, 4, 2
print(f"complete {r}-uniform hypergraph on {n} vertices, stop size s={s}")
print(f"{binom(n, r)} edges, auxiliary graph on {binom(n, s)} {s}-sets\n")

print("closed form:")
for ep in complete_spectrum(n, r, s):
    print(f"  eigenvalue {ep.value!s:>8}  multiplicity {ep.multiplicity}")

# the eigensolver route: build the weighted s-set graph and decompose
lap = normalized_laplacian(build_aux(complete(n, r), s))
spec = eigenvalues_sym(lap)
want = np.sort(np.concatenate([
    np.full(ep.multiplicity, float(ep.value)) for ep in complete_spectrum(n, r, s)
]))
print(f"\neigensolver max abs error: {np.abs(spec.values - want).max():.2e}")
print(f"largest eigenvalue 1 + s/(n-s) = {1 + s / (n - s)}: got {spec.lambda_max:.12f}")

# the same multiplicities govern the disjointness (Kneser) graph; for
# n=5, s=2 that graph is the Petersen graph
print("\nPetersen graph spectrum via the disjointness closed form:")
for ep in kneser_spectrum(5, 2):
    print(f"  eigenvalue {ep.value:>3}  multiplicity {ep.multiplicity}")
