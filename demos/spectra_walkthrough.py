#!/usr/bin/env python3
"""Walkthrough: clique complexes, higher Laplacian spectra, and Betti numbers.

Builds the clique complex of a few graphs, assembles the degree-k Laplacians,
and shows the two headline spectral facts this library verifies numerically:

  * the recursion k*mu_k >= (k+1)*mu_{k-1} - n between consecutive minimal
    eigenvalues, with equality on balanced complete multipartite graphs;
  * a spectral gap above k*n/(k+1) forces the degree-k reduced cohomology
    of the clique complex to vanish.

Run:  python demos/spectra_walkthrough.py
"""

from flagspectra import (
    betti_profile,
    build_flag_complex,
    hodge_laplacian,
    min_hodge_eigenvalue,
    random_gnp,
    spectral_gap,
    symmetric_eigenvalues,
    turan_graph,
    verify_eigenvalue_recursion,
    verify_vanishing_threshold,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("The balanced multipartite family: equality case of the recursion")
r, ell = 3, 2
g = turan_graph(r, ell)
x = build_flag_complex(g, max_dim=g.n - 1)
print(f"blocks={r}, block size={ell}: {g}, skeleton counts {x.counts()}")
print(f"spectral gap = {spectral_gap(g):.6f}  (formula: block_size*(blocks-1) = {ell * (r - 1)})")
for k in range(r):
    mu = min_hodge_eigenvalue(g, k)
    print(f"  mu_{k} = {mu:.6f}   (formula block_size*(blocks-k-1) = {ell * (r - k - 1)})")
profile = betti_profile(x)
for rec in verify_eigenvalue_recursion(profile, g.n, instance="turan(3,2)"):
    print(f"  k={rec.k}: k*mu_k = {rec.lhs:.6f} vs (k+1)*mu_(k-1) - n = {rec.rhs:.6f}"
          f"  slack {rec.slack:+.2e}  -> {'ok' if rec.passed else 'VIOLATION'}")

section("Reduced Betti numbers, two ways at once")
print(f"betti = {list(profile.betti)} (kernel counts, cross-checked against exact integer ranks)")
print(f"connectivity = {profile.connectivity.describe()}"
      f"   (the complex is a wedge of {(ell - 1) ** r} spheres of dimension {r - 1})")

section("Degree-0 Laplacian is the all-ones matrix plus the graph Laplacian")
delta0 = hodge_laplacian(x, 0)
print(f"min eigenvalue of degree-0 Laplacian: {symmetric_eigenvalues(delta0)[0]:.6f}"
      f" = spectral gap {spectral_gap(g):.6f}")

section("A random graph through the same checks")
g = random_gnp(9, 0.5, seed=20240)
x = build_flag_complex(g, max_dim=g.n - 1)
print(f"{g}: counts {x.counts()}")
profile = betti_profile(x)
print(f"betti = {list(profile.betti)}")
for rec in verify_eigenvalue_recursion(profile, g.n, instance="gnp(9,0.5)"):
    print(f"  k={rec.k}: slack {rec.slack:+.4f}  {'ok' if rec.passed else 'VIOLATION'}")
for rec in verify_vanishing_threshold(profile, spectral_gap(g), g.n, instance="gnp(9,0.5)"):
    if rec.detail != "hypothesis not met":
        print(f"  gap {rec.lhs:.4f} > {rec.rhs:.4f} forces betti_{rec.k} = 0: "
              f"{'ok' if rec.passed else 'VIOLATION'}")
