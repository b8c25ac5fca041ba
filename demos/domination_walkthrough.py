#!/usr/bin/env python3
"""Walkthrough: domination parameters, vector representations, and connectivity.

Cycles are the showcase: the strong fractional domination number of the
n-cycle is n/4, while the explicit representation of the 3k-cycle has value
k, matching the homological connectivity of the independent-set complex
exactly.  The library reports the representation supremum only through
certified lower bounds like these.

Run:  python demos/domination_walkthrough.py
"""

from flagspectra import (
    best_representation_value,
    blow_up,
    cycle_graph,
    cycle_representation,
    domination_number,
    edge_incidence_representation,
    fractional_strong_domination,
    independence_connectivity,
    independent_domination_number,
    lambda_max,
    representation_value,
    total_domination_number,
    verify_gram_row_bound,
    verify_spectral_connectivity_bound,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("Exact and fractional domination on the 6-cycle")
g = cycle_graph(6)
for fn in (domination_number, total_domination_number, independent_domination_number):
    rep = fn(g)
    print(f"  {rep.parameter:33s} = {rep.value}   witness {rep.witness}")
frac = fractional_strong_domination(g)
print(f"  {frac.parameter:33s} = {frac.value:.4f} (n/4 = 1.5)")

section("Two representations of the 6-cycle and their values")
incidence = edge_incidence_representation(g)
cyc = cycle_representation(2)
bound = best_representation_value([representation_value(incidence), representation_value(cyc)])
print(f"  edge incidence value = {fractional_strong_domination(g).value:.4f} (equals the LP above)")
print(f"  explicit cycle construction value = 2.0")
print(f"  best certified lower bound = {bound.value:.4f}")
eta = independence_connectivity(g)
print(f"  connectivity of the independent-set complex = {eta.describe()} (the bound is tight)")

section("Connectivity lower bounds on cycles of every length")
print("  n   eta(I(C_n))   floor((n+1)/3)   n/4")
for n in range(3, 13):
    g = cycle_graph(n)
    eta = independence_connectivity(g)
    print(f"  {n:2d}   {eta.describe():>6s}        {(n + 1) // 3}             {n / 4:.2f}")

section("The largest Laplacian eigenvalue against Gram row sums")
g = cycle_graph(9)
lam = lambda_max(g)
rec = verify_gram_row_bound(lam, edge_incidence_representation(g), instance="cycle(9)")
print(f"  lambda_max = {rec.lhs:.4f} <= max Gram row sum = {rec.rhs:.4f}: {'ok' if rec.passed else 'no'}")
rec = verify_spectral_connectivity_bound(g.n, lam, independence_connectivity(g), instance="cycle(9)")
print(f"  eta(I) = {rec.lhs:.0f} >= n/lambda_max = {rec.rhs:.4f}: {'ok' if rec.passed else 'no'}")

section("Blow-ups leave the independence-complex connectivity unchanged")
g = cycle_graph(5)
weights = (2, 1, 2, 1, 1)
expanded = blow_up(g, weights)
print(f"  base {g}: eta = {independence_connectivity(g).describe()}")
print(f"  blow-up with weights {weights} -> {expanded}: "
      f"eta = {independence_connectivity(expanded).describe()}")
