#!/usr/bin/env python3
"""Walkthrough: hypergraph widths and systems of disjoint representatives.

A family of hypergraphs over one ground set admits a system of disjoint
representatives (one edge per member, pairwise disjoint) whenever the
fractional width of every subfamily union strictly exceeds |I| - 1.  The
demo sweeps the subsets, shows the margins, runs the exhaustive search, and
contrasts the condition with the stronger integral-width requirement
w(union) >= 2|I| - 1, which the same family can easily fail.

Run:  python demos/representatives_walkthrough.py
"""

from flagspectra import (
    Hypergraph,
    HypergraphFamily,
    PartitionedComplex,
    complement,
    find_colorful_simplex,
    find_sdr,
    fractional_width,
    line_graph,
    sweep_family,
    verify_colorful_condition,
    verify_fractional_width_condition,
    verify_integral_width_condition,
    width,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("A family with representatives, and the margins that certify it")
fam = HypergraphFamily(
    6,
    [
        Hypergraph(6, [[0, 1], [1, 2]]),
        Hypergraph(6, [[2, 3], [3, 4]]),
        Hypergraph(6, [[4, 5], [5, 0]]),
    ],
)
sweep = sweep_family(fam)
for rec in verify_fractional_width_condition(sweep, instance="three chains"):
    if rec.check == "fractional_width_margin":
        print(f"  I={rec.instance.split('I=')[1]:10s} w* = {rec.lhs:.4f}  margin {rec.slack:+.4f}  {rec.detail}")
    else:
        print(f"  => {rec.detail}")

section("The integral-width condition is stronger and fails here")
for rec in verify_integral_width_condition(sweep, instance="three chains"):
    if rec.check == "integral_width_margin":
        print(f"  I={rec.instance.split('I=')[1]:10s} w = {rec.lhs:.0f} vs 2|I|-1 = {rec.rhs:.0f}  {rec.detail}")
    else:
        print(f"  => {rec.detail}")

section("Widths of one union, exact and fractional")
union = fam.union(range(fam.size))
w, witness = width(union)
print(f"  width = {w} (witness edge indices {witness}), fractional width = {fractional_width(union):.4f}")

section("No representatives when two members fight over one vertex")
clash = HypergraphFamily(1, [Hypergraph(1, [[0]]), Hypergraph(1, [[0]])])
print(f"  representatives: {find_sdr(clash)}")

section("The same search as a colorful independent set of the line graph")
lg = line_graph(union)
classes, start = [], 0
for member in fam.members:
    classes.append(list(range(start, start + member.num_edges)))
    start += member.num_edges
pc = PartitionedComplex(complement(lg), classes)
print(f"  line graph {lg}, classes {classes}")
simplex = find_colorful_simplex(pc)
print(f"  colorful independent set (edge indices): {simplex}")
for rec in verify_colorful_condition(pc, instance="line graph"):
    if rec.check == "colorful_connectivity_margin":
        print(f"  I={rec.instance.split('I=')[1]:10s} eta floor {rec.lhs:.0f} vs |I| = {rec.rhs:.0f}  {rec.detail}")
    else:
        print(f"  => {rec.detail}")
print("  (the connectivity condition is sufficient, not necessary: this line")
print("   graph is a 6-cycle, whose full-family margin fails, yet the search")
print("   still finds a colorful set)")
