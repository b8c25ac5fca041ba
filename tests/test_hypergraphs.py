"""Widths, representative systems, and colorful simplices.

Hand-derived LP value frozen below: for the triangle hypergraph with edges
{0,1}, {1,2}, {0,2} the intersection matrix has 2 on the diagonal and 1 off
it, uniform weight 1/4 is feasible with total 3/4, and the same vector is a
packing certificate, so the fractional width is exactly 3/4.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import flagspectra.hypergraphs as hypergraphs_module
from flagspectra import (
    CapExceeded,
    Graph,
    Hypergraph,
    HypergraphFamily,
    PartitionedComplex,
    compare_width_conditions,
    complement,
    complete_graph,
    find_colorful_simplex,
    find_sdr,
    fractional_width,
    incidence_representation,
    line_graph,
    representation_value,
    sdr_search,
    sweep_family,
    verify_colorful_condition,
    verify_fractional_width_condition,
    verify_integral_width_condition,
    width,
)
from flagspectra.corpus import family_corpus, planted_sdr_family
from flagspectra.hypergraphs import (
    family_from_json_dict,
    fractional_width_lp,
    hypergraph_from_json_dict,
)


def vertex_masks(h):
    """Each edge as a bitmask of its vertices."""
    return [sum(1 << v for v in e) for e in h.edges]


def triangle_hypergraph():
    return Hypergraph(3, [[0, 1], [1, 2], [0, 2]])


class TestHypergraphType:
    def test_rejects_empty_edge(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [[]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [[0, 2]])

    def test_keeps_duplicates(self):
        h = Hypergraph(2, [[0], [0]])
        assert h.num_edges == 2

    def test_json_round_trip(self):
        h = hypergraph_from_json_dict({"ground": 3, "edges": [[0, 1], [2]]})
        assert h.edges == ((0, 1), (2,))

    def test_family_json(self):
        fam = family_from_json_dict({"ground": 2, "hypergraphs": [[[0]], [[1]]]})
        assert fam.size == 2


class TestLineGraph:
    def test_disjoint_edges_give_edgeless(self):
        g = line_graph(Hypergraph(6, [[0, 1], [2, 3], [4, 5]]))
        assert g == Graph(3)

    def test_path_of_overlaps(self):
        g = line_graph(Hypergraph(4, [[0, 1], [1, 2], [2, 3]]))
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_duplicate_edges_are_adjacent(self):
        assert line_graph(Hypergraph(1, [[0], [0]])) == complete_graph(2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_graph(Hypergraph(3, []))

    def test_matchings_are_independent_sets(self):
        h = Hypergraph(5, [[0, 1], [1, 2], [3], [4], [2, 4]])
        g = line_graph(h)
        masks = vertex_masks(h)
        for mask in range(1 << h.num_edges):
            chosen = [i for i in range(h.num_edges) if mask >> i & 1]
            disjoint = all(
                not (masks[i] & masks[j]) for a, i in enumerate(chosen) for j in chosen[a + 1 :]
            )
            independent = all(
                not g.has_edge(i, j) for a, i in enumerate(chosen) for j in chosen[a + 1 :]
            )
            assert disjoint == independent


class TestWidth:
    def test_single_edge(self):
        assert width(Hypergraph(2, [[0]]))[0] == 1

    def test_disjoint_edges(self):
        h = Hypergraph(6, [[0], [1], [2], [3]])
        assert width(h)[0] == 4

    def test_triangle_width_one(self):
        value, witness = width(triangle_hypergraph())
        assert value == 1
        assert len(witness) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            width(Hypergraph(30, [[i] for i in range(25)]))


class TestFractionalWidth:
    def test_single_vertex_edge(self):
        assert fractional_width(Hypergraph(1, [[0]])) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_singletons(self):
        h = Hypergraph(4, [[0], [1], [2], [3]])
        assert fractional_width(h) == pytest.approx(4.0, abs=1e-7)

    def test_triangle_three_quarters(self):
        h = triangle_hypergraph()
        # uniform 1/4 is feasible: 2*(1/4) + 1/4 + 1/4 = 1 per row
        lp = fractional_width_lp(h)
        uniform = np.full(3, 0.25)
        assert np.allclose(lp.matrix @ uniform, 1.0)
        assert fractional_width(h) == pytest.approx(0.75, abs=1e-7)

    def test_relaxation_below_width_on_corpus(self):
        for label, fam in family_corpus(count=25, seed=9):
            h = fam.union(range(fam.size))
            assert fractional_width(h) <= width(h)[0] + 1e-7, label

    def test_incidence_representation_value_matches(self):
        for label, fam in family_corpus(count=20, seed=11):
            h = fam.union(range(fam.size))
            value = representation_value(incidence_representation(h)).value
            assert value == pytest.approx(fractional_width(h), abs=1e-6), label


def brute_force_width(h):
    """Reference search: test every edge against every combo member, in the
    same combination order as `width`."""
    masks = vertex_masks(h)
    m = len(masks)
    for t in range(1, m + 1):
        for combo in combinations(range(m), t):
            if all(any(masks[i] & masks[j] for j in combo) for i in range(m)):
                return t, combo
    raise AssertionError("the full edge set always covers")


# ground <= 8, 1-12 edges, duplicate edges allowed
hypergraphs = st.integers(1, 8).flatmap(
    lambda ground: st.lists(
        st.sets(st.integers(0, ground - 1), min_size=1), min_size=1, max_size=12
    ).map(lambda edges: Hypergraph(ground, edges))
)
property_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# ground <= 6, 1-5 members of 0-4 edges each
families = st.integers(1, 6).flatmap(
    lambda ground: st.lists(
        st.lists(st.sets(st.integers(0, ground - 1), min_size=1), max_size=4).map(
            lambda edges: Hypergraph(ground, edges)
        ),
        min_size=1,
        max_size=5,
    ).map(lambda members: HypergraphFamily(ground, members))
)


def repeat_first_edge_last(ground, members):
    """The family of the members, with the first member's first edge repeated in the last."""
    members = [*members[:-1], [*members[-1], members[0][0]]]
    return HypergraphFamily(ground, [Hypergraph(ground, edges) for edges in members])


# ground <= 6, 2-5 members of 1-5 edges, not all of one count, with a
# duplicate edge: unions of equal member count differ in size
uneven_families = st.integers(1, 6).flatmap(
    lambda ground: st.lists(
        st.lists(st.sets(st.integers(0, ground - 1), min_size=1), min_size=1, max_size=4),
        min_size=2,
        max_size=5,
    ).map(lambda members: repeat_first_edge_last(ground, members))
).filter(lambda fam: len({h.num_edges for h in fam.members}) > 1)


class TestWidthProperties:
    @property_settings
    @given(hypergraphs)
    def test_width_matches_brute_force(self, h):
        assert width(h) == brute_force_width(h)

    @property_settings
    @given(hypergraphs)
    def test_lp_matrix_is_intersection_sizes(self, h):
        masks = vertex_masks(h)
        expected = np.array([[(a & b).bit_count() for b in masks] for a in masks], dtype=float)
        assert np.array_equal(fractional_width_lp(h).matrix, expected)

    @property_settings
    @given(hypergraphs)
    def test_meets_and_line_graph_match_pairwise_loops(self, h):
        masks = vertex_masks(h)
        m = len(masks)
        meets = [sum(1 << i for i, other in enumerate(masks) if mask & other) for mask in masks]
        assert hypergraphs_module._meets(hypergraphs_module._gram(h)) == meets
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if masks[i] & masks[j]]
        assert line_graph(h) == Graph(m, pairs)

    @property_settings
    @given(families)
    def test_sweep_matches_per_union_widths(self, fam):
        if any(h.num_edges == 0 for h in fam.members):
            with pytest.raises(ValueError, match="empty hypergraph"):
                sweep_family(fam)
            return
        sweep = sweep_family(fam)
        for mask in range(1, 1 << fam.size):
            union = fam.union([i for i in range(fam.size) if mask >> i & 1])
            assert sweep.integral[mask] == width(union)[0]
            assert sweep.fractional[mask] == fractional_width(union)
        assert sweep.search == sdr_search(fam)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(uneven_families)
    def test_stacked_sweep_matches_single_lps_bitwise(self, fam):
        sweep = sweep_family(fam)
        sizes_by_count = {}
        for mask in range(1, 1 << fam.size):
            union = fam.union([i for i in range(fam.size) if mask >> i & 1])
            sizes_by_count.setdefault(mask.bit_count(), set()).add(union.num_edges)
            assert sweep.fractional[mask].hex() == fractional_width(union).hex()
        assert len(sizes_by_count[1]) > 1

    def test_sweep_searches_each_component_once(self, monkeypatch):
        # edges 0 and 1 are disjoint until member 3's edge {0, 1} joins them
        fam = HypergraphFamily(
            3, [Hypergraph(3, [[0]]), Hypergraph(3, [[1]]), Hypergraph(3, [[0, 1]]), Hypergraph(3, [[2]])]
        )
        targets = []
        cover = hypergraphs_module.smallest_cover

        def recorded(masks, target, candidates):
            targets.append(target)
            return cover(masks, target, candidates)

        monkeypatch.setattr(hypergraphs_module, "smallest_cover", recorded)
        sweep = sweep_family(fam)
        # the table's components, then `width` on the full union
        assert sorted(targets[:-1]) == [0b1, 0b10, 0b100, 0b101, 0b110, 0b111, 0b1000]
        assert targets[-1] == 0b1111
        assert sweep.integral[0b0011] == 2
        assert sweep.integral[0b0111] == 1
        assert sweep.integral[0b1111] == 2

    @property_settings
    @given(hypergraphs)
    def test_fractional_width_matches_scipy(self, h):
        lp = fractional_width_lp(h)
        ones = np.ones(len(lp.matrix))
        ref = linprog(ones, A_ub=-lp.matrix, b_ub=-ones, bounds=(0, None), method="highs")
        assert ref.success
        assert fractional_width(h) == pytest.approx(ref.fun, abs=1e-9)


class TestSdrSearch:
    def test_disjoint_singletons_found(self):
        fam = HypergraphFamily(2, [Hypergraph(2, [[0]]), Hypergraph(2, [[1]])])
        assert find_sdr(fam) == ((0,), (1,))

    def test_conflicting_singletons_none(self):
        fam = HypergraphFamily(1, [Hypergraph(1, [[0]]), Hypergraph(1, [[0]])])
        assert find_sdr(fam) is None

    def test_empty_member_means_none(self):
        fam = HypergraphFamily(2, [Hypergraph(2, [[0]]), Hypergraph(2, [])])
        assert find_sdr(fam) is None

    def test_planted_families_found(self):
        for seed in range(15):
            fam, plants = planted_sdr_family(seed=700 + seed)
            result = sdr_search(fam)
            assert result.representatives is not None
            masks = []
            for edge in result.representatives:
                m = 0
                for v in edge:
                    m |= 1 << v
                masks.append(m)
            assert all(
                not (masks[i] & masks[j]) for i in range(len(masks)) for j in range(i + 1, len(masks))
            )

    def test_members_share_one_vertex_labelling(self):
        # the first member's only vertex, ranked alone, would share bit 0
        # with the second member's vertex 0; representatives keep their labels
        big = 10**20
        fam = HypergraphFamily(big, [Hypergraph(big, [[big - 1]]), Hypergraph(big, [[big - 1], [0]])])
        assert find_sdr(fam) == ((big - 1,), (0,))

    def test_transcript_hash_deterministic(self):
        fam = HypergraphFamily(1, [Hypergraph(1, [[0]]), Hypergraph(1, [[0]])])
        assert sdr_search(fam).transcript_hash == sdr_search(fam).transcript_hash

    def test_family_cap(self):
        members = [Hypergraph(9, [[i]]) for i in range(9)]
        with pytest.raises(CapExceeded):
            find_sdr(HypergraphFamily(9, members))


class TestFractionalWidthCondition:
    def test_disjoint_singletons_hypothesis_holds(self):
        fam = HypergraphFamily(3, [Hypergraph(3, [[0]]), Hypergraph(3, [[1]]), Hypergraph(3, [[2]])])
        records = verify_fractional_width_condition(sweep_family(fam), instance="disjoint")
        final = records[-1]
        assert final.check == "fractional_width_sdr"
        assert final.passed is True
        assert "representatives" in final.detail
        margins = [rec for rec in records if rec.check == "fractional_width_margin"]
        assert len(margins) == 7
        assert all(m.slack == pytest.approx(1.0, abs=1e-7) for m in margins)

    def test_empty_member_rejected(self):
        fam = HypergraphFamily(2, [Hypergraph(2, [[0]]), Hypergraph(2, [])])
        with pytest.raises(ValueError, match="empty hypergraph"):
            sweep_family(fam)

    def test_duplicate_singleton_family_borderline(self):
        # the two-member union has fractional width exactly 1 = |I| - 0:
        # margin 0 sits inside the strictness tolerance, so no assertion
        fam = HypergraphFamily(1, [Hypergraph(1, [[0]]), Hypergraph(1, [[0]])])
        records = verify_fractional_width_condition(sweep_family(fam), instance="dup")
        final = records[-1]
        assert final.passed is None
        assert find_sdr(fam) is None

    def test_clear_violation_reported(self):
        # three members sharing one ground vertex: the full union has
        # fractional width 1 < 2, a clear hypothesis failure
        fam = HypergraphFamily(1, [Hypergraph(1, [[0]])] * 3)
        records = verify_fractional_width_condition(sweep_family(fam), instance="triple")
        final = records[-1]
        assert final.passed is True
        assert "hypothesis not satisfied" in final.detail

    def test_corpus_no_counterexamples(self):
        for label, fam in family_corpus(count=40, seed=21):
            records = verify_fractional_width_condition(sweep_family(fam), instance=label)
            assert records[-1].passed is not False, label


class TestIntegralWidthCondition:
    def test_single_member_single_edge(self):
        fam = HypergraphFamily(2, [Hypergraph(2, [[0, 1]])])
        records = verify_integral_width_condition(sweep_family(fam), instance="one")
        final = records[-1]
        assert final.passed is True
        assert "representatives" in final.detail

    def test_separation_from_fractional_condition(self):
        # disjoint singletons: integral width of a union is |I| < 2|I| - 1
        # for |I| >= 2, while the fractional margins all exceed zero
        fam = HypergraphFamily(3, [Hypergraph(3, [[0]]), Hypergraph(3, [[1]]), Hypergraph(3, [[2]])])
        records = compare_width_conditions(sweep_family(fam), instance="sep")
        comparison = records[-1]
        assert comparison.check == "width_condition_comparison"
        assert "separation instance" in comparison.detail
        assert "fractional condition: met" in comparison.detail
        assert "integral condition: not met" in comparison.detail

    def test_corpus_no_counterexamples(self):
        for label, fam in family_corpus(count=40, seed=23):
            records = verify_integral_width_condition(sweep_family(fam), instance=label)
            assert records[-1].passed is not False, label


class TestColorfulSimplices:
    def test_full_simplex_two_classes(self):
        pc = PartitionedComplex(complete_graph(2), [[0], [1]])
        records = verify_colorful_condition(pc, instance="edge")
        assert records[-1].passed is True
        assert "(0, 1)" in records[-1].detail

    def test_two_points_hypothesis_fails(self):
        pc = PartitionedComplex(Graph(2), [[0], [1]])
        records = verify_colorful_condition(pc, instance="points")
        final = records[-1]
        assert final.passed is True
        assert "hypothesis not satisfied" in final.detail
        assert find_colorful_simplex(pc) is None

    def test_line_graph_instantiation_finds_sdr(self):
        # colorful independent sets of the line graph, classes = members:
        # exactly the representative systems of the family
        fam, _ = planted_sdr_family(seed=5, members=3, ground=6)
        union = fam.union(range(fam.size))
        lg = line_graph(union)
        classes = []
        start = 0
        for h in fam.members:
            classes.append(list(range(start, start + h.num_edges)))
            start += h.num_edges
        pc = PartitionedComplex(complement(lg), classes)
        simplex = find_colorful_simplex(pc)
        assert simplex is not None
        masks = vertex_masks(union)
        chosen = [masks[i] for i in simplex]
        assert all(not (chosen[i] & chosen[j]) for i in range(3) for j in range(i + 1, 3))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            PartitionedComplex(complete_graph(2), [[0]])
        with pytest.raises(ValueError):
            PartitionedComplex(complete_graph(2), [[0, 1], [1]])
        with pytest.raises(ValueError):
            PartitionedComplex(complete_graph(2), [[0, 1], []])
