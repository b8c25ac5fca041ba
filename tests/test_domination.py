"""Exact domination parameters, representation values, and the connectivity verifiers.

Brute-force-derived values frozen here: domination 2 / total 4 / worst-case
independent cover 2 for the 6-cycle, total domination 2 for the 4-cycle and
the 3-star.  LP values come with independently checked feasible points
(uniform weights) and the dual witness from the construction itself.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspectra import (
    CapExceeded,
    Graph,
    VectorRepresentation,
    best_representation_value,
    complete_graph,
    cycle_graph,
    cycle_representation,
    domination_number,
    edge_incidence_representation,
    fractional_strong_domination,
    independence_connectivity,
    independent_domination_number,
    lambda_max,
    random_gnp,
    representation_value,
    total_domination_number,
    validate_representation,
    verify_gram_row_bound,
    verify_representation_connectivity_bound,
    verify_spectral_connectivity_bound,
)
from flagspectra.domination import _maximal_independent_sets, representation_from_json_dict, strong_domination_lp


# a vertex count of 1-12 and a set of vertex pairs, loops included
vertex_pairs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
)


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def corpus():
    return [random_gnp(4 + i % 5, (0.3, 0.5, 0.7)[i % 3], seed=6000 + i) for i in range(12)]


def spectral_bound(g, instance):
    return verify_spectral_connectivity_bound(g.n, lambda_max(g), independence_connectivity(g), instance=instance)


def representation_bound(g, reps, instance):
    return verify_representation_connectivity_bound(
        best_representation_value(map(representation_value, reps)), independence_connectivity(g), instance=instance
    )


class TestExactParameters:
    def test_domination_of_complete(self):
        for n in (1, 3, 6):
            rep = domination_number(complete_graph(n))
            assert rep.value == 1

    def test_domination_of_edgeless(self):
        assert domination_number(Graph(4)).value == 4

    def test_domination_of_six_cycle(self):
        rep = domination_number(cycle_graph(6))
        assert rep.value == 2
        # witness re-check: closed neighborhoods cover everything
        covered = set(rep.witness)
        for v in rep.witness:
            covered.update(cycle_graph(6).neighbors(v))
        assert covered == set(range(6))

    def test_total_domination_single_edge(self):
        assert total_domination_number(Graph(2, [(0, 1)])).value == 2

    def test_total_domination_four_cycle(self):
        assert total_domination_number(cycle_graph(4)).value == 2

    def test_total_domination_star(self):
        assert total_domination_number(star(3)).value == 2

    def test_total_domination_six_cycle(self):
        assert total_domination_number(cycle_graph(6)).value == 4

    def test_total_rejects_isolated(self):
        with pytest.raises(ValueError, match="no totally dominating set"):
            total_domination_number(Graph(3, [(0, 1)]))

    def test_independent_domination_complete(self):
        assert independent_domination_number(complete_graph(4)).value == 1

    def test_independent_domination_edgeless_is_infinite(self):
        assert independent_domination_number(Graph(3)).value == math.inf

    def test_independent_domination_six_cycle(self):
        rep = independent_domination_number(cycle_graph(6))
        assert rep.value == 2
        ind, cover = rep.witness
        g = cycle_graph(6)
        assert all(not g.has_edge(u, v) for i, u in enumerate(ind) for v in ind[i + 1 :])
        reached = set()
        for v in cover:
            reached.update(g.neighbors(v))
        assert set(ind) <= reached

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(vertex_pairs)
    def test_maximal_independent_sets_are_the_complements_cliques(self, graph):
        n, pairs = graph
        g = Graph(n, [(u, v) for u, v in pairs if u != v])
        oracle = nx.Graph()
        oracle.add_nodes_from(range(n))
        oracle.add_edges_from(g.sorted_edges())
        cliques = nx.find_cliques(nx.complement(oracle))
        assert _maximal_independent_sets(g) == sorted(sum(1 << v for v in clique) for clique in cliques)

    def test_caps_enforced(self):
        with pytest.raises(CapExceeded):
            domination_number(Graph(17))
        with pytest.raises(CapExceeded):
            independent_domination_number(Graph(15))


class TestFractionalStrongDomination:
    def test_cycles_quarter_n(self):
        for n in range(3, 13):
            rep = fractional_strong_domination(cycle_graph(n))
            assert rep.value == pytest.approx(n / 4.0, abs=1e-6)

    def test_single_edge(self):
        assert fractional_strong_domination(Graph(2, [(0, 1)])).value == pytest.approx(1.0, abs=1e-9)

    def test_complete_graph_uniform_optimum(self):
        for n in (3, 4, 6):
            g = complete_graph(n)
            # independent feasibility check of the uniform weights 1/(2n-2)
            f = np.full(n, 1.0 / (2 * n - 2))
            lp = strong_domination_lp(g)
            assert np.all(lp.matrix @ f >= 1.0 - 1e-12)
            assert fractional_strong_domination(g).value == pytest.approx(n / (2 * n - 2), abs=1e-6)

    def test_isolated_vertex_infeasible(self):
        rep = fractional_strong_domination(Graph(3, [(0, 1)]))
        assert rep.value == math.inf
        assert rep.notes == "infeasible: zero row 2 requires 1 > 0"

    def test_witness_feasible(self):
        for g in corpus():
            if g.isolated_vertices():
                continue
            rep = fractional_strong_domination(g)
            lp = strong_domination_lp(g)
            assert np.all(lp.matrix @ rep.witness >= 1.0 - 1e-8)
            assert rep.witness.sum() == pytest.approx(rep.value, abs=1e-8)


class TestRepresentations:
    def test_edge_incidence_single_edge(self):
        rep = edge_incidence_representation(Graph(2, [(0, 1)]))
        assert rep.matrix.tolist() == [[1], [1]]

    def test_edge_incidence_path_gram(self):
        rep = edge_incidence_representation(Graph(3, [(0, 1), (1, 2)]))
        gram = rep.gram()
        assert gram[1, 1] == 2
        assert gram[0, 2] == 0
        assert gram[0, 1] == 1

    def test_edge_incidence_needs_edges(self):
        with pytest.raises(ValueError):
            edge_incidence_representation(Graph(3))

    def test_edge_incidence_valid_on_corpus(self):
        for g in corpus():
            if g.num_edges:
                assert validate_representation(edge_incidence_representation(g))

    def test_zero_vectors_invalid(self):
        g = Graph(2, [(0, 1)])
        assert not validate_representation(VectorRepresentation(g, np.zeros((2, 1))))

    def test_value_of_invalid_representation_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="representation violates the Gram conditions"):
            representation_value(VectorRepresentation(g, np.zeros((2, 1))))

    def test_cycle_representation_matches_construction(self):
        rep = cycle_representation(2)
        e = np.eye(4, dtype=np.int64)
        want = np.array([e[0], e[0] + e[1], e[1] + e[2], e[2], e[2] + e[3], e[3] + e[0]])
        assert np.array_equal(rep.matrix, want)

    def test_cycle_representation_valid(self):
        for k in range(1, 5):
            assert validate_representation(cycle_representation(k))

    def test_representation_value_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert representation_value(VectorRepresentation(g, np.ones((2, 1)))).value == pytest.approx(
            1.0, abs=1e-9
        )

    def test_cycle_representation_value_and_witness(self):
        for k in range(1, 5):
            rep = cycle_representation(k)
            assert representation_value(rep).value == pytest.approx(float(k), abs=1e-6)
            # the weight vector supported on multiples of 3 satisfies
            # alpha . Gram == all-ones exactly, certifying optimality both ways
            alpha = np.array([1.0 if v % 3 == 0 else 0.0 for v in range(3 * k)])
            gram = rep.gram().astype(float)
            assert np.array_equal(alpha @ gram, np.ones(3 * k))
            assert alpha.sum() == k

    def test_incidence_value_equals_fractional_strong_domination(self):
        for g in corpus():
            if not g.num_edges or g.isolated_vertices():
                continue
            lhs = representation_value(edge_incidence_representation(g)).value
            rhs = fractional_strong_domination(g).value
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_value_invariant_under_zero_padding(self):
        g = cycle_graph(5)
        rep = edge_incidence_representation(g)
        padded = VectorRepresentation(g, np.hstack([rep.matrix, np.zeros((g.n, 2), dtype=np.int64)]))
        assert np.array_equal(rep.gram(), padded.gram())
        assert representation_value(rep).value == representation_value(padded).value

    def test_best_value_six_cycle(self):
        g = cycle_graph(6)
        report = best_representation_value(
            [representation_value(edge_incidence_representation(g)), representation_value(cycle_representation(2))]
        )
        assert report.value == pytest.approx(2.0, abs=1e-6)
        assert report.witness["representation"] == 1

    def test_best_value_dominates_incidence(self):
        for g in corpus():
            if not g.num_edges or g.isolated_vertices():
                continue
            bound = best_representation_value([representation_value(edge_incidence_representation(g))])
            assert bound.value >= fractional_strong_domination(g).value - 1e-6

    def test_best_value_empty_rejected(self):
        with pytest.raises(ValueError):
            best_representation_value([])

    def test_json_import(self):
        g = Graph(2, [(0, 1)])
        rep = representation_from_json_dict(g, {"dim": 1, "vectors": [[1.0], [1.0]]})
        assert validate_representation(rep)


class TestVerifiers:
    def test_spectral_bound_tight_on_complete(self):
        rec = spectral_bound(complete_graph(5), instance="k5")
        assert rec.passed
        assert rec.lhs == pytest.approx(1.0)
        assert rec.rhs == pytest.approx(1.0)

    def test_spectral_bound_six_cycle(self):
        rec = spectral_bound(cycle_graph(6), instance="c6")
        assert rec.passed
        assert rec.rhs == pytest.approx(1.5, abs=1e-8)

    def test_spectral_bound_edgeless(self):
        rec = spectral_bound(Graph(3), instance="empty")
        assert rec.passed is True

    def test_spectral_bound_corpus(self):
        for i, g in enumerate(corpus()):
            assert spectral_bound(g, instance=f"g{i}").passed is not False

    def test_gram_row_bound_four_cycle(self):
        g = cycle_graph(4)
        rec = verify_gram_row_bound(lambda_max(g), edge_incidence_representation(g), instance="c4")
        assert rec.passed
        assert rec.lhs == pytest.approx(4.0, abs=1e-8)  # largest Laplacian eigenvalue
        assert rec.rhs == pytest.approx(4.0, abs=1e-12)  # max Gram row sum: deg + #neighbors

    def test_gram_row_bound_single_edge(self):
        g = Graph(2, [(0, 1)])
        rec = verify_gram_row_bound(lambda_max(g), VectorRepresentation(g, np.ones((2, 1))), instance="k2")
        assert rec.passed
        assert rec.rhs == pytest.approx(2.0)

    def test_gram_row_bound_corpus(self):
        for i, g in enumerate(corpus()):
            if not g.num_edges:
                continue
            rec = verify_gram_row_bound(lambda_max(g), edge_incidence_representation(g), instance=f"g{i}")
            assert rec.passed

    def test_representation_bound_tight_on_small_cycles(self):
        for k in (1, 2, 3):
            g = cycle_graph(3 * k)
            rec = representation_bound(g, [cycle_representation(k)], instance=f"c{3 * k}")
            assert rec.passed
            assert rec.lhs == pytest.approx(float(k))
            assert rec.rhs == pytest.approx(float(k), abs=1e-6)

    def test_connectivity_on_next_residue_cycles(self):
        # cycles one past a multiple of three keep the same connectivity value
        for k in (1, 2, 3):
            eta = independence_connectivity(cycle_graph(3 * k + 1))
            assert eta.value() == k

    def test_representation_bound_corpus(self):
        for i, g in enumerate(corpus()):
            if not g.num_edges or g.isolated_vertices():
                continue
            rec = representation_bound(g, [edge_incidence_representation(g)], instance=f"g{i}")
            assert rec.passed is not False
