"""Graph type, generators, and Laplacian spectra.

Independent oracles used here: the closed-form Laplacian spectra of complete
graphs ({0, n with multiplicity n-1}) and cycles (2 - 2cos(2 pi j / n)), and
hand-enumerated matrices for the smallest instances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspectra import (
    Graph,
    SplitMix64,
    blow_up,
    complement,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    lambda_max,
    laplacian_matrix,
    laplacian_spectrum,
    random_gnp,
    spectral_gap,
    turan_graph,
)
from flagspectra.graphs import (
    format_graph_text,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_graph_text,
)


# graphs on 2-10 vertices from arbitrary vertex pairs (loops dropped)
graphs_2_to_10 = st.integers(2, 10).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda pairs: Graph(n, [(u, v) for u, v in pairs if u != v])
    )
)


def cycle_spectrum_oracle(n):
    return sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n))


def sample_graphs():
    out = [complete_graph(5), cycle_graph(6), turan_graph(3, 2), Graph(4), Graph(1)]
    for i in range(12):
        out.append(random_gnp(4 + i % 6, (0.3, 0.5, 0.7)[i % 3], seed=1000 + i))
    return out


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_neighbors_and_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        assert g.neighbors(0) == (1, 2)
        assert g.degree(2) == 2
        assert g.has_edge(3, 2)
        assert not g.has_edge(1, 2)
        assert g.isolated_vertices() == ()
        assert Graph(2).isolated_vertices() == (0, 1)


class TestLaplacian:
    def test_single_edge(self):
        assert laplacian_matrix(Graph(2, [(0, 1)])).tolist() == [[1, -1], [-1, 1]]

    def test_single_vertex(self):
        assert laplacian_matrix(Graph(1)).tolist() == [[0]]

    def test_four_cycle_by_hand(self):
        # degrees all 2; -1 at cycle-adjacent pairs, 0 at antipodal pairs
        expected = [
            [2, -1, 0, -1],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [-1, 0, -1, 2],
        ]
        assert laplacian_matrix(cycle_graph(4)).tolist() == expected

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty graph"):
            laplacian_matrix(Graph(0))

    def test_row_sums_vanish(self):
        for g in sample_graphs():
            assert np.all(laplacian_matrix(g).sum(axis=1) == 0)

    def test_smallest_eigenvalue_is_zero(self):
        for g in sample_graphs():
            assert abs(laplacian_spectrum(g)[0]) <= 1e-10


class TestSpectralGap:
    def test_complete_graph(self):
        # oracle: spectrum of K_n is {0} + {n} * (n-1)
        assert spectral_gap(complete_graph(5)) == pytest.approx(5.0, abs=1e-8)

    def test_disconnected_graph(self):
        assert spectral_gap(Graph(2)) == pytest.approx(0.0, abs=1e-12)

    def test_four_cycle(self):
        assert spectral_gap(cycle_graph(4)) == pytest.approx(cycle_spectrum_oracle(4)[1], abs=1e-8)
        assert spectral_gap(cycle_graph(4)) == pytest.approx(2.0, abs=1e-8)

    def test_cycles_match_oracle(self):
        for n in range(3, 10):
            got = laplacian_spectrum(cycle_graph(n))
            assert np.allclose(got, cycle_spectrum_oracle(n), atol=1e-8)

    def test_too_small(self):
        with pytest.raises(ValueError):
            spectral_gap(Graph(1))

    def test_turan_gap_formula(self):
        for r, ell in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            assert spectral_gap(turan_graph(r, ell)) == pytest.approx(ell * (r - 1), abs=1e-8)


class TestLambdaMax:
    def test_single_edge(self):
        assert lambda_max(Graph(2, [(0, 1)])) == pytest.approx(2.0, abs=1e-10)

    def test_edgeless(self):
        assert lambda_max(Graph(4)) == 0.0

    def test_complement_identity(self):
        for g in sample_graphs():
            if g.n < 2:
                continue
            assert lambda_max(g) == pytest.approx(g.n - spectral_gap(complement(g)), abs=1e-8)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graphs_2_to_10)
    def test_complement_spectrum_duality(self, g):
        # L(G) + L(complement) = nI - J, and the two Laplacians share the
        # eigenvectors orthogonal to the all-ones vector, so the complement's
        # spectrum is 0 followed by n - mu_i for i = 2..n
        mu = laplacian_spectrum(g)
        expected = np.concatenate([[0.0], np.sort(g.n - mu[1:])])
        assert np.abs(laplacian_spectrum(complement(g)) - expected).max() <= 1e-9


class TestComplement:
    def test_complete_becomes_edgeless(self):
        for n in (1, 3, 5):
            assert complement(complete_graph(n)) == Graph(n)

    def test_involution(self):
        for g in sample_graphs():
            assert complement(complement(g)) == g

    def test_five_cycle_self_complementary(self):
        co = complement(cycle_graph(5))
        assert all(co.degree(v) == 2 for v in range(5))
        # walk the complement: connected 2-regular on 5 vertices is a 5-cycle
        seen = {0}
        prev, cur = None, 0
        for _ in range(4):
            nxt = [u for u in co.neighbors(cur) if u != prev][0]
            prev, cur = cur, nxt
            seen.add(cur)
        assert seen == set(range(5))


class TestGenerators:
    def test_turan_2_2_is_labeled_four_cycle(self):
        assert turan_graph(2, 2).edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_turan_singleton_blocks(self):
        assert turan_graph(4, 1) == complete_graph(4)

    def test_turan_single_block(self):
        assert turan_graph(1, 5) == Graph(5)

    def test_cycle_3_is_triangle(self):
        assert cycle_graph(3) == complete_graph(3)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_gnp_extremes(self):
        assert random_gnp(6, 0.0, 7) == Graph(6)
        assert random_gnp(6, 1.0, 7) == complete_graph(6)

    def test_gnp_deterministic(self):
        assert random_gnp(8, 0.5, 42) == random_gnp(8, 0.5, 42)

    def test_induced_subgraph(self):
        g = cycle_graph(5)
        sub = induced_subgraph(g, [0, 1, 3])
        assert sub == Graph(3, [(0, 1)])


class TestBlowUp:
    def test_unit_weights_identity(self):
        for g in sample_graphs():
            assert blow_up(g, [1] * g.n) == g

    def test_edge_blows_to_complete_bipartite(self):
        got = blow_up(Graph(2, [(0, 1)]), (2, 2))
        assert got.n == 4
        assert got.edges == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})

    def test_copies_stay_independent(self):
        g = random_gnp(5, 0.6, 3)
        expanded = blow_up(g, [3, 1, 2, 1, 2])
        offsets = [0, 3, 4, 6, 7]
        for v in range(5):
            w = [3, 1, 2, 1, 2][v]
            for i in range(w):
                for j in range(i + 1, w):
                    assert not expanded.has_edge(offsets[v] + i, offsets[v] + j)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            blow_up(Graph(2, [(0, 1)]), (1, 0))


class TestSplitMix:
    def test_reference_sequence_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(99)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_gauss_moments(self):
        rng = SplitMix64(7)
        vals = [rng.next_gauss() for _ in range(4000)]
        assert abs(sum(vals) / len(vals)) < 0.06
        var = sum(v * v for v in vals) / len(vals)
        assert abs(var - 1.0) < 0.1


class TestInterchange:
    def test_json_round_trip(self):
        g = turan_graph(3, 2)
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_text_round_trip(self):
        g = cycle_graph(5)
        assert parse_graph_text(format_graph_text(g)) == g

    def test_text_rejects_bad_header(self):
        from flagspectra import InputFormatError

        with pytest.raises(InputFormatError, match="line 1"):
            parse_graph_text("nonsense\n")
