"""Flag complex enumeration, face tables, coboundaries, and the restriction gather.

The enumeration oracle is an independent brute force: scan all vertex
subsets with itertools and keep those spanning complete subgraphs.
"""

import tracemalloc
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagspectra import (
    CapExceeded,
    Graph,
    SplitMix64,
    build_flag_complex,
    coboundary_matrix,
    complete_graph,
    cycle_graph,
    independence_complex,
    random_gnp,
    turan_graph,
)
from flagspectra import complexes
from flagspectra.spectral import CochainIdentityChecker, _facet_degree_sums


def graphs_up_to(nmax):
    """Graphs on 1-nmax vertices from arbitrary vertex pairs (loops dropped)."""
    return st.integers(1, nmax).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
            lambda pairs: Graph(n, [(u, v) for u, v in pairs if u != v])
        )
    )


small_graphs = graphs_up_to(9)


def brute_force_cliques(g, size):
    """All cliques with `size` vertices, lexicographically sorted."""
    out = []
    for combo in combinations(range(g.n), size):
        if all(g.has_edge(u, v) for u, v in combinations(combo, 2)):
            out.append(combo)
    return out


def gauss_cochain(rng, x, k):
    return np.array([rng.next_gauss() for _ in x.skeleta[k]])


def degree_of(x, simplex):
    k = len(simplex) - 1
    return int(x.degrees(k)[x.index[k][simplex]])


def corpus():
    graphs = [complete_graph(4), cycle_graph(5), turan_graph(3, 2)]
    graphs += [random_gnp(7, 0.5, seed=2000 + i) for i in range(6)]
    graphs += [random_gnp(8, 0.5, seed=2100 + i) for i in range(4)]
    return graphs


class TestEnumeration:
    def test_triangle_counts(self):
        x = build_flag_complex(complete_graph(3), max_dim=2)
        assert x.counts() == (3, 3, 1)

    def test_four_cycle_counts(self):
        x = build_flag_complex(cycle_graph(4), max_dim=2)
        assert x.counts() == (4, 4, 0)

    def test_turan_two_simplices(self):
        # one vertex per block: 2^3 triangles
        x = build_flag_complex(turan_graph(3, 2), max_dim=2)
        assert len(x.skeleta[2]) == 8
        assert x.skeleta[2] == tuple(brute_force_cliques(turan_graph(3, 2), 3))

    def test_matches_brute_force_on_corpus(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k in range(x.max_dim + 1):
                assert x.skeleta[k] == tuple(brute_force_cliques(g, k + 1))

    def test_face_closure(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k in range(1, x.max_dim + 1):
                for sigma in x.skeleta[k]:
                    for i in range(len(sigma)):
                        assert sigma[:i] + sigma[i + 1 :] in x.index[k - 1]

    def test_lexicographic_order(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for level in x.skeleta:
                assert list(level) == sorted(level)

    def test_cap_exceeded_names_dimension(self):
        with pytest.raises(CapExceeded, match="dimension 1"):
            build_flag_complex(complete_graph(9), max_dim=3, simplex_cap=30)

    def test_cap_raised_before_the_level_is_built(self):
        # K700 has 244650 edges; the build stops once the level passes the
        # default cap of 20000, and still reports the exact count
        g = complete_graph(700)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"^complex too large: 244650 simplices in dimension 1 \(cap 20000\)$"):
                build_flag_complex(g, max_dim=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_max_dim_above_top_dimension_rejected(self):
        with pytest.raises(ValueError, match="max_dim 3 exceeds n - 1 = 2"):
            build_flag_complex(complete_graph(3), max_dim=3)

    def test_complete_flag(self):
        assert build_flag_complex(complete_graph(4), max_dim=3).complete
        assert not build_flag_complex(complete_graph(4), max_dim=2).complete
        assert build_flag_complex(cycle_graph(4), max_dim=2).complete  # no triangles exist

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_flag_complex(Graph(0))


class TestIndependenceComplex:
    def test_complete_graph_gives_points(self):
        x = independence_complex(complete_graph(4), max_dim=3)
        assert x.counts() == (4, 0, 0, 0)

    def test_edgeless_gives_full_simplex(self):
        x = independence_complex(Graph(3), max_dim=2)
        assert x.counts() == (3, 3, 1)

    def test_five_cycle_complement(self):
        x = independence_complex(cycle_graph(5), max_dim=1)
        assert x.counts() == (5, 5)


class TestCoboundary:
    def test_augmentation_column(self):
        x = build_flag_complex(Graph(3), max_dim=0)
        assert coboundary_matrix(x, -1).tolist() == [[1], [1], [1]]

    def test_single_edge_vertex_coboundary(self):
        x = build_flag_complex(Graph(2, [(0, 1)]), max_dim=1)
        assert coboundary_matrix(x, 0).tolist() == [[-1, 1]]

    def test_composition_vanishes_exactly(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            below = coboundary_matrix(x, -1)
            for k in range(0, x.max_dim):
                here = coboundary_matrix(x, k)
                prod = here @ below
                assert prod.dtype == np.int64
                assert not prod.any()
                below = here
                if not x.skeleta[k + 1]:
                    break

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_graphs)
    def test_composition_vanishes_on_random_graphs(self, g):
        x = build_flag_complex(g, max_dim=g.n - 1)
        for k in range(-1, x.max_dim - 1):
            prod = coboundary_matrix(x, k + 1) @ coboundary_matrix(x, k)
            assert prod.dtype == np.int64
            assert not prod.any()

    def test_cached_and_read_only(self):
        x = build_flag_complex(complete_graph(4), max_dim=3)
        for k in range(-1, 3):
            d = coboundary_matrix(x, k)
            assert coboundary_matrix(x, k) is d
            with pytest.raises(ValueError):
                d[0, 0] = 7
        assert coboundary_matrix(x, 1).tolist() == loop_coboundary(x, 1).tolist()

    def test_out_of_range(self):
        x = build_flag_complex(complete_graph(3), max_dim=1)
        with pytest.raises(ValueError):
            coboundary_matrix(x, 1)
        with pytest.raises(ValueError):
            coboundary_matrix(x, -2)


# The per-simplex constructions that the face table replaced, kept as oracles.


def loop_coboundary(x, k):
    rows = x.skeleta[k + 1]
    cols_index = x.index[k]
    mat = np.zeros((len(rows), len(cols_index)), dtype=np.int64)
    for r, tau in enumerate(rows):
        sign = 1
        for i in range(len(tau)):
            mat[r, cols_index[tau[:i] + tau[i + 1 :]]] = sign
            sign = -sign
    return mat


def loop_restrictions(x, k):
    upper = x.index[k]
    mats = []
    for u in range(x.graph.n):
        mat = np.zeros((len(x.skeleta[k - 1]), len(x.skeleta[k])), dtype=np.int64)
        for pos, tau in enumerate(x.skeleta[k - 1]):
            if u in tau:
                continue
            idx = upper.get(tuple(sorted(tau + (u,))))
            if idx is None:
                continue
            below = sum(1 for t in tau if t < u)
            mat[pos, idx] = -1 if below & 1 else 1
        mats.append(mat)
    return mats


def common_neighbors(g, simplex):
    return [v for v in range(g.n) if all(g.has_edge(v, t) for t in simplex)]


def loop_link_pairs(x, k):
    """(iv, iw, sign) for each (k-1)-simplex eta and adjacent pair v < w of its link."""
    pairs = []
    upper = x.index[k]
    for eta in x.skeleta[k - 1]:
        verts = common_neighbors(x.graph, eta)
        for a, v in enumerate(verts):
            v_idx = upper.get(tuple(sorted(eta + (v,))))
            if v_idx is None:
                continue
            sv = -1 if sum(1 for t in eta if t < v) & 1 else 1
            for w in verts[a + 1 :]:
                if not x.graph.has_edge(v, w):
                    continue
                w_idx = upper.get(tuple(sorted(eta + (w,))))
                if w_idx is None:
                    continue
                sw = -1 if sum(1 for t in eta if t < w) & 1 else 1
                pairs.append((v_idx, w_idx, float(sv * sw)))
    return sorted(pairs)


class TestFaceTable:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(graphs_up_to(8), st.data())
    def test_face_table_matches_per_simplex_loops(self, g, data):
        x = build_flag_complex(g, max_dim=data.draw(st.integers(0, g.n - 1)))
        for k in range(x.max_dim + 1):
            assert x.degrees(k).tolist() == [len(common_neighbors(g, s)) for s in x.skeleta[k]]
        for k in range(1, x.max_dim + 1):
            faces = x.faces(k)
            assert faces.shape == (len(x.skeleta[k]), k + 1)
            for r, s in enumerate(x.skeleta[k]):
                for i in range(k + 1):
                    assert x.skeleta[k - 1][faces[r, i]] == tuple(v for p, v in enumerate(s) if p != i)
            assert np.array_equal(coboundary_matrix(x, k - 1), loop_coboundary(x, k - 1))
            sums = [sum(len(common_neighbors(g, f)) for f in combinations(s, k)) for s in x.skeleta[k]]
            assert _facet_degree_sums(x, k).tolist() == sums
            if x.skeleta[k] and (k < x.max_dim or x.complete):
                checker = CochainIdentityChecker(x, k)
                pairs = zip(checker._pair_iv.tolist(), checker._pair_iw.tolist(), checker._pair_sign.tolist())
                assert sorted(pairs) == loop_link_pairs(x, k)
                # the gather, row by row, against the per-vertex loop matrices
                phi = gauss_cochain(SplitMix64(data.draw(st.integers(0, 2**32))), x, k)
                want = np.array([mat @ phi for mat in loop_restrictions(x, k)])
                assert np.array_equal(checker._restrict(phi), want)

    def test_face_table_is_cached_and_read_only(self):
        x = build_flag_complex(complete_graph(3), max_dim=2)
        assert x.faces(2) is x.faces(2)
        assert not x.faces(2).flags.writeable

    def test_dense_arrays_capped_before_allocation(self, monkeypatch):
        x = build_flag_complex(complete_graph(5), max_dim=4)
        # 10 edges x 10 triangles is 800 bytes
        monkeypatch.setattr(complexes, "DENSE_BYTES_CAP", 799)
        with pytest.raises(CapExceeded, match=r"shape \(10, 10\) needs 800 bytes"):
            coboundary_matrix(x, 1)
        assert coboundary_matrix(x, 0).shape == (10, 5)  # 400 bytes, under the cap

    def test_restriction_gather_capped_before_allocation(self, monkeypatch):
        # K4 and 9 isolated vertices: at k = 3 the gather is 13 vertices x 4
        # triangles (416 bytes), larger than any coboundary or Laplacian it needs
        x = build_flag_complex(Graph(13, list(combinations(range(4), 2))), max_dim=3)
        monkeypatch.setattr(complexes, "DENSE_BYTES_CAP", 415)
        with pytest.raises(CapExceeded, match=r"shape \(13, 4\) needs 416 bytes"):
            CochainIdentityChecker(x, 3)
        assert x._coboundaries == [None] * 4  # refused before anything was built
        monkeypatch.setattr(complexes, "DENSE_BYTES_CAP", 416)
        assert all(rec.passed for rec in CochainIdentityChecker(x, 3).residuals(np.ones(1)))

    def test_face_table_degree_out_of_range(self):
        x = build_flag_complex(complete_graph(3), max_dim=1)
        for k in (0, 2):
            with pytest.raises(ValueError):
                x.faces(k)


class TestDegreesAndLinks:
    def test_vertex_degree_in_cycle(self):
        x = build_flag_complex(cycle_graph(4), max_dim=2)
        assert degree_of(x, (0,)) == 2

    def test_edge_degree_in_k4(self):
        x = build_flag_complex(complete_graph(4), max_dim=3)
        assert degree_of(x, (0, 1)) == 2

    def test_triangle_degree_in_k3(self):
        x = build_flag_complex(complete_graph(3), max_dim=2)
        assert degree_of(x, (0, 1, 2)) == 0

    def test_flag_link_exchange_property(self):
        # eta in X(k-2), edge vw in lk(eta), u in lk(v eta) & lk(w eta) => vw in lk(u eta)
        for g in [turan_graph(3, 2), random_gnp(7, 0.6, 4), complete_graph(5)]:
            x = build_flag_complex(g, max_dim=g.n - 1)

            def contains(simplex):
                key = tuple(sorted(simplex))
                return key in x.index[len(key) - 1]

            for eta in x.skeleta[0]:
                for v, w in combinations(range(g.n), 2):
                    if v in eta or w in eta or not g.has_edge(v, w):
                        continue
                    if not contains(eta + (v, w)):
                        continue
                    for u in range(g.n):
                        if u in eta or u in (v, w):
                            continue
                        if contains(eta + (v, u)) and contains(eta + (w, u)):
                            assert contains(eta + (u, v, w))


class TestCochains:
    """The restriction gather: row u of `CochainIdentityChecker._restrict(phi)` is phi_u."""

    def test_restriction_of_triangle_indicator(self):
        # phi the indicator of the triangle [0,1,2]; restricting to vertex 1
        # gives value on [0,2] equal to the sign of (1,0,2), namely -1
        x = build_flag_complex(complete_graph(3), max_dim=2)
        restricted = CochainIdentityChecker(x, 2)._restrict(np.array([1.0]))
        assert restricted.shape == (3, 3)
        assert restricted[1, x.index[1][(0, 2)]] == -1.0
        assert restricted[1, x.index[1][(0, 1)]] == 0.0  # 1 already inside
        assert restricted[0, x.index[1][(1, 2)]] == 1.0
        assert restricted[2, x.index[1][(0, 1)]] == 1.0

    def test_vertex_outside_every_simplex(self):
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        x = build_flag_complex(g, max_dim=2)
        restricted = CochainIdentityChecker(x, 2)._restrict(np.ones(len(x.skeleta[2])))
        assert not restricted[3].any()

    def test_degree_zero_rejected(self):
        x = build_flag_complex(complete_graph(3), max_dim=2)
        with pytest.raises(ValueError):
            CochainIdentityChecker(x, 0)

    def test_restriction_norm_double_count(self):
        # sum over vertices of ||phi_u||^2 equals (k+1) ||phi||^2
        rng = SplitMix64(81)
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k in range(1, x.max_dim + 1):
                if not x.skeleta[k]:
                    break
                phi = gauss_cochain(rng, x, k)
                restricted = CochainIdentityChecker(x, k)._restrict(phi)
                assert (restricted**2).sum() == pytest.approx((k + 1) * float(np.dot(phi, phi)), rel=1e-12)


class TestNetworkxOracle:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_graphs)
    def test_skeleta_are_networkx_cliques(self, g):
        oracle = nx.Graph()
        oracle.add_nodes_from(range(g.n))
        oracle.add_edges_from(g.sorted_edges())
        by_size = {}
        for clique in nx.enumerate_all_cliques(oracle):
            by_size.setdefault(len(clique), []).append(tuple(sorted(clique)))
        x = build_flag_complex(g, max_dim=g.n - 1)
        assert x.complete
        for k, level in enumerate(x.skeleta):
            assert list(level) == sorted(by_size.get(k + 1, []))
        assert len(x.skeleta) >= max(by_size)
