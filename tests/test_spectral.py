"""Hodge Laplacians, Betti profiles, connectivity, and the spectral verifiers.

Betti oracles: contractible complexes (complete graphs, full simplices),
circles (4-cycles), wedges of spheres for the balanced multipartite family,
and the reduced Euler characteristic, which every profile must reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from flagspectra import (
    CapExceeded,
    Graph,
    betti_profile,
    blow_up,
    build_flag_complex,
    complete_graph,
    cycle_graph,
    hodge_laplacian,
    independence_connectivity,
    laplacian_matrix,
    min_hodge_eigenvalue,
    random_gnp,
    spectral_gap,
    symmetric_eigenvalues,
    turan_graph,
    verify_eigenvalue_recursion,
    verify_facet_degree_bound,
    verify_vanishing_threshold,
)
from flagspectra import complexes
from flagspectra.complexes import coboundary_matrix
from flagspectra.spectral import facet_degree_excess


def corpus():
    graphs = [complete_graph(5), cycle_graph(6), turan_graph(3, 2), turan_graph(2, 3)]
    graphs += [random_gnp(4 + i % 7, (0.3, 0.5, 0.7)[i % 3], seed=4000 + i) for i in range(15)]
    return graphs


def full_profile(g):
    return betti_profile(build_flag_complex(g, max_dim=g.n - 1))


def reduced_euler_characteristic(x):
    return sum((-1) ** k * len(x.skeleta[k]) for k in range(x.max_dim + 1)) - 1


def graphs_on(most):
    """Graphs on 1 to `most` vertices from arbitrary vertex pairs (loops dropped)."""
    return st.integers(1, most).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
            lambda pairs: Graph(n, [(u, v) for u, v in pairs if u != v])
        )
    )


small_graphs = graphs_on(9)


class TestHodgeLaplacian:
    def test_degree_zero_equals_allones_plus_laplacian(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=1)
            want = np.ones((g.n, g.n), dtype=np.int64) + laplacian_matrix(g)
            assert np.array_equal(hodge_laplacian(x, 0), want)

    def test_single_edge(self):
        x = build_flag_complex(Graph(2, [(0, 1)]), max_dim=1)
        assert hodge_laplacian(x, 0).tolist() == [[2, 0], [0, 2]]

    def test_top_of_full_triangle(self):
        # the lone 2-simplex of the triangle: each of the 3 facets contributes 1
        x = build_flag_complex(complete_graph(3), max_dim=2)
        assert hodge_laplacian(x, 2).tolist() == [[3]]

    def test_empty_skeleton_rejected(self):
        x = build_flag_complex(cycle_graph(4), max_dim=2)
        with pytest.raises(ValueError, match="no 2-simplices"):
            hodge_laplacian(x, 2)

    def test_positive_semidefinite(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k in range(x.max_dim + 1):
                if not x.skeleta[k]:
                    break
                assert symmetric_eigenvalues(hodge_laplacian(x, k))[0] >= -1e-9


    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(graphs_on(7), st.data())
    def test_matches_sparse_coboundary_products(self, g, data):
        # the up term is the zero map at the top enumerated dimension
        x = build_flag_complex(g, max_dim=data.draw(st.integers(0, g.n - 1)))
        for k in range(x.max_dim + 1):
            if not x.skeleta[k]:
                break
            below = sparse.csr_array(coboundary_matrix(x, k - 1))
            if k < x.max_dim:
                above = sparse.csr_array(coboundary_matrix(x, k))
            else:
                above = sparse.csr_array((0, len(x.skeleta[k])), dtype=np.int64)
            expected = (below @ below.T + above.T @ above).toarray()
            got = hodge_laplacian(x, k)
            assert expected.dtype == np.int64 and got.dtype == np.float64
            assert np.array_equal(got, np.round(got))  # every entry integral
            assert np.array_equal(got, expected)

    def test_dense_laplacian_capped_before_allocation(self, monkeypatch):
        # the 6 x 6 vertex Laplacian needs 288 bytes, the coboundary below it 48
        x = build_flag_complex(cycle_graph(6), max_dim=0)
        monkeypatch.setattr(complexes, "DENSE_BYTES_CAP", 287)
        with pytest.raises(CapExceeded, match=r"shape \(6, 6\) needs 288 bytes"):
            hodge_laplacian(x, 0)


class TestMinEigenvalue:
    def test_turan_formula(self):
        for r, ell in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            g = turan_graph(r, ell)
            for k in range(r):
                assert min_hodge_eigenvalue(g, k) == pytest.approx(ell * (r - k - 1), abs=1e-8)

    def test_complete_graph_gap(self):
        for n in (3, 5):
            assert min_hodge_eigenvalue(complete_graph(n), 0) == pytest.approx(n, abs=1e-8)

    def test_four_cycle_degree_one(self):
        assert min_hodge_eigenvalue(cycle_graph(4), 1) == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_spectral_gap(self):
        for g in corpus():
            if g.n >= 2:
                assert min_hodge_eigenvalue(g, 0) == pytest.approx(spectral_gap(g), abs=1e-8)

    def test_missing_dimension_rejected(self):
        with pytest.raises(ValueError, match="no 2-simplices"):
            min_hodge_eigenvalue(cycle_graph(4), 2)


class TestBettiProfile:
    def test_each_coboundary_built_once(self, monkeypatch):
        built = []
        real = complexes._build_coboundary

        def spy(x, k):
            built.append(k)
            return real(x, k)

        monkeypatch.setattr(complexes, "_build_coboundary", spy)
        for seed in range(12):
            g = random_gnp(7 + seed % 4, 0.6, seed=seed)
            x = build_flag_complex(g, max_dim=g.n - 1 - seed % 3)
            built.clear()
            betti_profile(x)
            # hodge_laplacian(k) needs degrees k-1 and k (k only below max_dim)
            # for every nonempty degree k
            top = max(k for k in range(x.max_dim + 1) if x.skeleta[k])
            assert sorted(built) == list(range(-1, min(top, x.max_dim - 1) + 1))

    def test_complete_graph_contractible(self):
        for n in (2, 4, 5):
            profile = betti_profile(build_flag_complex(complete_graph(n), max_dim=n - 1))
            assert all(b == 0 for b in profile.betti)
            eta = profile.connectivity
            assert eta.infinite and eta.exact
            assert eta.value() == math.inf

    def test_four_cycle_is_circle(self):
        profile = betti_profile(build_flag_complex(cycle_graph(4), max_dim=3))
        assert profile.betti == (0, 1, 0, 0)
        assert profile.connectivity.value() == 2

    def test_balanced_multipartite_wedge(self):
        # flag complex of the balanced complete multipartite graph is a wedge
        # of (ell-1)^r spheres of dimension r-1
        for r, ell in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            g = turan_graph(r, ell)
            profile = betti_profile(build_flag_complex(g, max_dim=g.n - 1))
            expected = [0] * (g.n)
            expected[r - 1] = (ell - 1) ** r
            assert list(profile.betti) == expected[: len(profile.betti)]
            assert profile.connectivity.value() == r

    def test_reduced_euler_characteristic(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            profile = betti_profile(x)
            alternating = sum((-1) ** k * b for k, b in enumerate(profile.betti))
            assert alternating == reduced_euler_characteristic(x)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_graphs)
    def test_reduced_euler_characteristic_on_random_graphs(self, g):
        # sum_k (-1)^k b_k = -1 + sum_k (-1)^k f_k over the whole clique complex
        x = build_flag_complex(g, max_dim=g.n - 1)
        assert x.complete
        profile = betti_profile(x)
        alternating = sum((-1) ** k * b for k, b in enumerate(profile.betti))
        assert alternating == reduced_euler_characteristic(x)

    def test_truncated_triangle_reports_floor_only(self):
        # with the top dimension cut off, a positive Betti number there is
        # not certified; only a connectivity floor comes back
        x = build_flag_complex(complete_graph(3), max_dim=1)
        profile = betti_profile(x)
        assert not profile.complete
        eta = profile.connectivity
        assert not eta.exact and not eta.infinite
        assert eta.at_least(1) is True
        assert eta.at_least(5) is None
        with pytest.raises(ValueError):
            eta.value()

    def test_two_points(self):
        profile = betti_profile(build_flag_complex(Graph(2), max_dim=1))
        assert profile.betti == (1, 0)
        assert profile.connectivity.value() == 1

    def test_mins_are_smallest_laplacian_eigenvalues(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k, mu in enumerate(betti_profile(x).mins):
                if x.skeleta[k]:
                    assert mu == pytest.approx(min_hodge_eigenvalue(g, k), abs=1e-9)
                else:
                    assert mu is None


class TestConnectivityHelpers:
    def test_independence_connectivity_of_cycles(self):
        # complement-complex connectivity of cycles: floor((n+1)/3)
        for n in range(3, 13):
            eta = independence_connectivity(cycle_graph(n))
            assert eta.exact
            assert eta.value() == (n + 1) // 3

    def test_independence_of_complete_graph(self):
        eta = independence_connectivity(complete_graph(4))
        assert eta.value() == 1

    def test_flag_connectivity_of_edgeless(self):
        eta = betti_profile(build_flag_complex(Graph(3), max_dim=2)).connectivity
        assert eta.value() == 1  # three points: already disconnected

    # at most three doubled vertices keep each blow-up to 9 vertices, since
    # exact ranks on the independence complex of a sparse 12-vertex graph
    # take seconds
    @settings(max_examples=40, deadline=None)
    @given(
        graphs_on(6).flatmap(
            lambda g: st.tuples(st.just(g), st.sets(st.integers(0, g.n - 1), max_size=3))
        )
    )
    def test_blow_up_keeps_independence_connectivity(self, case):
        """Copies of a vertex share its neighbourhood, so the fold lemma
        (Engstrom 2009) removes them one by one without changing the
        homotopy type of I(G).  `scanned`, and the floor of an infinite
        result, grow with n, so only `infinite` and a finite floor compare."""
        g, doubled = case
        weights = [2 if v in doubled else 1 for v in range(g.n)]
        eta = independence_connectivity(g)
        blown = independence_connectivity(blow_up(g, weights))
        assert blown.infinite == eta.infinite
        if not eta.infinite:
            assert blown.floor == eta.floor


class TestEigenvalueRecursion:
    def test_turan_equality(self):
        for r, ell in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            g = turan_graph(r, ell)
            records = verify_eigenvalue_recursion(full_profile(g), g.n, instance="t")
            assert len(records) == r - 1
            for rec in records:
                assert rec.passed
                assert abs(rec.slack) <= 1e-7

    def test_complete_graph_holds(self):
        for rec in verify_eigenvalue_recursion(full_profile(complete_graph(5)), 5, instance="k5"):
            assert rec.passed

    def test_corpus_zero_violations(self):
        for i, g in enumerate(corpus()):
            for rec in verify_eigenvalue_recursion(full_profile(g), g.n, instance=f"g{i}"):
                assert rec.passed, rec

    def test_truncated_top_degree_skipped(self):
        # the degree-1 Laplacian of K_8's 1-skeleton misses its up term and
        # would fail the recursion; only genuine degrees are checked
        g = complete_graph(8)
        truncated = betti_profile(build_flag_complex(g, max_dim=1))
        assert verify_eigenvalue_recursion(truncated, g.n, instance="k8") == []
        two = betti_profile(build_flag_complex(g, max_dim=2))
        assert [rec.k for rec in verify_eigenvalue_recursion(two, g.n, instance="k8")] == [1]


class TestVanishingThreshold:
    def test_complete_graph_all_vanish(self):
        g = complete_graph(5)
        records = verify_vanishing_threshold(full_profile(g), spectral_gap(g), g.n, instance="k5")
        assert all(rec.passed for rec in records)
        assert all("hypothesis" not in rec.detail for rec in records if rec.k == 0)

    def test_turan_sharpness(self):
        # gap equals the degree r-1 threshold exactly, so the hypothesis is
        # vacuous there even though that Betti number is positive
        r, ell = 3, 2
        g = turan_graph(r, ell)
        records = verify_vanishing_threshold(full_profile(g), spectral_gap(g), g.n, instance="t")
        at_sharp = [rec for rec in records if rec.k == r - 1]
        assert at_sharp[0].detail == "hypothesis not met"
        assert abs(at_sharp[0].slack) <= 1e-9
        profile = betti_profile(build_flag_complex(turan_graph(r, ell), max_dim=5))
        assert profile.betti[r - 1] > 0

    def test_corpus_zero_violations(self):
        for i, g in enumerate(corpus()):
            for rec in verify_vanishing_threshold(full_profile(g), spectral_gap(g), g.n, instance=f"g{i}"):
                assert rec.passed, rec

    def test_truncated_top_degree_skipped(self):
        # K_8 cut at dimension 1 has 21 one-cycles that the triangles would fill
        g = complete_graph(8)
        truncated = betti_profile(build_flag_complex(g, max_dim=1))
        assert truncated.betti[1] == 21
        records = verify_vanishing_threshold(truncated, spectral_gap(g), g.n, instance="k8")
        assert [rec.k for rec in records] == [0]
        assert all(rec.passed for rec in records)


class TestFacetDegreeBound:
    def test_excess_bounded_by_vertex_count(self):
        for g in corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for rec in verify_facet_degree_bound(x, instance="c"):
                assert rec.passed

    def test_triangle_value(self):
        # in the full triangle: facets of [0,1,2] are the three edges, each of
        # degree 1; the triangle itself has degree 0; excess = 3 <= n = 3
        x = build_flag_complex(complete_graph(3), max_dim=2)
        assert facet_degree_excess(x, 2) == 3
