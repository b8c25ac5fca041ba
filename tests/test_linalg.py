"""Eigensolver and rank routines.

Eigenvalues are checked against closed-form spectra, since numpy's
eigvalsh is the implementation under test; ranks against numpy's SVD rank
and sympy's exact rational rank.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flagspectra import (
    Graph,
    complete_graph,
    cycle_graph,
    integer_rank,
    laplacian_matrix,
    symmetric_eigenvalues,
    turan_graph,
)
from flagspectra.complexes import coboundary_matrix, build_flag_complex


# graphs on 1-7 vertices from arbitrary vertex pairs (loops dropped)
graphs_up_to_7 = st.integers(1, 7).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda pairs: Graph(n, [(u, v) for u, v in pairs if u != v])
    )
)
small_int_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(-3, 3))
)
# int64 entries up to 2^40 in magnitude, mixed with small ones so that
# ranks below full occur; Bareiss products of these overflow int64
large_int_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: arrays(
        np.int64, shape, elements=st.one_of(st.integers(-1, 1), st.integers(-(2**40), 2**40))
    )
)


def sympy_rank(a):
    return sympy.Matrix(*a.shape, a.ravel().tolist()).rank()


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a + a.T


class TestEigenvalues:
    def test_identity(self):
        assert symmetric_eigenvalues(np.eye(3)).tolist() == [1.0, 1.0, 1.0]

    def test_scaled_identity(self):
        assert symmetric_eigenvalues(np.array([[2.0, 0.0], [0.0, 2.0]])).tolist() == [2.0, 2.0]

    def test_complete_graph_laplacian(self):
        # oracle: K_n Laplacian spectrum is 0 together with n (multiplicity n-1)
        got = symmetric_eigenvalues(laplacian_matrix(complete_graph(4)))
        assert np.allclose(got, [0.0, 4.0, 4.0, 4.0], atol=1e-8)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            symmetric_eigenvalues(np.zeros((0, 0)))

    def test_one_by_one(self):
        assert symmetric_eigenvalues(np.array([[-3.5]])).tolist() == [-3.5]

    def test_zero_matrix(self):
        assert symmetric_eigenvalues(np.zeros((4, 4))).tolist() == [0.0] * 4

    def test_closed_form_laplacian_spectra(self):
        cases = []
        for n in range(3, 15):
            # C_n: 2 - 2cos(2*pi*j/n); K_n: 0 and n with multiplicity n-1
            cases.append((cycle_graph(n), 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)))
            cases.append((complete_graph(n), [0.0] + [float(n)] * (n - 1)))
        for r in range(1, 5):
            for ell in range(1, 4):
                # T(r, ell), n = r*ell: 0, n - ell with multiplicity n - r, n with multiplicity r - 1
                n = r * ell
                cases.append((turan_graph(r, ell), [0.0] + [float(n - ell)] * (n - r) + [float(n)] * (r - 1)))
        for g, spectrum in cases:
            a = laplacian_matrix(g)
            got = symmetric_eigenvalues(a)
            want = np.sort(np.asarray(spectrum, dtype=np.float64))
            scale = 1e-8 * (1.0 + np.abs(a).max())
            assert np.abs(got - want).max() <= scale

    def test_clustered_eigenvalues(self):
        # a nearly degenerate spectrum in a random orthogonal basis is recovered
        d = np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 5.0])
        q, _ = np.linalg.qr(random_symmetric(4, 11))
        a = q @ np.diag(d) @ q.T
        a = (a + a.T) / 2.0
        got = symmetric_eigenvalues(a)
        assert np.abs(got - d).max() <= 1e-8


class TestIntegerRank:
    def test_zero_matrix(self):
        assert integer_rank(np.zeros((3, 5), dtype=np.int64)) == 0

    def test_vertex_coboundary_of_edge(self):
        x = build_flag_complex(Graph(2, [(0, 1)]), max_dim=1)
        assert integer_rank(coboundary_matrix(x, 0)) == 1

    def test_tree_incidence_rank(self):
        # oracle: rank of the vertex coboundary is n - number of components
        paths = [Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 8)]
        for g in paths:
            x = build_flag_complex(g, max_dim=1)
            assert integer_rank(coboundary_matrix(x, 0)) == g.n - 1
        forest = Graph(6, [(0, 1), (2, 3), (4, 5)])
        x = build_flag_complex(forest, max_dim=1)
        assert integer_rank(coboundary_matrix(x, 0)) == 6 - 3

    def test_matches_numpy_on_random_int_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.integers(-3, 4, size=(rng.integers(1, 9), rng.integers(1, 9)))
            assert integer_rank(a) == np.linalg.matrix_rank(a)

    def test_known_rank_products(self):
        rng = np.random.default_rng(17)
        for r in range(1, 5):
            left = rng.integers(-2, 3, size=(7, r))
            right = rng.integers(-2, 3, size=(r, 6))
            prod = left @ right
            assert integer_rank(prod) == np.linalg.matrix_rank(prod)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            integer_rank(np.zeros((2, 2)))


class TestIntegerRankAgainstSympy:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(graphs_up_to_7)
    def test_coboundaries(self, g):
        x = build_flag_complex(g, max_dim=g.n - 1)
        for k in range(-1, x.max_dim):
            d = coboundary_matrix(x, k)
            assert integer_rank(d) == sympy_rank(d)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(small_int_matrices)
    def test_random_int_matrices(self, a):
        assert integer_rank(a) == sympy_rank(a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(large_int_matrices)
    def test_large_int64_entries(self, a):
        assert integer_rank(a) == sympy_rank(a)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_large_entry_low_rank_products(self, r, seed):
        # entries up to 2^39 * r, rank at most r
        rng = np.random.default_rng(seed)
        left = rng.integers(-(2**19), 2**19, size=(6, r))
        right = rng.integers(-(2**19), 2**19, size=(r, 5))
        prod = left @ right
        assert integer_rank(prod) == sympy_rank(prod)
