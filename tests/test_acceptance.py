"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The shared 200-graph random corpus (sizes 4..10, densities 0.3/0.5/0.7,
master seed 42) is built once per session; most criteria reuse its complexes,
Betti profiles, and minimal Laplacian eigenvalues.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flagspectra import (
    CochainIdentityChecker,
    blow_up,
    betti_profile,
    build_flag_complex,
    coboundary_matrix,
    complement,
    cycle_graph,
    cycle_representation,
    edge_incidence_representation,
    fractional_strong_domination,
    fractional_width,
    incidence_representation,
    independence_connectivity,
    lambda_max,
    laplacian_matrix,
    representation_value,
    spectral_gap,
    sweep_family,
    symmetric_eigenvalues,
    turan_graph,
    verify_fractional_width_condition,
    verify_gram_row_bound,
    verify_spectral_connectivity_bound,
)
from flagspectra.corpus import family_corpus, gnp_corpus
from flagspectra.graphs import SplitMix64
from flagspectra.spectral import facet_degree_excess, hodge_laplacian

TURAN_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


@pytest.fixture(scope="module")
def corpus_data():
    data = []
    for label, g in gnp_corpus(count=200, seed=42):
        x = build_flag_complex(g, max_dim=g.n - 1)
        profile = betti_profile(x)  # raises on any kernel/rank disagreement
        mus = {}
        for k in range(x.max_dim + 1):
            if not x.skeleta[k]:
                break
            mus[k] = float(symmetric_eigenvalues(hodge_laplacian(x, k))[0])
        data.append((label, g, x, profile, mus))
    return data


def test_criterion_1_turan_exactness():
    with criterion(1, "balanced multipartite family: eigenvalues, recursion slack, Betti"):
        start = time.monotonic()
        for r, ell in TURAN_SHAPES:
            g = turan_graph(r, ell)
            x = build_flag_complex(g, max_dim=g.n - 1)
            mus = {}
            for k in range(r):
                mus[k] = float(symmetric_eigenvalues(hodge_laplacian(x, k))[0])
                assert abs(mus[k] - ell * (r - k - 1)) <= 1e-8, (r, ell, k)
            for k in range(1, r):
                slack = k * mus[k] - ((k + 1) * mus[k - 1] - g.n)
                assert abs(slack) <= 1e-7, (r, ell, k, slack)
            profile = betti_profile(x)
            assert profile.betti[r - 1] == (ell - 1) ** r, (r, ell)
            assert all(b == 0 for i, b in enumerate(profile.betti) if i != r - 1)
            assert abs(spectral_gap(g) - ell * (r - 1)) <= 1e-8
        assert time.monotonic() - start < 60.0


def test_criterion_2_eigenvalue_recursion_corpus(corpus_data):
    with criterion(2, "eigenvalue recursion: zero violations over 200 random graphs"):
        start = time.monotonic()
        checked = 0
        for label, g, x, profile, mus in corpus_data:
            for k in sorted(mus):
                if k == 0:
                    continue
                slack = k * mus[k] - ((k + 1) * mus[k - 1] - g.n)
                assert slack >= -1e-7, (label, k, slack)
                checked += 1
        assert checked > 0
        assert time.monotonic() - start < 300.0


def test_criterion_3_vanishing_threshold_corpus(corpus_data):
    with criterion(3, "gap threshold forces vanishing Betti: zero violations"):
        for label, g, x, profile, mus in corpus_data:
            gap = mus[0]  # degree-0 minimum equals the spectral gap
            for k in range(x.max_dim + 1):
                if gap > k * g.n / (k + 1) + 1e-9:
                    assert profile.betti[k] == 0, (label, k)


def test_criterion_4_hodge_consistency(corpus_data):
    with criterion(4, "kernel-count Betti equals integer rank-nullity Betti everywhere"):
        # betti_profile raises on disagreement, so building the fixture
        # already proved consistency; spot-recompute the rank route here
        for label, g, x, profile, mus in corpus_data[:20]:
            rank_below = 1
            for k in range(x.max_dim + 1):
                count = len(x.skeleta[k])
                if count == 0:
                    break
                d_above = coboundary_matrix(x, k) if k < x.max_dim else np.zeros((0, count), dtype=np.int64)
                from flagspectra import integer_rank

                rank_above = integer_rank(d_above) if d_above.size else 0
                assert profile.betti[k] == count - rank_above - rank_below, (label, k)
                rank_below = rank_above
        assert len(corpus_data) == 200


def test_criterion_5_cochain_identity_suite(corpus_data):
    with criterion(5, "cochain identities: 50 random cochains on each of 30 complexes"):
        complexes = [(label, x) for label, g, x, profile, mus in corpus_data if g.n <= 8][:30]
        assert len(complexes) == 30
        rng = SplitMix64(271828)
        for label, x in complexes:
            valid_ks = [k for k in range(1, x.max_dim + 1) if x.skeleta[k]]
            if not valid_ks:
                continue
            checkers = {k: CochainIdentityChecker(x, k) for k in valid_ks}
            for j in range(50):
                k = valid_ks[j % len(valid_ks)]
                phi = np.array([rng.next_gauss() for _ in x.skeleta[k]])
                for rec in checkers[k].residuals(phi, instance=label):
                    assert rec.passed, (label, k, rec.check, rec.slack)
            # integer facet-degree bound for every simplex of every dimension
            for k in valid_ks:
                assert facet_degree_excess(x, k) <= x.graph.n, (label, k)


def test_criterion_6_cycle_suite():
    with criterion(6, "cycle family: connectivity, fractional domination, representation values"):
        for n in range(3, 13):
            g = cycle_graph(n)
            eta = independence_connectivity(g)
            assert eta.exact and eta.value() == (n + 1) // 3, n
            assert abs(fractional_strong_domination(g).value - n / 4.0) <= 1e-6, n
        for k in range(1, 5):
            rep = cycle_representation(k)
            value = representation_value(rep).value
            assert abs(value - k) <= 1e-6, k
            # tightness: connectivity of the independence complex equals the bound
            eta = independence_connectivity(cycle_graph(3 * k))
            assert eta.value() == k


def test_criterion_7_incidence_identities(corpus_data):
    with criterion(7, "incidence representation values equal the matching LP optima"):
        graphs = [(label, g) for label, g, *_ in corpus_data if g.num_edges][:50]
        assert len(graphs) == 50
        for label, g in graphs:
            lhs = representation_value(edge_incidence_representation(g)).value
            rhs = fractional_strong_domination(g).value
            if math.isinf(lhs) or math.isinf(rhs):
                assert math.isinf(lhs) and math.isinf(rhs), label
            else:
                assert abs(lhs - rhs) <= 1e-6, label
        hypergraphs = []
        for label, fam in family_corpus(count=20, seed=9991):
            hypergraphs.append((label, fam.union(range(fam.size))))
        assert len(hypergraphs) == 20
        for label, h in hypergraphs:
            lhs = representation_value(incidence_representation(h)).value
            rhs = fractional_width(h)
            assert abs(lhs - rhs) <= 1e-6, label


def test_criterion_8_spectral_bounds(corpus_data):
    with criterion(8, "Gram row bound and connectivity spectral bound: zero violations"):
        for label, g, x, profile, mus in corpus_data:
            lam = lambda_max(g)
            eta = independence_connectivity(g)
            rec = verify_spectral_connectivity_bound(g.n, lam, eta, instance=label, tol=1e-7)
            assert rec.passed is not False, (label, rec.detail)
            if g.num_edges:
                rec = verify_gram_row_bound(lam, edge_incidence_representation(g), instance=label, tol=1e-7)
                assert rec.passed, label
        for k in range(1, 5):
            lam = lambda_max(cycle_graph(3 * k))
            rec = verify_gram_row_bound(lam, cycle_representation(k), instance=f"cycle({3 * k})", tol=1e-7)
            assert rec.passed


def test_criterion_9_fractional_width_condition():
    with criterion(9, "fractional-width condition forces representatives on 100 families"):
        start = time.monotonic()
        asserted = 0
        for label, fam in family_corpus(count=100, seed=42):
            records = verify_fractional_width_condition(sweep_family(fam), instance=label, tol=1e-7)
            final = records[-1]
            assert final.passed is not False, (label, final.detail)
            if final.passed is True and "representatives" in final.detail:
                asserted += 1
        assert asserted > 0  # the sweep exercised the assertion, not only vacuous cases
        assert time.monotonic() - start < 300.0


def test_criterion_10_blowup_invariance(corpus_data):
    with criterion(10, "connectivity of the independence complex survives blow-ups"):
        small = [(label, g) for label, g, *_ in corpus_data if g.n <= 6][:10]
        assert len(small) == 10
        rng = SplitMix64(777)
        for label, g in small:
            weights = [1 + rng.next_below(2) for _ in range(g.n)]
            eta = independence_connectivity(g)
            eta_blow = independence_connectivity(blow_up(g, weights))
            assert eta.infinite == eta_blow.infinite, label
            if not eta.infinite:
                assert eta.value() == eta_blow.value(), (label, weights)


def test_criterion_11_structural_exactness(corpus_data):
    with criterion(11, "integer chain-complex identities and the complement spectrum"):
        for label, g, x, profile, mus in corpus_data:
            below = coboundary_matrix(x, -1)
            for k in range(0, x.max_dim):
                here = coboundary_matrix(x, k)
                prod = here @ below
                assert prod.dtype == np.int64 and not prod.any(), (label, k)
                below = here
                if not x.skeleta[k + 1]:
                    break
            ones = np.ones((g.n, g.n), dtype=np.int64)
            assert np.array_equal(hodge_laplacian(x, 0), ones + laplacian_matrix(g)), label
            assert abs(lambda_max(g) - (g.n - spectral_gap(complement(g)))) <= 1e-8, label


def test_criterion_12_cli_determinism(tmp_path):
    with criterion(12, "identical CLI invocations produce byte-identical reports"):
        for args in (
            ["spectra", "--turan", "3", "2"],
            ["corpus", "--graphs", "12", "--nmax", "8", "--families", "6", "--seed", "3"],
            ["domination", "--cycle", "6", "--reps", "edge-incidence,cycle"],
        ):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "flagspectra", *args],
                    capture_output=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr.decode()
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], args
