"""The six cochain identities relating coboundary norms, vertex restrictions,
and Laplacian quadratic forms.

Hand oracle (triangle, degree 1, phi = indicator of edge (0,1)):
  d_1 phi evaluated on (0,1,2) is phi(1,2) - phi(0,2) + phi(0,1) = 1, so
  ||d_1 phi||^2 = 1; the degree term is deg((0,1)) * 1 = 1; every link pair
  product vanishes because phi is zero off (0,1).  The checker must recover
  exactly these numbers.
"""

import numpy as np
import pytest

from flagspectra import (
    CochainIdentityChecker,
    SplitMix64,
    build_flag_complex,
    complete_graph,
    cycle_graph,
    random_gnp,
    turan_graph,
)
from flagspectra import complexes


def gauss_cochain(rng, x, k):
    return np.array([rng.next_gauss() for _ in x.skeleta[k]])


def identity_corpus():
    graphs = [complete_graph(4), complete_graph(5), cycle_graph(6), turan_graph(3, 2)]
    graphs += [random_gnp(5 + i % 4, (0.4, 0.6)[i % 2], seed=5000 + i) for i in range(8)]
    return graphs


class TestHandValues:
    def test_triangle_edge_indicator(self):
        x = build_flag_complex(complete_graph(3), max_dim=2)
        phi = np.zeros(3)
        phi[x.index[1][(0, 1)]] = 1.0
        checker = CochainIdentityChecker(x, 1)
        by_name = {rec.check: rec for rec in checker.residuals(phi, instance="triangle")}

        rec = by_name["coboundary_norm"]
        assert rec.lhs == pytest.approx(1.0, abs=1e-12)
        assert rec.rhs == pytest.approx(1.0, abs=1e-12)
        assert rec.passed

        # sum_u ||phi_u||^2 = 2 ||phi||^2 for k = 1
        rec = by_name["restriction_double_count"]
        assert rec.lhs == pytest.approx(2.0, abs=1e-12)
        assert rec.passed

    def test_zero_cochain_zero_residuals(self):
        x = build_flag_complex(turan_graph(3, 2), max_dim=5)
        for k in (1, 2):
            for rec in CochainIdentityChecker(x, k).residuals(np.zeros(len(x.skeleta[k]))):
                assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.slack == 0.0
                assert rec.passed


class TestRandomCochains:
    def test_all_identities_on_corpus(self):
        rng = SplitMix64(314)
        for g in identity_corpus():
            x = build_flag_complex(g, max_dim=g.n - 1)
            for k in range(1, x.max_dim + 1):
                if not x.skeleta[k]:
                    break
                checker = CochainIdentityChecker(x, k)
                for _ in range(5):
                    for rec in checker.residuals(gauss_cochain(rng, x, k)):
                        assert rec.passed, rec

    def test_reports_six_named_checks(self):
        x = build_flag_complex(complete_graph(4), max_dim=3)
        recs = CochainIdentityChecker(x, 1).residuals(np.ones(len(x.skeleta[1])))
        assert [rec.check for rec in recs] == [
            "coboundary_norm",
            "restricted_coboundary_norm",
            "norm_exchange",
            "restricted_adjoint_norm",
            "laplacian_decomposition",
            "restriction_double_count",
        ]

    def test_flipped_restriction_sign_fails(self, monkeypatch):
        # negate one entry of the gather: the identities that read the
        # restrictions through a coboundary or the Laplacian must notice
        gather = CochainIdentityChecker._restrict

        def flipped(self, phi):
            out = gather(self, phi)
            u, face = np.argwhere(out)[0]
            out[u, face] = -out[u, face]
            return out

        monkeypatch.setattr(CochainIdentityChecker, "_restrict", flipped)
        x = build_flag_complex(complete_graph(5), max_dim=4)
        for k in (1, 2, 3):
            recs = CochainIdentityChecker(x, k).residuals(gauss_cochain(SplitMix64(7), x, k))
            assert not all(rec.passed for rec in recs), k


class TestDenseCap:
    def test_k5_degree_two_under_800_bytes(self, monkeypatch):
        # every array the degree-2 checker of K5 needs is at most 800 bytes:
        # the 10 x 10 coboundary and Laplacians, and the 5 x 10 gather (400)
        monkeypatch.setattr(complexes, "DENSE_BYTES_CAP", 800)
        x = build_flag_complex(complete_graph(5), max_dim=4)
        recs = CochainIdentityChecker(x, 2).residuals(gauss_cochain(SplitMix64(11), x, 2))
        assert len(recs) == 6 and all(rec.passed for rec in recs)


class TestValidation:
    def test_degree_mismatch_rejected(self):
        # a degree-1 cochain (6 edges) handed to the degree-2 checker (4 triangles)
        x = build_flag_complex(complete_graph(4), max_dim=3)
        with pytest.raises(ValueError, match="degree"):
            CochainIdentityChecker(x, 2).residuals(np.ones(len(x.skeleta[1])))

    def test_wrong_length_rejected(self):
        x = build_flag_complex(complete_graph(4), max_dim=3)
        with pytest.raises(ValueError):
            CochainIdentityChecker(x, 1).residuals(np.ones(2))

    def test_degree_zero_rejected(self):
        x = build_flag_complex(complete_graph(4), max_dim=3)
        with pytest.raises(ValueError):
            CochainIdentityChecker(x, 0)

    def test_requires_room_above(self):
        # truncated one below the top: the up-coboundary would be wrong
        x = build_flag_complex(complete_graph(5), max_dim=2)
        with pytest.raises(ValueError, match="above"):
            CochainIdentityChecker(x, 2)
        # complete enumeration is fine even at the top dimension
        x_full = build_flag_complex(complete_graph(5), max_dim=4)
        CochainIdentityChecker(x_full, 4)
