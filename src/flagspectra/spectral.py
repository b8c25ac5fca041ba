"""Higher Laplacians of clique complexes, Betti profiles, and their verifiers.

The degree-k Laplacian is assembled from the coboundary matrices one degree
below and above (with the all-ones augmentation below degree 0), in exact
integer arithmetic.  Reduced Betti numbers are computed twice, by counting
near-zero Laplacian eigenvalues and by exact integer rank-nullity, and the
two must agree; a mismatch raises instead of silently trusting either side.
That pass, `betti_profile`, is the one analysis of a complex: the recursion
and vanishing verifiers are pure functions of its result.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .complexes import (
    Cochain,
    FlagComplex,
    build_flag_complex,
    coboundary_matrix,
    independence_complex,
    restriction_matrices,
    simplex_degree,
    DEFAULT_SIMPLEX_CAP,
)
from .graphs import Graph
from .linalg import integer_rank, symmetric_eigenvalues
from .reports import CheckRecord

KERNEL_TOL_FACTOR = 1e-7
RECURSION_TOL = 1e-7
THRESHOLD_MARGIN = 1e-9
IDENTITY_TOL = 1e-9


def _upper_coboundary(x: FlagComplex, k: int) -> np.ndarray:
    """Coboundary leaving degree k; the zero map when the skeleton tops out."""
    if k <= x.max_dim - 1:
        return coboundary_matrix(x, k)
    return np.zeros((0, len(x.skeleta[k])), dtype=np.int64)


def hodge_laplacian(x: FlagComplex, k: int) -> np.ndarray:
    """Degree-k Laplacian (down-up plus up-down) as an exact int64 matrix.

    At degree 0 the down term is the all-ones matrix, so the result equals
    J + L_G entrywise.  At the top enumerated dimension the up term is the
    zero map; that is the true operator exactly when the complex is complete.
    """
    if k < 0 or k > x.max_dim:
        raise ValueError(f"degree {k} out of range")
    if not x.skeleta[k]:
        raise ValueError(f"no {k}-simplices")
    d_below = coboundary_matrix(x, k - 1)
    d_above = _upper_coboundary(x, k)
    return d_below @ d_below.T + d_above.T @ d_above


def min_hodge_eigenvalue(g: Graph, k: int, simplex_cap: int = DEFAULT_SIMPLEX_CAP) -> float:
    """Smallest eigenvalue of the degree-k Laplacian of the clique complex of g.

    Builds the complex one dimension above k so the up-coboundary is genuine.
    Degree 0 recovers the spectral gap of the graph.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k > g.n - 1:
        raise ValueError(f"no {k}-simplices")
    x = build_flag_complex(g, max_dim=min(k + 1, g.n - 1), simplex_cap=simplex_cap)
    if not x.skeleta[k]:
        raise ValueError(f"no {k}-simplices")
    return float(symmetric_eigenvalues(hodge_laplacian(x, k))[0])


class Connectivity(NamedTuple):
    """Certified information about the least dimension with nonvanishing
    reduced cohomology, plus one.

    `floor` is always a certified lower bound.  When `exact` is set the value
    equals `floor`; when `infinite` is set all reduced cohomology vanishes
    (the complex was fully enumerated and nothing survived).  A non-exact,
    non-infinite result means the enumeration was truncated at `scanned`.
    """

    floor: int
    exact: bool
    infinite: bool
    scanned: int

    def value(self) -> float:
        if self.infinite:
            return math.inf
        if not self.exact:
            raise ValueError("connectivity not certified exactly (truncated enumeration)")
        return float(self.floor)

    def at_least(self, bound: float) -> bool | None:
        """True/False when decidable, None when the truncation hides the answer."""
        if self.infinite:
            return True
        if self.exact:
            return self.floor >= bound
        if self.floor >= bound:
            return True
        return None

    def describe(self) -> str:
        if self.infinite:
            return "inf"
        if self.exact:
            return str(self.floor)
        return f">= {self.floor} (truncated at dimension {self.scanned})"


class BettiProfile(NamedTuple):
    """Reduced Betti numbers b[0..max_dim] of an enumerated complex, with the
    smallest Laplacian eigenvalue per degree (None where the skeleton is empty)."""

    betti: tuple[int, ...]
    mins: tuple[float | None, ...]
    max_dim: int
    complete: bool

    def exact_at(self, k: int) -> bool:
        """Whether degree k sees the whole complex: below the enumeration cap,
        or anywhere once nothing was cut off.  At a truncated top degree the
        up-coboundary is missing, so the Laplacian and Betti number there
        belong to the skeleton, not to the complex."""
        return k < self.max_dim or self.complete

    @property
    def connectivity(self) -> Connectivity:
        for k, b in enumerate(self.betti):
            if b > 0:
                return Connectivity(k + 1, exact=self.exact_at(k), infinite=False, scanned=self.max_dim)
        if self.complete:
            return Connectivity(self.max_dim + 2, exact=True, infinite=True, scanned=self.max_dim)
        return Connectivity(self.max_dim + 2, exact=False, infinite=False, scanned=self.max_dim)


def betti_profile(x: FlagComplex) -> BettiProfile:
    """Reduced Betti numbers, computed two independent ways, and the smallest
    Laplacian eigenvalue of every nonempty degree.

    Route one counts Laplacian eigenvalues below 1e-7 * (1 + operator
    infinity-norm); route two is |X(k)| - rank d_k - rank d_(k-1) with exact
    integer ranks.  Disagreement means the kernel threshold failed and is an
    error, never a silent pick.
    """
    betti = []
    mins: list[float | None] = []
    rank_below = 1  # rank of the augmentation column (n >= 1)
    for k in range(x.max_dim + 1):
        count = len(x.skeleta[k])
        if count == 0:
            betti.append(0)
            mins.append(None)
            rank_below = 0
            continue
        d_above = _upper_coboundary(x, k)
        rank_above = integer_rank(d_above) if d_above.size else 0
        from_rank = count - rank_above - rank_below

        laplacian = hodge_laplacian(x, k)
        eigenvalues = symmetric_eigenvalues(laplacian)
        scale = float(np.abs(laplacian).sum(axis=1).max())
        tol = KERNEL_TOL_FACTOR * (1.0 + scale)
        from_kernel = int((np.abs(eigenvalues) <= tol).sum())

        if from_kernel != from_rank:
            raise RuntimeError(
                f"numerical rank mismatch in dimension {k}: "
                f"kernel count {from_kernel} vs rank-nullity {from_rank}"
            )
        betti.append(from_kernel)
        mins.append(float(eigenvalues[0]))
        rank_below = rank_above
    return BettiProfile(tuple(betti), tuple(mins), x.max_dim, x.complete)


def flag_connectivity(
    g: Graph, simplex_cap: int = DEFAULT_SIMPLEX_CAP, max_dim: int | None = None
) -> Connectivity:
    """Connectivity of the clique complex of g, scanning all dimensions by default."""
    if max_dim is None:
        max_dim = g.n - 1
    return betti_profile(build_flag_complex(g, max_dim=max_dim, simplex_cap=simplex_cap)).connectivity


def independence_connectivity(
    g: Graph, simplex_cap: int = DEFAULT_SIMPLEX_CAP, max_dim: int | None = None
) -> Connectivity:
    """Connectivity of the independent-set complex of g."""
    if max_dim is None:
        max_dim = g.n - 1
    return betti_profile(independence_complex(g, max_dim=max_dim, simplex_cap=simplex_cap)).connectivity


# -- eigenvalue recursion and vanishing threshold ---------------------------


def verify_eigenvalue_recursion(
    profile: BettiProfile, n: int, instance: str = "", tol: float = RECURSION_TOL
) -> list[CheckRecord]:
    """Check k*mu_k >= (k+1)*mu_(k-1) - n over every consecutive pair of
    nonempty degrees of a clique complex on n vertices.

    The mu_k are the profile's smallest Laplacian eigenvalues; degrees at a
    truncated top (see BettiProfile.exact_at) are skipped.
    """
    mus = profile.mins
    records = []
    for k in range(1, len(mus)):
        if mus[k] is None or not profile.exact_at(k):
            continue
        lhs = k * mus[k]
        rhs = (k + 1) * mus[k - 1] - n
        slack = lhs - rhs
        records.append(
            CheckRecord(
                check="eigenvalue_recursion",
                claim="k*mu_k >= (k+1)*mu_{k-1} - n",
                instance=instance,
                k=k,
                lhs=lhs,
                rhs=rhs,
                slack=slack,
                passed=slack >= -tol,
            )
        )
    return records


def verify_vanishing_threshold(
    profile: BettiProfile,
    gap: float,
    n: int,
    instance: str = "",
    margin_tol: float = THRESHOLD_MARGIN,
) -> list[CheckRecord]:
    """When the spectral gap of the n-vertex graph clears k*n/(k+1), the
    degree-k reduced Betti number of its clique complex must vanish.

    Reads the Betti numbers from the profile; degrees at a truncated top
    (see BettiProfile.exact_at) are skipped.
    """
    if n < 2:
        raise ValueError("needs at least 2 vertices")
    records = []
    for k, betti in enumerate(profile.betti):
        if not profile.exact_at(k):
            continue
        threshold = k * n / (k + 1)
        margin = gap - threshold
        if margin > margin_tol:
            ok = betti == 0
            detail = "" if ok else f"betti[{k}] = {betti}"
        else:
            ok = True
            detail = "hypothesis not met"
        records.append(
            CheckRecord(
                check="vanishing_threshold",
                claim="lambda_2 > k*n/(k+1) implies reduced betti_k = 0",
                instance=instance,
                k=k,
                lhs=gap,
                rhs=threshold,
                slack=margin,
                passed=ok,
                detail=detail,
            )
        )
    return records


# -- cochain identities ------------------------------------------------------


def _facet_degree_sums(x: FlagComplex, k: int) -> list[int]:
    """For each k-simplex in skeleton order, the sum of its facets' degrees."""
    deg_km1 = {s: simplex_degree(x, s) for s in x.skeleta[k - 1]}
    return [sum(deg_km1[s[:i] + s[i + 1 :]] for i in range(len(s))) for s in x.skeleta[k]]


class CochainIdentityChecker:
    """Precomputed structure for the degree-k cochain identities of one complex.

    Setting this up once makes checking many random cochains on the same
    complex cheap: link-pair index arrays, per-vertex restriction matrices,
    degree vectors, and both Laplacians are all reused across evaluations.
    """

    def __init__(self, x: FlagComplex, k: int):
        if k < 1:
            raise ValueError("identities need degree k >= 1")
        if k > x.max_dim or not x.skeleta[k]:
            raise ValueError(f"no {k}-simplices")
        if k + 1 > x.max_dim and not x.complete:
            raise ValueError("complex must be enumerated one dimension above k")
        self.x = x
        self.k = k
        n = x.graph.n

        self.d_k = _upper_coboundary(x, k)
        self.d_km1 = coboundary_matrix(x, k - 1)
        self.d_km2 = coboundary_matrix(x, k - 2)
        self.delta_k = hodge_laplacian(x, k).astype(np.float64)
        self.delta_km1 = hodge_laplacian(x, k - 1).astype(np.float64)

        self.deg_k = np.array([simplex_degree(x, s) for s in x.skeleta[k]], dtype=np.float64)
        self.facet_deg_sum = np.array(_facet_degree_sums(x, k), dtype=np.float64)
        self.restrictions = [m.astype(np.float64) for m in restriction_matrices(x, k)]

        # Link pairs: for each (k-1)-simplex eta and each adjacent pair v < w
        # of its link, record the indices and signs of (v eta) and (w eta).
        iv, iw, signs = [], [], []
        upper = x.index[k]
        for eta in x.skeleta[k - 1]:
            mask = x.common_neighbors_mask(eta)
            verts = []
            m = mask
            while m:
                low = m & -m
                verts.append(low.bit_length() - 1)
                m ^= low
            for a in range(len(verts)):
                v = verts[a]
                v_key = tuple(sorted(eta + (v,)))
                v_idx = upper.get(v_key)
                if v_idx is None:
                    continue
                sv = -1 if sum(1 for t in eta if t < v) & 1 else 1
                for b in range(a + 1, len(verts)):
                    w = verts[b]
                    if not x.graph.has_edge(v, w):
                        continue
                    w_idx = upper.get(tuple(sorted(eta + (w,))))
                    if w_idx is None:
                        continue
                    sw = -1 if sum(1 for t in eta if t < w) & 1 else 1
                    iv.append(v_idx)
                    iw.append(w_idx)
                    signs.append(sv * sw)
        self._pair_iv = np.array(iv, dtype=np.intp)
        self._pair_iw = np.array(iw, dtype=np.intp)
        self._pair_sign = np.array(signs, dtype=np.float64)

    def _link_pair_sum(self, phi: np.ndarray) -> float:
        if self._pair_iv.size == 0:
            return 0.0
        return float((self._pair_sign * phi[self._pair_iv] * phi[self._pair_iw]).sum())

    def residuals(self, phi: np.ndarray, instance: str = "", tol: float = IDENTITY_TOL) -> list[CheckRecord]:
        """Evaluate both sides of each identity for one cochain."""
        k = self.k
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (len(self.x.skeleta[k]),):
            raise ValueError("cochain length does not match degree-k skeleton")

        pair = self._link_pair_sum(phi)
        phi_sq = phi * phi
        deg_term = float(self.deg_k @ phi_sq)
        facet_term = float(self.facet_deg_sum @ phi_sq)
        restricted = [mat @ phi for mat in self.restrictions]

        norm_dk = float(np.dot(self.d_k @ phi, self.d_k @ phi))
        sum_d_restr = sum(float(np.dot(self.d_km1 @ r, self.d_km1 @ r)) for r in restricted)
        sum_adj_restr = sum(float(np.dot(self.d_km2.T @ r, self.d_km2.T @ r)) for r in restricted)
        norm_adj = float(np.dot(self.d_km1.T @ phi, self.d_km1.T @ phi))
        quad_k = float(phi @ (self.delta_k @ phi))
        quad_km1 = sum(float(r @ (self.delta_km1 @ r)) for r in restricted)
        sum_restr_norm = sum(float(np.dot(r, r)) for r in restricted)
        norm_phi = float(np.dot(phi, phi))

        checks = [
            ("coboundary_norm", "||d_k phi||^2 == sum deg(sigma) phi^2 - 2*linkpairs", norm_dk, deg_term - 2.0 * pair),
            (
                "restricted_coboundary_norm",
                "sum_u ||d_{k-1} phi_u||^2 == sum facetdeg phi^2 - 2k*linkpairs",
                sum_d_restr,
                facet_term - 2.0 * k * pair,
            ),
            (
                "norm_exchange",
                "k*(||d_k phi||^2 - sum deg phi^2) == sum_u ||d_{k-1} phi_u||^2 - sum facetdeg phi^2",
                k * (norm_dk - deg_term),
                sum_d_restr - facet_term,
            ),
            (
                "restricted_adjoint_norm",
                "sum_u ||d*_{k-2} phi_u||^2 == k*||d*_{k-1} phi||^2",
                sum_adj_restr,
                k * norm_adj,
            ),
            (
                "laplacian_decomposition",
                "k*(L_k phi, phi) == sum_u (L_{k-1} phi_u, phi_u) - sum (facetdeg - k*deg) phi^2",
                k * quad_k,
                quad_km1 - (facet_term - k * deg_term),
            ),
            (
                "restriction_double_count",
                "sum_u ||phi_u||^2 == (k+1)*||phi||^2",
                sum_restr_norm,
                (k + 1) * norm_phi,
            ),
        ]
        records = []
        for name, claim, lhs, rhs in checks:
            residual = abs(lhs - rhs)
            allowed = tol * (1.0 + max(abs(lhs), abs(rhs)))
            records.append(
                CheckRecord(
                    check=name,
                    claim=claim,
                    instance=instance,
                    k=k,
                    lhs=lhs,
                    rhs=rhs,
                    slack=residual,
                    passed=residual <= allowed,
                )
            )
        return records


def verify_cochain_identities(
    x: FlagComplex, k: int, phi: Cochain | np.ndarray, instance: str = "", tol: float = IDENTITY_TOL
) -> list[CheckRecord]:
    """One-shot evaluation of the degree-k cochain identities for a single cochain."""
    if isinstance(phi, Cochain):
        if phi.degree != k:
            raise ValueError(f"cochain degree {phi.degree} does not match k={k}")
        values = phi.values
    else:
        values = phi
    return CochainIdentityChecker(x, k).residuals(values, instance=instance, tol=tol)


def facet_degree_excess(x: FlagComplex, k: int) -> int:
    """Max over k-simplices of (sum of facet degrees) - k * (own degree)."""
    if k < 1 or k > x.max_dim or not x.skeleta[k]:
        raise ValueError(f"no {k}-simplices")
    return max(
        facet_sum - k * simplex_degree(x, s)
        for facet_sum, s in zip(_facet_degree_sums(x, k), x.skeleta[k])
    )


def verify_facet_degree_bound(x: FlagComplex, instance: str = "") -> list[CheckRecord]:
    """The facet-degree excess of every simplex is at most the vertex count."""
    n = x.graph.n
    records = []
    for k in range(1, x.max_dim + 1):
        if not x.skeleta[k]:
            break
        excess = facet_degree_excess(x, k)
        records.append(
            CheckRecord(
                check="facet_degree_bound",
                claim="sum_facets deg - k*deg(sigma) <= n",
                instance=instance,
                k=k,
                lhs=float(excess),
                rhs=float(n),
                slack=float(n - excess),
                passed=excess <= n,
            )
        )
    return records
