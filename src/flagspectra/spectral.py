"""Higher Laplacians of clique complexes, Betti profiles, and their verifiers.

The degree-k Laplacian is assembled from the coboundary matrices one degree
below and above (with the all-ones augmentation below degree 0).  Both
products run as float64 BLAS matmuls and the float64 sum is the operator;
its entries are exact integers, because coboundary entries are 0 or +-1, so
every partial sum is an integer no larger than the row count, far below
2^53.  Reduced Betti numbers are computed twice, by counting near-zero
Laplacian eigenvalues and by exact integer rank-nullity of the int64
coboundaries, and the two must agree; a mismatch raises instead of silently
trusting either side.  That pass, `betti_profile`, is the one analysis of a
complex: the recursion and vanishing verifiers are pure functions of its
result.

The cochain identities of Garland's method are checked by
`CochainIdentityChecker`, which reads the face table alone: one fancy-index
write gathers every vertex restriction of a cochain into the rows of one
(n, |X_{k-1}|) array, so each sum over vertices is a single matrix product.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .complexes import (
    FlagComplex,
    build_flag_complex,
    check_dense_bytes,
    coboundary_matrix,
    face_signs,
    independence_complex,
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
    """Degree-k Laplacian (down-up plus up-down) as a float64 matrix with
    exact integer entries.

    At degree 0 the down term is the all-ones matrix, so the result equals
    J + L_G entrywise.  At the top enumerated dimension the up term is the
    zero map; that is the true operator exactly when the complex is complete.
    Both products are float64 BLAS matmuls of the 0/+-1 coboundaries, whose
    partial sums are small integers and so exact; numpy's int64 matmul has
    no BLAS path.
    """
    if k < 0 or k > x.max_dim:
        raise ValueError(f"degree {k} out of range")
    count = len(x.skeleta[k])
    if not count:
        raise ValueError(f"no {k}-simplices")
    check_dense_bytes((count, count))
    d_below = coboundary_matrix(x, k - 1).astype(np.float64)
    d_above = _upper_coboundary(x, k).astype(np.float64)
    out = d_below @ d_below.T
    out += d_above.T @ d_above
    return out


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


def _facet_degree_sums(x: FlagComplex, k: int) -> np.ndarray:
    """For each k-simplex in skeleton order, the sum of its facets' degrees."""
    return x.degrees(k - 1)[x.faces(k)].sum(axis=1)


class CochainIdentityChecker:
    """Precomputed structure for the degree-k cochain identities of one complex.

    Setting this up once makes checking many random cochains on the same
    complex cheap: the restriction gather and link-pair index arrays, degree
    vectors, and both Laplacians are all reused across evaluations.
    """

    def __init__(self, x: FlagComplex, k: int):
        if k < 1:
            raise ValueError("identities need degree k >= 1")
        if k > x.max_dim or not x.skeleta[k]:
            raise ValueError(f"no {k}-simplices")
        if k + 1 > x.max_dim and not x.complete:
            raise ValueError("complex must be enumerated one dimension above k")
        # every restriction is a row of one (n, |X_{k-1}|) array; n can exceed
        # |X_{k-1}|, so the capped Laplacians do not bound it
        self._restricted_shape = (x.graph.n, len(x.skeleta[k - 1]))
        check_dense_bytes(self._restricted_shape)
        self.x = x
        self.k = k

        self.d_k = _upper_coboundary(x, k)
        self.d_km1 = coboundary_matrix(x, k - 1)
        self.d_km2 = coboundary_matrix(x, k - 2)
        self.delta_k = hodge_laplacian(x, k)
        self.delta_km1 = hodge_laplacian(x, k - 1)

        self.deg_k = x.degrees(k)
        self.facet_deg_sum = _facet_degree_sums(x, k)

        # Restriction gather: dropping the vertex u = sigma[i] from a k-simplex
        # sigma leaves its face i, so phi_u takes the value (-1)^i phi(sigma)
        # there.  Each (u, face) pair comes from one sigma only.
        self._restrict_u = np.array(x.skeleta[k], dtype=np.intp).reshape(-1, k + 1)
        self._restrict_face = x.faces(k)
        self._restrict_sign = face_signs(k)

        # Link pairs: a (k-1)-simplex eta with an edge v < w in its link spans
        # the (k+1)-simplex rho = eta + v + w, where v and w sit at positions
        # i < j.  The pair is (v eta, w eta) = (rho minus j, rho minus i), and
        # its sign (-1)^i (-1)^(j-1) counts the vertices of eta below v and w.
        # A complete complex enumerated only to k has no (k+1)-simplices.
        rho_faces = x.faces(k + 1) if k < x.max_dim else np.zeros((0, k + 2), dtype=np.intp)
        i, j = np.triu_indices(k + 2, 1)
        signs = face_signs(k + 1)
        self._pair_iv = rho_faces[:, j].ravel()
        self._pair_iw = rho_faces[:, i].ravel()
        self._pair_sign = np.tile(-(signs[i] * signs[j]), len(rho_faces)).astype(np.float64)

    def residuals(self, phi: np.ndarray, instance: str = "", tol: float = IDENTITY_TOL) -> list[CheckRecord]:
        """Evaluate both sides of each identity for one cochain."""
        k = self.k
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (len(self.x.skeleta[k]),):
            raise ValueError("cochain length does not match degree-k skeleton")

        pair = float((self._pair_sign * phi[self._pair_iv] * phi[self._pair_iw]).sum())
        phi_sq = phi * phi
        deg_term = float(self.deg_k @ phi_sq)
        facet_term = float(self.facet_deg_sum @ phi_sq)
        restricted = self._restrict(phi)  # row u is phi_u

        norm_dk = _norm_sq(self.d_k @ phi)
        sum_d_restr = _norm_sq(restricted @ self.d_km1.T)
        sum_adj_restr = _norm_sq(restricted @ self.d_km2)
        norm_adj = _norm_sq(phi @ self.d_km1)
        quad_k = float(phi @ (self.delta_k @ phi))
        quad_km1 = float(np.vdot(restricted @ self.delta_km1, restricted))
        sum_restr_norm = _norm_sq(restricted)
        norm_phi = _norm_sq(phi)

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

    def _restrict(self, phi: np.ndarray) -> np.ndarray:
        """Every vertex restriction of phi, as the rows of one (n, |X_{k-1}|) array."""
        out = np.zeros(self._restricted_shape)
        out[self._restrict_u, self._restrict_face] = self._restrict_sign * phi[:, None]
        return out


def _norm_sq(a: np.ndarray) -> float:
    """Squared Euclidean norm of a vector, or squared Frobenius norm of a matrix."""
    return float(np.vdot(a, a))


def facet_degree_excess(x: FlagComplex, k: int) -> int:
    """Max over k-simplices of (sum of facet degrees) - k * (own degree)."""
    if k < 1 or k > x.max_dim or not x.skeleta[k]:
        raise ValueError(f"no {k}-simplices")
    return int((_facet_degree_sums(x, k) - k * x.degrees(k)).max())


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
