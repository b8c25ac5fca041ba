"""Domination parameters, vector representations of graphs, and their verifiers.

The exact parameters (domination, total domination, independent domination)
use bitmask subset searches behind small caps.  The fractional and
representation-valued parameters are covering LPs over neighborhood or Gram
matrices; each optimal value comes back with a primal witness and a dual
certificate.  The representation supremum itself is never reported as
computed: only certified lower bounds from explicitly supplied
representations, which is all a finite procedure can deliver.

The verifiers build nothing: they take lambda_max, the connectivity of the
independence complex and the best representation value, which the caller
computes once per graph.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InputFormatError
from .graphs import Graph, _bits, _json_int, complement, cycle_graph
from .lp import LinearProgram, solve_covering_lp
from .reports import CheckRecord
from .spectral import Connectivity

EXACT_SEARCH_CAP = 16
INDEP_SEARCH_CAP = 14
GRAM_TOL = 1e-9
BOUND_TOL = 1e-7


class DominationReport:
    """A named parameter value together with the witness that attains it."""

    __slots__ = ("parameter", "value", "witness", "notes")

    def __init__(self, parameter: str, value: float, witness: object, notes: str = ""):
        self.parameter, self.value, self.witness, self.notes = parameter, value, witness, notes


def _closed_masks(g: Graph) -> list[int]:
    return [mask | (1 << v) for v, mask in enumerate(g.masks)]


def smallest_cover(masks: Sequence[int], target: int, candidates: Sequence[int]) -> tuple[int, ...] | None:
    """Smallest S of candidates (by size, then lexicographic in candidate
    order) with the union of masks over S covering target; None when even
    all candidates fail."""
    for size in range(len(candidates) + 1):
        for combo in combinations(candidates, size):
            acc = 0
            for v in combo:
                acc |= masks[v]
            if acc & target == target:
                return combo
    return None


def _check_search_size(g: Graph, cap: int, search: str = "exact domination") -> None:
    """The exact searches' preamble: a nonempty graph within the search's vertex cap."""
    if g.n < 1:
        raise ValueError("empty graph")
    if g.n > cap:
        raise CapExceeded(f"{search} search capped at {cap} vertices (got {g.n})")


def domination_number(g: Graph, cap: int = EXACT_SEARCH_CAP) -> DominationReport:
    """Minimum size of a set whose closed neighborhood covers every vertex."""
    _check_search_size(g, cap)
    full = (1 << g.n) - 1
    witness = smallest_cover(_closed_masks(g), full, range(g.n))
    assert witness is not None  # every vertex covers itself
    return DominationReport("domination_number", len(witness), witness)


def total_domination_number(g: Graph, cap: int = EXACT_SEARCH_CAP) -> DominationReport:
    """Minimum size of a set whose open neighborhood covers every vertex."""
    _check_search_size(g, cap)
    if g.isolated_vertices():
        raise ValueError("no totally dominating set exists (isolated vertex)")
    full = (1 << g.n) - 1
    witness = smallest_cover(g.masks, full, range(g.n))
    assert witness is not None  # no isolated vertices, so all n vertices work
    return DominationReport("total_domination_number", len(witness), witness)


def _maximal_independent_sets(g: Graph) -> list[int]:
    """Bitmasks of all inclusion-maximal independent sets, in ascending order.

    They are the maximal cliques of the complement, listed by Bron-Kerbosch
    with Tomita's pivot, so the work follows the number of sets, not 2^n.
    """
    everything = (1 << g.n) - 1
    apart = complement(g).masks
    out = []

    def extend(chosen, candidates, excluded):
        if not candidates | excluded:
            out.append(chosen)
            return
        pivot = max(_bits(candidates | excluded), key=lambda u: (candidates & apart[u]).bit_count())
        for v in _bits(candidates & ~apart[pivot]):
            extend(chosen | 1 << v, candidates & apart[v], excluded & apart[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    if g.n:
        extend(0, everything, 0)
    return sorted(out)


def independent_domination_number(g: Graph, cap: int = INDEP_SEARCH_CAP) -> DominationReport:
    """Worst case, over maximal independent sets I, of the smallest S with N(S) covering I.

    Monotone in I, so only maximal independent sets matter.  A graph with an
    isolated vertex gets the infinity marker: the isolated vertex joins every
    maximal independent set and no open neighborhood ever covers it.
    """
    _check_search_size(g, cap, "independent domination")
    if g.isolated_vertices():
        return DominationReport(
            "independent_domination_number",
            math.inf,
            g.isolated_vertices()[:1],
            notes="isolated vertex can never be covered by open neighborhoods",
        )
    best_value = 0
    best_witness = ((), ())
    for ind_mask in _maximal_independent_sets(g):
        cover = smallest_cover(g.masks, ind_mask, range(g.n))
        assert cover is not None  # no isolated vertices
        if len(cover) > best_value:
            best_value = len(cover)
            best_witness = (tuple(v for v in range(g.n) if ind_mask >> v & 1), cover)
    return DominationReport("independent_domination_number", best_value, best_witness)


def strong_domination_lp(g: Graph) -> LinearProgram:
    """Covering LP whose row for v reads: sum of f over N(v) plus deg(v)*f(v) >= 1."""
    if g.n < 1:
        raise ValueError("empty graph")
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in g.neighbors(v):
            a[v, u] = 1.0
        a[v, v] = g.degree(v)
    return LinearProgram(a)


def fractional_strong_domination(g: Graph) -> DominationReport:
    """Optimal value of the strong fractional domination LP, with witness weights.

    An isolated vertex makes its row identically zero against a positive
    right-hand side, so the LP is infeasible and the infinity marker is
    reported.
    """
    solution = solve_covering_lp(strong_domination_lp(g))
    if solution.status == "infeasible":
        return DominationReport(
            "fractional_strong_domination", math.inf, None, notes=f"infeasible: {solution.notes}"
        )
    assert solution.optimal
    return DominationReport("fractional_strong_domination", solution.value, solution.x)


# -- vector representations ----------------------------------------------------


class VectorRepresentation:
    """Per-vertex vectors, stored as the rows of an n x dim matrix."""

    __slots__ = ("graph", "matrix")

    def __init__(self, graph: Graph, matrix):
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != graph.n:
            raise ValueError("representation matrix must have one row per vertex")
        self.graph = graph
        self.matrix = mat

    def gram(self) -> np.ndarray:
        return self.matrix @ self.matrix.T


def validate_representation(rep: VectorRepresentation) -> bool:
    """Dot products at least 1 on edges and at least 0 on non-adjacent pairs."""
    gram = rep.gram().astype(np.float64)
    g = rep.graph
    for u in range(g.n):
        for v in range(u + 1, g.n):
            need = 1.0 if g.has_edge(u, v) else 0.0
            if gram[u, v] < need - GRAM_TOL:
                return False
    return True


def representation_value(rep: VectorRepresentation) -> DominationReport:
    """Covering optimum of alpha . 1 over alpha >= 0 with alpha Gram >= 1.

    Every representation value passes through here, so the Gram conditions
    are checked here, once.  The characteristic vector of any totally
    dominating set is feasible, so the LP is infeasible only when the graph
    has an isolated vertex; that case reports the infinity marker.
    """
    if not validate_representation(rep):
        raise ValueError("representation violates the Gram conditions")
    solution = solve_covering_lp(LinearProgram(rep.gram().astype(np.float64)))
    if solution.status == "infeasible":
        return DominationReport(
            "representation_value", math.inf, None, notes=f"infeasible: {solution.notes}"
        )
    assert solution.optimal
    return DominationReport(
        "representation_value", solution.value, solution.x, notes="dual certificate attached"
    )


def edge_incidence_representation(g: Graph) -> VectorRepresentation:
    """Rows are vertex incidence vectors over the (sorted) edge list.

    The Gram matrix has degrees on the diagonal and adjacency off it, so the
    value of this representation is exactly the strong fractional domination
    optimum.
    """
    edges = g.sorted_edges()
    if not edges:
        raise ValueError("edge incidence representation needs at least one edge")
    mat = np.zeros((g.n, len(edges)), dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        mat[u, j] = 1
        mat[v, j] = 1
    return VectorRepresentation(g, mat)


def cycle_representation(k: int) -> VectorRepresentation:
    """The explicit representation of the cycle on 3k vertices in 2k coordinates.

    Vertex 3j maps to e(2j); vertex 3j+1 to e(2j) + e(2j+1); vertex 3j+2 to
    e(2j+1) + e(2j+2), indices cyclic modulo 2k.  Its value is k, certified by
    the weight vector supported on the multiples of 3.
    """
    if k < 1:
        raise ValueError("k must be positive")
    g = cycle_graph(3 * k)
    dim = 2 * k
    mat = np.zeros((3 * k, dim), dtype=np.int64)
    for j in range(k):
        mat[3 * j, (2 * j) % dim] = 1
        mat[3 * j + 1, (2 * j) % dim] = 1
        mat[3 * j + 1, (2 * j + 1) % dim] = 1
        mat[3 * j + 2, (2 * j + 1) % dim] = 1
        mat[3 * j + 2, (2 * j + 2) % dim] = 1
    return VectorRepresentation(g, mat)


def best_representation_value(values: Iterable[DominationReport]) -> DominationReport:
    """The first largest of the supplied representation_value reports.

    This is a certified lower bound for the supremum over all representations
    (never the supremum itself, which no finite procedure here computes).
    """
    values = list(values)
    if not values:
        raise ValueError("need at least one representation")
    best = max(range(len(values)), key=lambda i: values[i].value)
    return DominationReport(
        "representation_value_lower_bound",
        values[best].value,
        {"representation": best, "weights": values[best].witness},
        notes="lower bound from supplied representations only",
    )


def _json_number(value) -> float:
    """A JSON int or float as a float; strings and booleans are refused, not coerced."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def representation_from_json_dict(g: Graph, data: dict) -> VectorRepresentation:
    """A representation of g from its JSON form, refused unless its
    coordinates and Gram matrix are finite and it meets the Gram conditions."""
    try:
        dim = _json_int(data["dim"])
        mat = np.array([[_json_number(x) for x in row] for row in data["vectors"]], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"bad representation JSON: {exc}") from exc
    if mat.ndim != 2 or mat.shape != (g.n, dim):
        raise InputFormatError(f"representation must be {g.n} x {dim}")
    if not np.isfinite(mat).all():
        raise InputFormatError("representation coordinates must be finite")
    rep = VectorRepresentation(g, mat)
    if not np.isfinite(rep.gram()).all():
        raise InputFormatError("representation Gram matrix must be finite")
    if not validate_representation(rep):
        raise InputFormatError("representation violates the Gram conditions")
    return rep


# -- verifiers ------------------------------------------------------------------


def verify_spectral_connectivity_bound(n: int, lam: float, eta: Connectivity, instance: str = "") -> CheckRecord:
    """Connectivity eta of the independent-set complex of an n-vertex graph
    is at least n / lambda_max."""
    bound = n / lam if lam > 1e-12 else math.inf
    if math.isinf(bound):
        ok = True if eta.infinite else None
        detail = "edgeless graph; complex is a full simplex" if eta.infinite else "unbounded target"
    else:
        ok = eta.at_least(bound - BOUND_TOL)
        detail = "" if ok else f"connectivity {eta.describe()} below {bound:.6g}"
        if ok is None:
            detail = f"inconclusive: connectivity {eta.describe()}"
    return CheckRecord(
        check="connectivity_spectral_bound",
        claim="eta(independence complex) >= n / lambda_max",
        instance=instance,
        lhs=float(eta.floor) if not eta.infinite else math.inf,
        rhs=bound,
        slack=(eta.floor - bound) if not math.isinf(bound) else math.inf,
        passed=ok,
        detail=detail,
    )


def verify_gram_row_bound(lam: float, rep: VectorRepresentation, instance: str = "") -> CheckRecord:
    """lambda_max of the representation's graph is at most the largest row
    sum of the representation Gram matrix.  The representation must satisfy
    the Gram conditions, which representation_value checks."""
    row_sums = rep.gram().astype(np.float64).sum(axis=1)
    bound = float(row_sums.max())
    return CheckRecord(
        check="gram_row_bound",
        claim="lambda_max <= max_u P(u) . sum_v P(v)",
        instance=instance,
        lhs=lam,
        rhs=bound,
        slack=bound - lam,
        passed=lam <= bound + BOUND_TOL,
    )


def verify_representation_connectivity_bound(
    bound: DominationReport, eta: Connectivity, instance: str = ""
) -> CheckRecord:
    """Connectivity eta of the independent-set complex dominates the value
    of every supplied representation, as reported by best_representation_value."""
    ok = eta.at_least(bound.value - BOUND_TOL) if not math.isinf(bound.value) else eta.at_least(math.inf)
    eta_value = math.inf if eta.infinite else float(eta.floor)
    return CheckRecord(
        check="connectivity_representation_bound",
        claim="eta(independence complex) >= value of every representation",
        instance=instance,
        lhs=eta_value,
        rhs=bound.value,
        slack=eta_value - bound.value if not math.isinf(bound.value) else math.inf,
        passed=ok,
        detail="" if ok else f"connectivity {eta.describe()} vs bound {bound.value}",
    )
