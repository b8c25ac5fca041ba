"""Clique (flag) complexes: enumeration, coboundary matrices, links, cochains.

Simplices are stored as strictly increasing vertex tuples; that increasing
order is the fixed orientation, and every sign in a coboundary matrix or a
cochain evaluation is the parity of the permutation relating an ordering to
the stored one.  Coboundary matrices have exact int64 entries so that the
composition of two of them vanishes exactly; only the spectral layer converts
to floating point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .graphs import Graph, check_vertex_count, complement

DEFAULT_SIMPLEX_CAP = 20000


def default_max_dim(n: int) -> int:
    return min(n - 1, 8)


class FlagComplex:
    """Skeleta of the clique complex of a graph, enumerated up to max_dim.

    skeleta[k] holds the k-simplices in lexicographic order; index[k] maps a
    simplex tuple to its position.  `complete` records whether the base graph
    has any clique larger than max_dim+1 vertices: when True, the enumeration
    covers the whole clique complex and top-dimension quantities (Betti
    numbers, connectivity) are exact rather than truncations.
    """

    __slots__ = ("graph", "max_dim", "skeleta", "index", "complete", "_masks")

    def __init__(self, graph: Graph, max_dim: int, skeleta, masks, complete: bool):
        self.graph = graph
        self.max_dim = max_dim
        self.skeleta = skeleta
        self._masks = masks
        self.index = [{s: i for i, s in enumerate(level)} for level in skeleta]
        self.complete = complete

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.skeleta)

    def contains(self, simplex: Sequence[int]) -> bool:
        key = tuple(sorted(simplex))
        k = len(key) - 1
        return 0 <= k <= self.max_dim and key in self.index[k]

    def common_neighbors_mask(self, simplex: Sequence[int]) -> int:
        mask = (1 << self.graph.n) - 1
        for v in simplex:
            mask &= self.graph.adjacency_mask(v)
        return mask

    def __repr__(self) -> str:
        return f"FlagComplex(n={self.graph.n}, max_dim={self.max_dim}, counts={self.counts()})"


def build_flag_complex(
    g: Graph, max_dim: int | None = None, simplex_cap: int = DEFAULT_SIMPLEX_CAP
) -> FlagComplex:
    """Enumerate all cliques of g with at most max_dim+1 vertices.

    Cliques are grown vertex by vertex in increasing label order, which emits
    every skeleton in lexicographic order.  A dimension whose simplex count
    exceeds simplex_cap aborts the build.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if max_dim is None:
        max_dim = default_max_dim(g.n)
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    check_vertex_count(g.n, simplex_cap)

    skeleta = [tuple((v,) for v in range(g.n))]
    masks = [tuple(g.adjacency_mask(v) for v in range(g.n))]
    for k in range(1, max_dim + 1):
        level = []
        level_masks = []
        for sigma, mask in zip(skeleta[k - 1], masks[k - 1]):
            ext = mask >> (sigma[-1] + 1)
            w = sigma[-1] + 1
            while ext:
                if ext & 1:
                    level.append(sigma + (w,))
                    level_masks.append(mask & g.adjacency_mask(w))
                ext >>= 1
                w += 1
        if len(level) > simplex_cap:
            raise CapExceeded(
                f"complex too large: {len(level)} simplices in dimension {k} (cap {simplex_cap})"
            )
        skeleta.append(tuple(level))
        masks.append(tuple(level_masks))
        if not level:
            break

    # Pad empty levels up to max_dim, then decide completeness: either some
    # level died out, or no stored top simplex extends upward.
    while len(skeleta) <= max_dim:
        skeleta.append(())
        masks.append(())
    if not skeleta[max_dim]:
        complete = True
    elif max_dim >= g.n - 1:
        complete = True
    else:
        complete = not any(
            mask >> (sigma[-1] + 1) for sigma, mask in zip(skeleta[max_dim], masks[max_dim])
        )
    return FlagComplex(g, max_dim, skeleta, masks, complete)


def independence_complex(
    g: Graph, max_dim: int | None = None, simplex_cap: int = DEFAULT_SIMPLEX_CAP
) -> FlagComplex:
    """Complex of independent sets of g, i.e. the clique complex of its complement."""
    return build_flag_complex(complement(g), max_dim=max_dim, simplex_cap=simplex_cap)


def coboundary_matrix(x: FlagComplex, k: int) -> np.ndarray:
    """Matrix of the degree-k coboundary with exact int64 entries.

    Rows are (k+1)-simplices, columns k-simplices; the entry for (tau, sigma)
    is (-1)^i when sigma is tau with its i-th vertex dropped.  Degree -1 is
    the all-ones column (the constant-to-vertices augmentation).
    """
    if k == -1:
        return np.ones((x.graph.n, 1), dtype=np.int64)
    if k < -1 or k > x.max_dim - 1:
        raise ValueError(f"coboundary degree {k} out of range for max_dim {x.max_dim}")
    rows = x.skeleta[k + 1]
    cols_index = x.index[k]
    mat = np.zeros((len(rows), len(cols_index)), dtype=np.int64)
    for r, tau in enumerate(rows):
        sign = 1
        for i in range(len(tau)):
            face = tau[:i] + tau[i + 1 :]
            mat[r, cols_index[face]] = sign
            sign = -sign
    return mat


def simplex_degree(x: FlagComplex, simplex: Sequence[int]) -> int:
    """Number of cofaces of one dimension higher in the full clique complex.

    For a clique complex this is the number of common neighbors of the
    simplex's vertices, so the count does not depend on the enumeration cap.
    """
    key = tuple(sorted(simplex))
    if not x.contains(key):
        raise ValueError(f"simplex {key} not in complex")
    return x.common_neighbors_mask(key).bit_count()


def link(x: FlagComplex, simplex: Sequence[int]) -> list[tuple[int, ...]]:
    """All stored simplices disjoint from the given one whose union is stored.

    Returned in (dimension, lexicographic) order.  Only unions of dimension
    at most max_dim are visible, matching the enumerated skeleta.
    """
    key = tuple(sorted(simplex))
    if not x.contains(key):
        raise ValueError(f"simplex {key} not in complex")
    kdim = len(key) - 1
    base = set(key)
    out = []
    for j in range(0, x.max_dim - kdim):
        union_index = x.index[kdim + j + 1]
        for tau in x.skeleta[j]:
            if base.isdisjoint(tau) and tuple(sorted(key + tau)) in union_index:
                out.append(tau)
    return out


def sort_sign(sequence: Sequence[int]) -> int:
    """Parity sign of the permutation that sorts a sequence of distinct ints."""
    inversions = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


class Cochain:
    """Real values on the k-simplices of a complex, in skeleton order.

    Values on reordered simplices follow skew-symmetry: an odd permutation
    of the vertices negates the stored value (see value_on).
    """

    __slots__ = ("degree", "values")

    def __init__(self, degree: int, values: np.ndarray):
        self.degree = degree
        self.values = values

    def value_on(self, x: FlagComplex, ordered_vertices: Sequence[int]) -> float:
        key = tuple(sorted(ordered_vertices))
        if len(key) != len(ordered_vertices):
            raise ValueError("repeated vertex in simplex")
        pos = x.index[self.degree].get(key)
        if pos is None:
            raise ValueError(f"simplex {key} not in complex")
        return sort_sign(tuple(ordered_vertices)) * float(self.values[pos])


def random_cochain(x: FlagComplex, k: int, rng) -> Cochain:
    values = np.array([rng.next_gauss() for _ in x.skeleta[k]])
    return Cochain(k, values)


def restriction_matrices(x: FlagComplex, k: int) -> list[np.ndarray]:
    """For each vertex u, the matrix taking a degree-k cochain to its u-restriction."""
    if k < 1 or k > x.max_dim:
        raise ValueError("restriction needs degree between 1 and max_dim")
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
