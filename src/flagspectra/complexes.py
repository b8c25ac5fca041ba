"""Clique (flag) complexes: enumeration, face tables and coboundary matrices.

Simplices are stored as strictly increasing vertex tuples; that increasing
order is the fixed orientation.  Every incidence between a k-simplex and a
(k-1)-face is read from one face table, `FlagComplex.faces(k)`: entry [r, i]
is the position in skeleta[k-1] of simplex r with its i-th vertex dropped,
and that incidence has sign (-1)^i (`face_signs`).  Coboundaries, vertex
restrictions, link pairs and facet degrees all read this table.  Coboundary
matrices have exact int64 entries so that the composition of two of them
vanishes exactly.  Each degree's coboundary is built once per complex, on
first use, and cached read-only like its face table, so every caller shares
one matrix.

Every dense array that grows with the complex (coboundaries, Laplacians,
the vertex restrictions of the cochain identities) is checked against
DENSE_BYTES_CAP before it is allocated (`check_dense_bytes`); a larger one
raises `CapExceeded`.  The enumeration raises it too, as soon as a level
passes the simplex cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded
from .graphs import Graph, check_vertex_count, complement

DEFAULT_SIMPLEX_CAP = 20000
DENSE_BYTES_CAP = 1 << 30  # bytes in any one dense array sized by the complex


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

    __slots__ = (
        "graph", "max_dim", "skeleta", "index", "complete", "_masks", "_faces", "_coboundaries"
    )

    def __init__(self, graph: Graph, max_dim: int, skeleta, masks, complete: bool):
        self.graph = graph
        self.max_dim = max_dim
        self.skeleta = skeleta
        self._masks = masks  # per simplex, the bitmask of its common neighbours
        self.index = [{s: i for i, s in enumerate(level)} for level in skeleta]
        self.complete = complete
        self._faces: list[np.ndarray | None] = [None] * len(skeleta)
        self._coboundaries: list[np.ndarray | None] = [None] * (max_dim + 1)  # degree k at k+1

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.skeleta)

    def faces(self, k: int) -> np.ndarray:
        """The (|X_k|, k+1) intp face table of degree k >= 1.

        Entry [r, i] is the position in skeleta[k-1] of skeleta[k][r] with
        its i-th vertex dropped; that incidence has sign face_signs(k)[i].
        Each degree's table is built when it is first asked for, and is
        read-only.
        """
        if k < 1 or k > self.max_dim:
            raise ValueError(f"face table degree {k} out of range for max_dim {self.max_dim}")
        table = self._faces[k]
        if table is None:
            below = self.index[k - 1]
            table = np.array(
                [below[s[:i] + s[i + 1 :]] for s in self.skeleta[k] for i in range(k + 1)],
                dtype=np.intp,
            ).reshape(-1, k + 1)
            table.flags.writeable = False  # shared by every caller
            self._faces[k] = table
        return table

    def degrees(self, k: int) -> np.ndarray:
        """Common-neighbour count of each k-simplex, in skeleton order."""
        return np.array([mask.bit_count() for mask in self._masks[k]], dtype=np.int64)

    def __repr__(self) -> str:
        return f"FlagComplex(n={self.graph.n}, max_dim={self.max_dim}, counts={self.counts()})"


def face_signs(k: int) -> np.ndarray:
    """Incidence signs (-1)^i of the k+1 faces of a k-simplex, i = 0..k."""
    return (-1) ** np.arange(k + 1, dtype=np.int64)


def build_flag_complex(
    g: Graph, max_dim: int | None = None, simplex_cap: int = DEFAULT_SIMPLEX_CAP
) -> FlagComplex:
    """Enumerate all cliques of g with at most max_dim+1 vertices.

    Cliques are grown vertex by vertex in increasing label order, which emits
    every skeleton in lexicographic order.  A dimension whose simplex count
    exceeds simplex_cap aborts the build as soon as the level passes the cap;
    the message gives the level's exact size, the sum of the popcounts of the
    extension masks.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if max_dim is None:
        max_dim = default_max_dim(g.n)
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    if max_dim > g.n - 1:
        raise ValueError(f"max_dim {max_dim} exceeds n - 1 = {g.n - 1}")
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
                count = sum((m >> (s[-1] + 1)).bit_count() for s, m in zip(skeleta[k - 1], masks[k - 1]))
                raise CapExceeded(f"complex too large: {count} simplices in dimension {k} (cap {simplex_cap})")
        skeleta.append(tuple(level))
        masks.append(tuple(level_masks))
        if not level:
            break

    # Pad empty levels up to max_dim, then decide completeness: either some
    # level died out, or no stored top simplex extends upward.
    while len(skeleta) <= max_dim:
        skeleta.append(())
        masks.append(())
    if not skeleta[max_dim] or max_dim == g.n - 1:
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


def check_dense_bytes(shape: tuple[int, ...]) -> None:
    """Raise CapExceeded if a dense array of this shape with 8-byte entries
    (int64 or float64) would exceed DENSE_BYTES_CAP."""
    nbytes = math.prod(shape) * 8
    if nbytes > DENSE_BYTES_CAP:
        raise CapExceeded(f"dense array of shape {shape} needs {nbytes} bytes (cap {DENSE_BYTES_CAP})")


def coboundary_matrix(x: FlagComplex, k: int) -> np.ndarray:
    """Matrix of the degree-k coboundary with exact int64 entries.

    Rows are (k+1)-simplices, columns k-simplices; the entry for (tau, sigma)
    is (-1)^i when sigma is tau with its i-th vertex dropped.  Degree -1 is
    the all-ones column (the constant-to-vertices augmentation).  Each
    degree's matrix is built on first use and cached on the complex,
    read-only, so repeated calls return the same array.
    """
    if k < -1 or k > x.max_dim - 1:
        raise ValueError(f"coboundary degree {k} out of range for max_dim {x.max_dim}")
    mat = x._coboundaries[k + 1]
    if mat is None:
        mat = _build_coboundary(x, k)
        mat.flags.writeable = False  # shared by every caller
        x._coboundaries[k + 1] = mat
    return mat


def _build_coboundary(x: FlagComplex, k: int) -> np.ndarray:
    if k == -1:
        return np.ones((x.graph.n, 1), dtype=np.int64)
    shape = (len(x.skeleta[k + 1]), len(x.skeleta[k]))
    check_dense_bytes(shape)
    faces = x.faces(k + 1)
    mat = np.zeros(shape, dtype=np.int64)
    mat[np.arange(len(faces))[:, None], faces] = face_signs(k + 1)
    return mat
