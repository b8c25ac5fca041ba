"""Simple undirected graphs: generators, Laplacian spectra, complement, blow-up.

Vertices are the dense integers 0..n-1.  Graphs are immutable once built;
adjacency is kept only as per-vertex neighbour bitmasks (arbitrary-precision
ints), which the clique enumeration and the exact domination searches read
directly and from which the derived graphs are built in O(n) masks.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InputFormatError
from .linalg import symmetric_eigenvalues

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    Uses the reference constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB, so the stream for a given seed is identical on every
    platform.  All seeded corpus generation goes through this class to keep
    outputs bit-reproducible.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound); bias is negligible for desk-scale bounds."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_gauss(self) -> float:
        """Standard normal via Box-Muller (two uniforms per call)."""
        u1 = self.next_float()
        while u1 == 0.0:
            u1 = self.next_float()
        u2 = self.next_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


class Graph:
    """Immutable simple undirected graph on the vertex set {0..n-1}.

    Bit u of `masks[v]` is set iff uv is an edge.  Self-loops are rejected;
    duplicate edges collapse.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.masks = tuple(masks)

    @classmethod
    def _from_masks(cls, masks: Iterable[int]) -> Graph:
        """The graph of trusted neighbour masks: symmetric, loop-free, in range."""
        g = cls.__new__(cls)
        g.masks = tuple(masks)
        g.n = len(g.masks)
        return g

    # -- queries ---------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self.masks[u] >> v & 1)

    @property
    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.masks[v] == 0)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, mask in enumerate(self.masks) for v in _bits(mask >> (u + 1) << (u + 1))]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- generators ------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_masks(full ^ (1 << v) for v in range(n))


def cycle_graph(n: int) -> Graph:
    """The n-cycle 0-1-...-(n-1)-0; requires n >= 3."""
    if n < 3:
        raise ValueError("cycle graph needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def turan_graph(r: int, ell: int) -> Graph:
    """Complete r-partite graph with r blocks of ell consecutive vertices each."""
    if r < 1 or ell < 1:
        raise ValueError("block count and block size must be positive")
    n = r * ell
    full, block = (1 << n) - 1, (1 << ell) - 1
    return Graph._from_masks(full ^ (block << (v - v % ell)) for v in range(n))


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each pair drawn independently from a SplitMix64 stream.

    Pairs are scanned in lexicographic order, one uniform draw per pair, so
    the edge set is a pure function of (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = SplitMix64(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.next_float() < p:
                edges.append((u, v))
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._from_masks(full ^ mask ^ (1 << v) for v, mask in enumerate(g.masks))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled 0..k-1 in sorted order."""
    verts = sorted(set(vertices))
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise ValueError("vertex out of range")
    # bit i of a new mask is bit verts[i] of the old one
    return Graph._from_masks(
        sum(1 << i for i, u in enumerate(verts) if g.masks[v] >> u & 1) for v in verts
    )


def blow_up(g: Graph, weights: Sequence[int]) -> Graph:
    """Replace each vertex v by an independent set of size weights[v].

    Copy (v, i) gets the index offset(v) + i where offset(v) = sum of the
    weights of vertices below v (lexicographic (v, i) ordering).  Copies of
    adjacent vertices are joined completely; copies of one vertex stay
    non-adjacent.
    """
    if len(weights) != g.n:
        raise ValueError("need one weight per vertex")
    if any(w <= 0 for w in weights):
        raise ValueError("blow-up weights must be positive")
    # blocks[v] marks the copies of v; a copy of v is adjacent to the copies
    # of v's neighbours
    blocks = [((1 << w) - 1) << offset for w, offset in zip(weights, accumulate(weights, initial=0))]
    masks = []
    for v, mask in enumerate(g.masks):
        joined = 0
        for u in _bits(mask):
            joined |= blocks[u]
        masks.extend([joined] * weights[v])
    return Graph._from_masks(masks)


# -- Laplacian spectra -------------------------------------------------------


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian as an exact int64 matrix: deg on the diagonal, -1 on edges."""
    if g.n == 0:
        raise ValueError("empty graph")
    width = (g.n + 7) // 8
    raw = b"".join(mask.to_bytes(width, "little") for mask in g.masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(g.n, width)
    adjacency = np.unpackbits(rows, axis=1, count=g.n, bitorder="little").astype(np.int64)
    return np.diag(adjacency.sum(axis=1)) - adjacency


def laplacian_spectrum(g: Graph) -> np.ndarray:
    return symmetric_eigenvalues(laplacian_matrix(g))


def spectral_gap(g: Graph) -> float:
    """Second smallest Laplacian eigenvalue."""
    if g.n < 2:
        raise ValueError("spectral gap needs at least 2 vertices")
    return float(laplacian_spectrum(g)[1])


def lambda_max(g: Graph) -> float:
    """Largest Laplacian eigenvalue."""
    if g.n < 1:
        raise ValueError("empty graph")
    return float(laplacian_spectrum(g)[-1])


# -- text / JSON interchange -------------------------------------------------


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]}


def _json_int(value) -> int:
    """A JSON integer taken as is; floats, strings and booleans are refused, not coerced."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def check_vertex_count(n: int, simplex_cap: int) -> None:
    """Every command builds a complex whose 0-skeleton holds all n vertices, so
    a graph with more vertices than the simplex cap is refused before its n
    neighbour masks (n bits each) are allocated."""
    if n > simplex_cap:
        raise CapExceeded(f"complex too large: {n} simplices in dimension 0 (cap {simplex_cap})")


def graph_from_json_dict(data: dict, simplex_cap: int | None = None) -> Graph:
    """Graph from its JSON form; with a simplex_cap, n is checked against it
    before the Graph is built."""
    try:
        n = _json_int(data["n"])
        edges = [(_json_int(u), _json_int(v)) for u, v in data.get("edges", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad graph JSON: {exc}") from exc
    if simplex_cap is not None:
        check_vertex_count(n, simplex_cap)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def format_graph_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str, simplex_cap: int | None = None) -> Graph:
    """Parse the 'n m' / edge-list text form; raises InputFormatError with the bad line.

    With a simplex_cap, n is checked against it before any edge is read."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise InputFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputFormatError(f"line 1: expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputFormatError(f"line 1: expected integers, got {lines[0]!r}") from None
    if simplex_cap is not None:
        check_vertex_count(n, simplex_cap)
    if len(lines) - 1 != m:
        raise InputFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise InputFormatError(f"line {i}: expected 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputFormatError(f"line {i}: expected integers, got {ln!r}") from None
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def load_graph(path: str, simplex_cap: int) -> Graph:
    """Load either the JSON or the text form, sniffing on the leading character.

    A graph with more vertices than simplex_cap raises CapExceeded before its
    Graph is built."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(str(exc)) from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: {exc}") from exc
        return graph_from_json_dict(data, simplex_cap)
    return parse_graph_text(text, simplex_cap)
