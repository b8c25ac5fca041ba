"""Hypergraphs over a shared ground set: line graphs, widths, and disjoint
representatives.

Widths come in an exact flavor (smallest set of edges meeting every edge,
by subset search) and a fractional flavor (a covering LP over pairwise
intersection sizes).  Families of hypergraphs get an exhaustive backtracking
search for a system of disjoint representatives.  `sweep_family` analyses a
family once: both widths of every subfamily union, their margins and the
search, from which the two sufficient conditions for representatives
(fractional width over every subfamily union, and the classical
integral-width condition) are read.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .complexes import DEFAULT_SIMPLEX_CAP, build_flag_complex
from .domination import VectorRepresentation, smallest_cover
from .errors import CapExceeded, InputFormatError
from .graphs import Graph, _json_int, induced_subgraph
from .lp import LinearProgram, solve_covering_lp, solve_covering_stacks
from .reports import CheckRecord
from .spectral import betti_profile

WIDTH_SEARCH_CAP = 20
SDR_FAMILY_CAP = 8
STRICT_TOL = 1e-7


class _Value:
    """Equality and hashing by the tuple of slot values."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)


class Hypergraph(_Value):
    """Edges (nonempty vertex sets, duplicates allowed) over ground set {0..ground-1}."""

    __slots__ = ("ground", "edges")

    def __init__(self, ground: int, edges: Sequence[Sequence[int]]):
        if ground < 0:
            raise ValueError("ground set size must be nonnegative")
        canon = []
        for e in edges:
            vs = tuple(sorted(set(e)))
            if not vs:
                raise ValueError("hypergraph edge must be nonempty")
            if vs[0] < 0 or vs[-1] >= ground:
                raise ValueError(f"edge {vs} out of range for ground set of size {ground}")
            canon.append(vs)
        self.ground = ground
        self.edges = tuple(canon)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_masks(self) -> list[int]:
        out = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            out.append(m)
        return out


class HypergraphFamily(_Value):
    """An ordered family of hypergraphs over one shared ground set."""

    __slots__ = ("ground", "members")

    def __init__(self, ground: int, members: Sequence[Hypergraph]):
        members = tuple(members)
        if not members:
            raise ValueError("family must contain at least one hypergraph")
        for h in members:
            if h.ground != ground:
                raise ValueError("all members must share the ground set")
        self.ground = ground
        self.members = members

    @property
    def size(self) -> int:
        return len(self.members)

    def union(self, indices: Sequence[int]) -> Hypergraph:
        """Concatenated edge lists of the selected members, multiplicity kept."""
        edges = []
        for i in indices:
            edges.extend(self.members[i].edges)
        return Hypergraph(self.ground, edges)


def hypergraph_from_json_dict(data: dict) -> Hypergraph:
    """A hypergraph from its JSON form; one without edges has no width and is refused."""
    try:
        ground = _json_int(data["ground"])
        edges = [[_json_int(v) for v in e] for e in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad hypergraph JSON: {exc}") from exc
    try:
        h = Hypergraph(ground, edges)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    if not h.num_edges:
        raise InputFormatError("empty hypergraph")
    return h


def family_from_json_dict(data: dict) -> HypergraphFamily:
    """A family from its JSON form; an edgeless member leaves no sweep to run and is refused."""
    try:
        ground = _json_int(data["ground"])
        lists = data["hypergraphs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad family JSON: {exc}") from exc
    members = []
    for lst in lists:
        try:
            members.append(Hypergraph(ground, [[_json_int(v) for v in e] for e in lst]))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"bad family member: {exc}") from exc
    if not members:
        raise InputFormatError("family must contain at least one hypergraph")
    if not all(h.num_edges for h in members):
        raise InputFormatError("empty hypergraph")
    return HypergraphFamily(ground, members)


def line_graph(h: Hypergraph) -> Graph:
    """One vertex per edge occurrence; adjacent iff the edges intersect.

    Duplicate occurrences of an edge intersect each other, hence are
    adjacent, and matchings of the hypergraph are exactly the independent
    sets of this graph.
    """
    if h.num_edges == 0:
        raise ValueError("empty hypergraph")
    masks = h.edge_masks()
    m = len(masks)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m) if masks[i] & masks[j]]
    return Graph(m, edges)


def width(h: Hypergraph, cap: int = WIDTH_SEARCH_CAP) -> tuple[int, tuple[int, ...]]:
    """Smallest number of edges meeting every edge, with a witness index tuple."""
    m = h.num_edges
    if m == 0:
        raise ValueError("empty hypergraph")
    if m > cap:
        raise CapExceeded(f"width search capped at {cap} edges (got {m})")
    masks = h.edge_masks()
    # meets[j] has bit i set iff edges i and j intersect; intersecting is
    # symmetric, so a combo meets every edge iff the OR of its rows is full
    meets = [sum(1 << i for i, other in enumerate(masks) if mask & other) for mask in masks]
    combo = smallest_cover(meets, (1 << m) - 1, range(m))
    return len(combo), combo


def _incidence_matrix(h: Hypergraph) -> np.ndarray:
    """The edges x ground 0/1 int64 incidence matrix; B @ B.T holds the
    pairwise intersection sizes."""
    mat = np.zeros((h.num_edges, h.ground), dtype=np.int64)
    rows = [i for i, e in enumerate(h.edges) for _ in e]
    cols = [v for e in h.edges for v in e]
    mat[rows, cols] = 1
    return mat


def fractional_width_lp(h: Hypergraph) -> LinearProgram:
    """Covering LP: weight edges so each edge sees total weighted intersection >= 1."""
    if h.num_edges == 0:
        raise ValueError("empty hypergraph")
    b = _incidence_matrix(h)
    return LinearProgram(b @ b.T)


def fractional_width(h: Hypergraph) -> float:
    solution = solve_covering_lp(fractional_width_lp(h))
    assert solution.optimal  # diagonal entries |E| >= 1 make large weights feasible
    return float(solution.value)


def incidence_representation(h: Hypergraph) -> VectorRepresentation:
    """Ground-set incidence vectors of the edges, as a representation of the line graph.

    The Gram entries are the pairwise intersection sizes, so the value of
    this representation equals the fractional width of the hypergraph.
    """
    return VectorRepresentation(line_graph(h), _incidence_matrix(h))


class SdrSearch(NamedTuple):
    """Outcome of the exhaustive representative search.

    `transcript_hash` digests the visit order (member index, edge index,
    enter/prune events), so a reported absence is reproducible.
    """

    representatives: tuple[tuple[int, ...], ...] | None
    nodes_visited: int
    transcript_hash: str


def sdr_search(fam: HypergraphFamily, family_cap: int = SDR_FAMILY_CAP) -> SdrSearch:
    """Exhaustive backtracking for one pairwise-disjoint edge per member."""
    if fam.size > family_cap:
        raise CapExceeded(f"representative search capped at {family_cap} members (got {fam.size})")
    member_masks = [h.edge_masks() for h in fam.members]
    transcript = hashlib.sha256()
    nodes = 0
    chosen: list[int] = []

    def recurse(i: int, used: int) -> bool:
        nonlocal nodes
        if i == fam.size:
            return True
        for j, mask in enumerate(member_masks[i]):
            nodes += 1
            if mask & used:
                transcript.update(f"p{i}.{j};".encode())
                continue
            transcript.update(f"e{i}.{j};".encode())
            chosen.append(j)
            if recurse(i + 1, used | mask):
                return True
            chosen.pop()
        transcript.update(f"b{i};".encode())
        return False

    found = recurse(0, 0)
    if found:
        reps = tuple(fam.members[i].edges[j] for i, j in enumerate(chosen))
        used = 0
        for i, j in enumerate(chosen):
            mask = member_masks[i][j]
            assert mask & used == 0  # witness re-check: pairwise disjoint
            used |= mask
        return SdrSearch(reps, nodes, transcript.hexdigest())
    return SdrSearch(None, nodes, transcript.hexdigest())


def find_sdr(fam: HypergraphFamily, family_cap: int = SDR_FAMILY_CAP):
    """The representatives when they exist, else None (search is exhaustive)."""
    return sdr_search(fam, family_cap=family_cap).representatives


def _nonempty_subsets(m: int):
    for mask in range(1, 1 << m):
        yield mask, [i for i in range(m) if mask >> i & 1]


def _one_based(indices) -> tuple[int, ...]:
    return tuple(i + 1 for i in indices)


class FamilySweep(NamedTuple):
    """The one analysis of a family: w* and w of every subfamily union,
    indexed by subset mask (entry 0 unused), the representative search, and
    both width margins of every union in subset-mask order, as rows of
    (label "I=(...)", |I|, w*, w* - (|I| - 1), w, w - (2|I| - 1)), which
    both width verifiers and their comparison read."""

    size: int
    fractional: tuple[float, ...]
    integral: tuple[int, ...]
    search: SdrSearch
    margins: tuple[tuple[str, int, float, float, int, int], ...]
    worst_fractional: float
    first_integral_short: str | None  # label of the first union with w < 2|I| - 1


def sweep_family(
    fam: HypergraphFamily, width_cap: int = WIDTH_SEARCH_CAP, family_cap: int = SDR_FAMILY_CAP
) -> FamilySweep:
    """w* and w of every subfamily union, read from the full union's incidence Gram.

    The union of the members a mask selects keeps their edge blocks in
    member order, so its Gram is the principal submatrix of the full union's
    on those rows, and its edges meet where those Gram entries are positive.
    The Grams of all unions of one size are gathered into one stack, and
    the stacks, smallest unions first, go to one lockstep LP batch; w is
    searched per intersection component and summed.
    The full union is solved again by `fractional_width`, a single LP that
    the scalar simplex loop pivots instead of the lockstep stack, and by
    `width`, as second routes; each must agree exactly with the table.
    """
    if fam.size > family_cap:
        raise CapExceeded(f"subset sweep capped at {family_cap} members (got {fam.size})")
    if any(h.num_edges == 0 for h in fam.members):
        raise ValueError("empty hypergraph")
    whole = fam.union(range(fam.size))
    if whole.num_edges > width_cap:
        raise CapExceeded(f"width search capped at {width_cap} edges (got {whole.num_edges})")
    incidence = _incidence_matrix(whole)
    gram = incidence @ incidence.T
    # meets[j] has bit i set iff edges i and j of the full union intersect
    bits = np.packbits(gram > 0, axis=1, bitorder="little")
    meets = [int.from_bytes(row.tobytes(), "little") for row in bits]
    # select[mask - 1] marks the edges of the union a subset mask selects;
    # per union size r, the Grams of all such unions are one (k, r, r) stack
    owner = np.repeat(np.arange(fam.size), [h.num_edges for h in fam.members])
    full = (1 << fam.size) - 1
    masks = np.arange(1, full + 1)
    select = (masks[:, None] >> owner & 1).astype(bool)
    sizes = select.sum(axis=1)
    weights = gram.astype(np.float64)
    order, stacks = [], []
    for r in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == r)
        picked = select[group].nonzero()[1].reshape(len(group), r)
        order.append(masks[group])
        stacks.append(weights[picked[:, :, None], picked[:, None, :]])
    values = solve_covering_stacks(stacks)
    assert not np.isnan(values).any()  # positive diagonals make large weights feasible
    table = np.zeros(full + 1)
    table[np.concatenate(order)] = values
    fractional = table.tolist()
    # An edge meets only edges of its own component of the union's meets
    # graph, so w of a union is the sum of w over its components.  A union's
    # components are those of the union without its highest member, merged
    # by that member's edges; each distinct component is searched once.
    starts = list(accumulate((h.num_edges for h in fam.members), initial=0))
    components: list[tuple[int, ...]] = [()] * (full + 1)
    cover_size: dict[int, int] = {}
    integral = [0] * (full + 1)
    for mask in range(1, full + 1):
        top = mask.bit_length() - 1
        comps = components[mask ^ (1 << top)]
        for e in range(starts[top], starts[top + 1]):
            merged, rest = 1 << e, []
            for c in comps:
                if c & meets[e]:
                    merged |= c
                else:
                    rest.append(c)
            comps = (*rest, merged)
        components[mask] = comps
        for c in comps:
            if c not in cover_size:
                edges = [e for e in range(whole.num_edges) if c >> e & 1]
                cover_size[c] = len(smallest_cover(meets, c, edges))
        integral[mask] = sum(cover_size[c] for c in comps)
    single = fractional_width(whole)
    if single != fractional[full]:
        raise RuntimeError(f"batched LP gives w* {fractional[full]!r} on the full union, single LP {single!r}")
    direct = width(whole, cap=width_cap)[0]
    if direct != integral[full]:
        raise RuntimeError(f"width table gives w {integral[full]} on the full union, direct search {direct}")
    margins = []
    for mask, indices in _nonempty_subsets(fam.size):
        k = len(indices)
        wstar, w = fractional[mask], integral[mask]
        margins.append((f"I={_one_based(indices)}", k, wstar, wstar - (k - 1), w, w - (2 * k - 1)))
    search = sdr_search(fam, family_cap=family_cap)
    worst = min(row[3] for row in margins)
    short = next((row[0] for row in margins if row[5] < 0), None)
    return FamilySweep(fam.size, tuple(fractional), tuple(integral), search, tuple(margins), worst, short)


def _closing_record(check: str, claim: str, instance: str, search: SdrSearch, violated, slack=None) -> CheckRecord:
    """A condition's last record: where its hypothesis fails, or else whether
    the search found the representatives it promises."""
    if violated is not None:
        passed, detail = True, f"hypothesis not satisfied at {violated}"
    elif search.representatives is not None:
        passed, detail = True, f"representatives {search.representatives}"
    else:
        passed = False
        detail = f"COUNTEREXAMPLE: no representatives (search hash {search.transcript_hash[:16]})"
    return CheckRecord(check=check, claim=claim, instance=instance, slack=slack, passed=passed, detail=detail)


def verify_fractional_width_condition(sweep: FamilySweep, instance: str = "", tol: float = STRICT_TOL) -> list[CheckRecord]:
    """Fractional width above |I|-1 on every subfamily union forces representatives.

    Margins within tol of zero leave the strict hypothesis undecidable from
    floating point, so such families are reported inconclusive rather than
    asserted either way.
    """
    records = []
    borderline = False
    violated = None
    for label, k, value, margin, _, _ in sweep.margins:
        if margin < -tol and violated is None:
            violated = label
        if abs(margin) <= tol:
            borderline = True
        if margin > tol:
            note = "hypothesis margin met"
        elif margin < -tol:
            note = "hypothesis not met"
        else:
            note = "borderline (within tolerance)"
        records.append(
            CheckRecord(
                check="fractional_width_margin",
                claim="margin of w*(union of subfamily) against |I| - 1",
                instance=f"{instance} {label}",
                k=k,
                lhs=value,
                rhs=float(k - 1),
                slack=margin,
                passed=True,
                detail=note,
            )
        )
    claim = "w* margins all positive imply a system of disjoint representatives"
    worst_margin = sweep.worst_fractional
    if violated is None and borderline:
        records.append(
            CheckRecord(
                check="fractional_width_sdr",
                claim=claim,
                instance=instance,
                slack=worst_margin,
                passed=None,
                detail="borderline margin within tolerance; strict hypothesis undecided",
            )
        )
    else:
        records.append(_closing_record("fractional_width_sdr", claim, instance, sweep.search, violated, worst_margin))
    return records


def verify_integral_width_condition(sweep: FamilySweep, instance: str = "") -> list[CheckRecord]:
    """Integral width at least 2|I|-1 on every subfamily union forces representatives."""
    records = [
        CheckRecord(
            check="integral_width_margin",
            claim="margin of w(union of subfamily) against 2|I| - 1",
            instance=f"{instance} {label}",
            k=k,
            lhs=float(value),
            rhs=float(2 * k - 1),
            slack=float(slack),
            passed=True,
            detail="hypothesis margin met" if slack >= 0 else "hypothesis not met",
        )
        for label, k, _, _, value, slack in sweep.margins
    ]
    claim = "w(union) >= 2|I|-1 for all I implies a system of disjoint representatives"
    records.append(_closing_record("integral_width_sdr", claim, instance, sweep.search, sweep.first_integral_short))
    return records


def compare_width_conditions(sweep: FamilySweep, instance: str = "", tol: float = STRICT_TOL) -> list[CheckRecord]:
    """Side-by-side report of the two sufficient conditions on one family."""
    records = verify_fractional_width_condition(sweep, instance=instance, tol=tol)
    records += verify_integral_width_condition(sweep, instance=instance)
    frac_holds = sweep.worst_fractional > tol
    int_holds = sweep.first_integral_short is None
    detail = f"fractional condition: {'met' if frac_holds else 'not met'}; integral condition: {'met' if int_holds else 'not met'}"
    if frac_holds and not int_holds:
        detail += " (separation instance)"
    records.append(
        CheckRecord(
            check="width_condition_comparison",
            claim="which sufficient condition for representatives the family meets",
            instance=instance,
            passed=True,
            detail=detail,
        )
    )
    return records


# -- colorful simplices ------------------------------------------------------


class PartitionedComplex(_Value):
    """A clique complex (via its base graph) with a partition of the vertices.

    For independent-set semantics pass the complement graph as the base, so
    colorful simplices here become colorful independent sets there.
    """

    __slots__ = ("graph", "classes")

    def __init__(self, graph: Graph, classes: Sequence[Sequence[int]]):
        canon = tuple(tuple(sorted(c)) for c in classes)
        if not canon or any(not c for c in canon):
            raise ValueError("classes must be nonempty")
        seen: set[int] = set()
        for c in canon:
            for v in c:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                if not 0 <= v < graph.n:
                    raise ValueError(f"vertex {v} out of range")
                seen.add(v)
        if len(seen) != graph.n:
            raise ValueError("classes must cover every vertex")
        self.graph = graph
        self.classes = canon

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def find_colorful_simplex(pc: PartitionedComplex) -> tuple[int, ...] | None:
    """One vertex per class forming a clique of the base graph, or None."""
    g = pc.graph
    order = sorted(range(pc.num_classes), key=lambda i: len(pc.classes[i]))
    chosen: list[int] = []

    def recurse(level: int) -> bool:
        if level == len(order):
            return True
        for v in pc.classes[order[level]]:
            if all(g.has_edge(v, u) for u in chosen):
                chosen.append(v)
                if recurse(level + 1):
                    return True
                chosen.pop()
        return False

    if recurse(0):
        return tuple(sorted(chosen))
    return None


def verify_colorful_condition(
    pc: PartitionedComplex,
    instance: str = "",
    family_cap: int = SDR_FAMILY_CAP,
    simplex_cap: int = DEFAULT_SIMPLEX_CAP,
) -> list[CheckRecord]:
    """Connectivity at least |I| on every class-union subcomplex forces a
    colorful simplex (one vertex from each class, spanning a clique)."""
    m = pc.num_classes
    if m > family_cap:
        raise CapExceeded(f"subset sweep capped at {family_cap} classes (got {m})")
    records = []
    hypothesis = True
    inconclusive = False
    for mask, indices in _nonempty_subsets(m):
        verts = sorted(v for i in indices for v in pc.classes[i])
        sub = induced_subgraph(pc.graph, verts)
        eta = betti_profile(
            build_flag_complex(sub, max_dim=sub.n - 1, simplex_cap=simplex_cap)
        ).connectivity
        ok = eta.at_least(len(indices))
        if ok is False:
            hypothesis = False
            note = "hypothesis not met"
        elif ok is None:
            inconclusive = True
            note = "undecided on truncated enumeration"
        else:
            note = "hypothesis margin met"
        records.append(
            CheckRecord(
                check="colorful_connectivity_margin",
                claim="margin of eta(induced subcomplex on class union) against |I|",
                instance=f"{instance} I={_one_based(indices)}",
                k=len(indices),
                lhs=float(eta.floor),
                rhs=float(len(indices)),
                slack=float(eta.floor - len(indices)),
                passed=True if ok is not None else None,
                detail=note,
            )
        )
    if not hypothesis:
        records.append(
            CheckRecord(
                check="colorful_simplex",
                claim="connectivity >= |I| on all class unions implies a colorful simplex",
                instance=instance,
                passed=True,
                detail="hypothesis not satisfied",
            )
        )
        return records
    if inconclusive:
        records.append(
            CheckRecord(
                check="colorful_simplex",
                claim="connectivity >= |I| on all class unions implies a colorful simplex",
                instance=instance,
                passed=None,
                detail="connectivity inconclusive on a truncated subcomplex",
            )
        )
        return records
    simplex = find_colorful_simplex(pc)
    records.append(
        CheckRecord(
            check="colorful_simplex",
            claim="connectivity >= |I| on all class unions implies a colorful simplex",
            instance=instance,
            passed=simplex is not None,
            detail=f"colorful simplex {simplex}" if simplex else "COUNTEREXAMPLE: none found",
        )
    )
    return records
