"""Layer tracing from outside the program.

The tracer wraps public functions of flagspectra's modules and rebinds every
reference to each one across all flagspectra module namespaces, because
modules import names directly (graphs, spectral and cli each hold their own
`symmetric_eigenvalues`).  Every call records a span: name, start, end,
parent span and request id.  Spans stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover and
minus the tracer's own bookkeeping for those children, so the cost of
hashing inputs is not charged to the caller's layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None = None
    tare: float = 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals and its tare."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(max(0.0, span.end - span.start - covered - span.tare))
    return out


def distinct_ratio(keys: list) -> float:
    """Distinct inputs divided by calls; 0 when there were no calls."""
    return len(set(keys)) / len(keys) if keys else 0.0


# -- what each traced function measures ----------------------------------------


def _matrix_key(a) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{a.shape}{a.dtype}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _graph_key(g, max_dim) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{g.n};{max_dim};{g.sorted_edges()}".encode())
    return h.hexdigest()


def _eig(args, kwargs, result):
    import numpy as np

    a = np.asarray(args[0] if args else kwargs["matrix"])
    n = a.shape[0]
    return {"work": n**3}, {"dim_max": n}, _matrix_key(a)


def _rank(args, kwargs, result):
    import numpy as np

    a = np.asarray(args[0] if args else kwargs["matrix"])
    dim = max(a.shape) if a.ndim == 2 else 0
    return {"cells": int(a.size)}, {"dim_max": dim}, None


def _complex(args, kwargs, result):
    return {"simplices": sum(result.counts())}, {}, _graph_key(result.graph, result.max_dim)


def _array_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}, {}, None


def _betti(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    return {}, {}, _graph_key(x.graph, x.max_dim)


def _lp(args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = lp.matrix.shape
    return {"cells": rows * cols}, {"rows_max": rows}, None


def _sdr(args, kwargs, result):
    return {"nodes_visited": result.nodes_visited}, {}, None


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}, {}, None


# (metric group, module, function, measure); a group is "<layer>.<name>"
TRACED = (
    ("linalg.symmetric_eigenvalues", "flagspectra.linalg", "symmetric_eigenvalues", _eig),
    ("linalg.integer_rank", "flagspectra.linalg", "integer_rank", _rank),
    ("complexes.build_flag_complex", "flagspectra.complexes", "build_flag_complex", _complex),
    ("complexes.coboundary_matrix", "flagspectra.complexes", "coboundary_matrix", _array_bytes),
    ("spectral.hodge_laplacian", "flagspectra.spectral", "hodge_laplacian", _array_bytes),
    ("spectral.betti_profile", "flagspectra.spectral", "betti_profile", _betti),
    ("spectral.verifiers", "flagspectra.spectral", "verify_eigenvalue_recursion", None),
    ("spectral.verifiers", "flagspectra.spectral", "verify_vanishing_threshold", None),
    ("spectral.verifiers", "flagspectra.spectral", "verify_facet_degree_bound", None),
    ("graphs.laplacian_spectrum", "flagspectra.graphs", "laplacian_spectrum", None),
    ("graphs.generate", "flagspectra.graphs", "random_gnp", None),
    ("graphs.generate", "flagspectra.graphs", "complement", None),
    ("graphs.generate", "flagspectra.graphs", "cycle_graph", None),
    ("graphs.generate", "flagspectra.graphs", "turan_graph", None),
    ("lp.solve_covering_lp", "flagspectra.lp", "solve_covering_lp", _lp),
    ("domination.exact_search", "flagspectra.domination", "domination_number", None),
    ("domination.exact_search", "flagspectra.domination", "total_domination_number", None),
    ("domination.exact_search", "flagspectra.domination", "independent_domination_number", None),
    ("domination.bounds", "flagspectra.domination", "fractional_strong_domination", None),
    ("domination.bounds", "flagspectra.domination", "edge_incidence_representation", None),
    ("domination.bounds", "flagspectra.domination", "representation_value", None),
    ("domination.bounds", "flagspectra.domination", "best_representation_value", None),
    ("domination.bounds", "flagspectra.domination", "verify_gram_row_bound", None),
    ("domination.bounds", "flagspectra.domination", "verify_spectral_connectivity_bound", None),
    ("domination.bounds", "flagspectra.domination", "verify_representation_connectivity_bound", None),
    ("hypergraphs.width", "flagspectra.hypergraphs", "width", None),
    ("hypergraphs.fractional_width", "flagspectra.hypergraphs", "fractional_width", None),
    ("hypergraphs.sdr_search", "flagspectra.hypergraphs", "sdr_search", _sdr),
    ("hypergraphs.verifiers", "flagspectra.hypergraphs", "verify_fractional_width_condition", None),
    ("hypergraphs.verifiers", "flagspectra.hypergraphs", "verify_integral_width_condition", None),
    ("hypergraphs.verifiers", "flagspectra.hypergraphs", "compare_width_conditions", None),
    ("reports.serialize", "flagspectra.reports", "records_to_json_lines", _text_bytes),
    ("reports.serialize", "flagspectra.reports", "records_to_csv", _text_bytes),
    ("cli.main", "flagspectra.cli", "main", None),
    ("corpus.generate", "flagspectra.corpus", "gnp_corpus", None),
    ("corpus.generate", "flagspectra.corpus", "turan_corpus", None),
    ("corpus.generate", "flagspectra.corpus", "cycle_corpus", None),
    ("corpus.generate", "flagspectra.corpus", "family_corpus", None),
)


# The per-layer metrics a traced run prints: (name, unit, better).
PER_LAYER = (
    ("linalg.symmetric_eigenvalues.calls", "count", "lower"),
    ("linalg.symmetric_eigenvalues.self_s", "s", "lower"),
    ("linalg.symmetric_eigenvalues.dim_max", "rows", "lower"),
    ("linalg.symmetric_eigenvalues.work", "n3", "lower"),
    ("linalg.symmetric_eigenvalues.distinct_ratio", "ratio", "higher"),
    ("linalg.integer_rank.calls", "count", "lower"),
    ("linalg.integer_rank.self_s", "s", "lower"),
    ("linalg.integer_rank.cells", "cells", "lower"),
    ("linalg.integer_rank.dim_max", "rows", "lower"),
    ("complexes.build_flag_complex.calls", "count", "lower"),
    ("complexes.build_flag_complex.self_s", "s", "lower"),
    ("complexes.build_flag_complex.simplices", "count", "lower"),
    ("complexes.build_flag_complex.distinct_ratio", "ratio", "higher"),
    ("complexes.coboundary_matrix.calls", "count", "lower"),
    ("complexes.coboundary_matrix.self_s", "s", "lower"),
    ("complexes.coboundary_matrix.bytes", "B", "lower"),
    ("spectral.hodge_laplacian.calls", "count", "lower"),
    ("spectral.hodge_laplacian.self_s", "s", "lower"),
    ("spectral.hodge_laplacian.bytes", "B", "lower"),
    ("spectral.betti_profile.calls", "count", "lower"),
    ("spectral.betti_profile.self_s", "s", "lower"),
    ("spectral.betti_profile.distinct_ratio", "ratio", "higher"),
    ("spectral.verifiers.self_s", "s", "lower"),
    ("graphs.laplacian_spectrum.calls", "count", "lower"),
    ("graphs.laplacian_spectrum.self_s", "s", "lower"),
    ("graphs.generate.self_s", "s", "lower"),
    ("lp.solve_covering_lp.calls", "count", "lower"),
    ("lp.solve_covering_lp.self_s", "s", "lower"),
    ("lp.solve_covering_lp.cells", "cells", "lower"),
    ("lp.solve_covering_lp.rows_max", "rows", "lower"),
    ("domination.exact_search.calls", "count", "lower"),
    ("domination.exact_search.self_s", "s", "lower"),
    ("domination.self_s", "s", "lower"),
    ("hypergraphs.width.calls", "count", "lower"),
    ("hypergraphs.width.self_s", "s", "lower"),
    ("hypergraphs.fractional_width.calls", "count", "lower"),
    ("hypergraphs.sdr_search.calls", "count", "lower"),
    ("hypergraphs.sdr_search.self_s", "s", "lower"),
    ("hypergraphs.sdr_search.nodes_visited", "count", "lower"),
    ("hypergraphs.verifiers.self_s", "s", "lower"),
    ("reports.serialize.self_s", "s", "lower"),
    ("reports.serialize.bytes", "B", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("corpus.generate.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


GROUP_OF = {span_name(module, fn): group for group, module, fn, _ in TRACED}


@dataclass
class Tracer:
    """Spans and per-group counters of one traced run; `request` tags new spans."""

    spans: list[Span] = field(default_factory=list)
    sums: dict = field(default_factory=lambda: defaultdict(float))
    maxes: dict = field(default_factory=lambda: defaultdict(float))
    keys: dict = field(default_factory=lambda: defaultdict(list))
    request: int | None = None
    _stack: list[int] = field(default_factory=list)
    _bindings: list = field(default_factory=list)

    def wrap(self, name: str, group: str, fn, measure):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else None
            span = Span(name, 0.0, 0.0, parent, self.request)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                sums, maxes, key = measure(args, kwargs, result)
                for metric, value in sums.items():
                    self.sums[f"{group}.{metric}"] += value
                for metric, value in maxes.items():
                    slot = f"{group}.{metric}"
                    self.maxes[slot] = max(self.maxes[slot], value)
                if key is not None:
                    self.keys[group].append(key)
            if parent is not None:
                spans[parent].tare += (span.start - entered) + (clock() - span.end)
            return result

        return traced

    def bind(self) -> None:
        """Wrap every traced function and find each flagspectra reference to it."""
        for _, module, _, _ in TRACED:
            importlib.import_module(module)
        modules = [m for name, m in list(sys.modules.items()) if name == "flagspectra" or name.startswith("flagspectra.")]
        for group, module, function, measure in TRACED:
            original = getattr(sys.modules[module], function)
            wrapper = self.wrap(span_name(module, function), group, original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-group calls and self time, plus each group's measured sums, maxes and distinct ratio."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            group = GROUP_OF[span.name]
            out[f"{group}.calls"] += 1
            out[f"{group}.self_s"] += own
            out[f"{span.name.split('.', 1)[0]}.self_s"] += own
        out.update(self.sums)
        out.update(self.maxes)
        for group, keys in self.keys.items():
            out[f"{group}.distinct_ratio"] = distinct_ratio(keys)
        return out
