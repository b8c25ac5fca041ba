"""Value types: one idiom each, and equality and hashing by field values.

Plain records are NamedTuples; types that validate their input are classes
with `__slots__`.  The types that compare by value compare and hash as a
frozen dataclass would: equal when every field is, with the hash of the
tuple of field values.
"""

import dataclasses
import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import flagspectra
from flagspectra import (
    Connectivity,
    Hypergraph,
    HypergraphFamily,
    LinearProgram,
    PartitionedComplex,
    betti_profile,
    build_flag_complex,
    complete_graph,
    cycle_graph,
    sdr_search,
)
from flagspectra.hypergraphs import SdrSearch
from flagspectra.spectral import BettiProfile, CochainIdentityChecker


def package_classes():
    """Every class defined in a flagspectra module, except the exceptions."""
    out = []
    for info in pkgutil.iter_modules(flagspectra.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flagspectra.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and not issubclass(cls, Exception):
                out.append(cls)
    return out


# a precomputation over one complex, not a value
NOT_VALUE_TYPES = {CochainIdentityChecker}


def is_named_tuple(cls) -> bool:
    return issubclass(cls, tuple) and hasattr(cls, "_fields")


class TestOneIdiom:
    def test_classes_found(self):
        names = {cls.__name__ for cls in package_classes()}
        assert {"Graph", "LinearProgram", "FamilySweep", "CheckRecord"} <= names

    @pytest.mark.parametrize("cls", package_classes(), ids=lambda cls: cls.__name__)
    def test_no_dataclass_or_cached_property(self, cls):
        assert not dataclasses.is_dataclass(cls)
        assert not any(isinstance(attr, functools.cached_property) for attr in vars(cls).values())

    @pytest.mark.parametrize(
        "cls", [cls for cls in package_classes() if cls not in NOT_VALUE_TYPES], ids=lambda cls: cls.__name__
    )
    def test_named_tuple_or_slots(self, cls):
        assert is_named_tuple(cls) or "__slots__" in vars(cls)

    def test_slotted_instances_have_no_dict(self):
        g = complete_graph(2)
        for value in (Hypergraph(2, [[0]]), PartitionedComplex(g, [[0], [1]])):
            assert not hasattr(value, "__dict__")


def hypergraph(edges):
    return Hypergraph(4, edges)


# (fields, make equal instance, make a different one); each pair is built
# from separate inputs, so equality cannot come from identity
VALUE_TYPES = {
    "Hypergraph": (
        ("ground", "edges"),
        lambda: hypergraph([[1, 0], [2]]),
        lambda: hypergraph([[0, 1], [3]]),
    ),
    "HypergraphFamily": (
        ("ground", "members"),
        lambda: HypergraphFamily(4, [hypergraph([[0]]), hypergraph([[1, 2]])]),
        lambda: HypergraphFamily(4, [hypergraph([[1, 2]]), hypergraph([[0]])]),
    ),
    "PartitionedComplex": (
        ("graph", "classes"),
        lambda: PartitionedComplex(cycle_graph(4), [[1, 0], [3, 2]]),
        lambda: PartitionedComplex(cycle_graph(4), [[0, 2], [1, 3]]),
    ),
    "Connectivity": (
        ("floor", "exact", "infinite", "scanned"),
        lambda: Connectivity(2, exact=True, infinite=False, scanned=3),
        lambda: Connectivity(2, exact=False, infinite=False, scanned=3),
    ),
    "BettiProfile": (
        ("betti", "mins", "max_dim", "complete"),
        lambda: betti_profile(build_flag_complex(cycle_graph(5))),
        lambda: betti_profile(build_flag_complex(cycle_graph(6))),
    ),
    "SdrSearch": (
        ("representatives", "nodes_visited", "transcript_hash"),
        lambda: sdr_search(HypergraphFamily(2, [Hypergraph(2, [[0]]), Hypergraph(2, [[1]])])),
        lambda: sdr_search(HypergraphFamily(2, [Hypergraph(2, [[0]]), Hypergraph(2, [[0]])])),
    ),
}


class TestValueEquality:
    @pytest.mark.parametrize("name", sorted(VALUE_TYPES))
    def test_equal_by_fields_and_hashed_as_their_tuple(self, name):
        fields, make, make_other = VALUE_TYPES[name]
        a, b, c = make(), make(), make_other()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        assert a != c and not a == c
        assert len({a, b, c}) == 2

    @pytest.mark.parametrize("name", ["Hypergraph", "HypergraphFamily", "PartitionedComplex"])
    def test_slotted_value_unequal_to_its_fields(self, name):
        fields, make, _ = VALUE_TYPES[name]
        a = make()
        assert a != tuple(getattr(a, f) for f in fields)
        assert a != object()

    def test_named_tuple_keyword_construction(self):
        assert BettiProfile(betti=(0,), mins=(1.0,), max_dim=0, complete=True).connectivity == Connectivity(
            2, True, True, 0
        )
        search = SdrSearch(representatives=None, nodes_visited=3, transcript_hash="00")
        assert search.nodes_visited == 3

    def test_identity_types_compare_by_identity(self):
        # types holding arrays keep identity equality, as before
        a = LinearProgram(np.eye(2))
        assert a != LinearProgram(np.eye(2)) and a == a
