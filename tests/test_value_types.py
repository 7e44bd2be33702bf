"""The immutable value types: named tuples that validate on construction."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import taucalc
from taucalc.braid import BraidWord
from taucalc.deduce import (
    CertStep,
    Cobordism,
    CrossingChange,
    Double,
    Fact,
    KnotRecord,
    Mirror,
    Presentation,
    Sum,
    Unknotting,
)
from taucalc.families import PretzelParams, TorusParams
from taucalc.grid import GridDiagram
from taucalc.interval import Interval

# Each relation with its repr, the form certificate premises print, and
# its knots: the fields other than its counts and `kind`.
RELATIONS = [
    (Mirror("a", "b"), "Mirror(a='a', b='b', kind='mirror')", ("a", "b")),
    (Sum("a", "b", "c"), "Sum(a='a', b='b', c='c', kind='sum')",
     ("a", "b", "c")),
    (CrossingChange("p", "m"),
     "CrossingChange(plus='p', minus='m', kind='crossing_change')",
     ("p", "m")),
    (Cobordism("a", "b", 2),
     "Cobordism(a='a', b='b', genus=2, kind='cobordism')", ("a", "b")),
    (Unknotting("k", 1, 0),
     "Unknotting(knot='k', positive=1, negative=0, kind='unknotting')",
     ("k",)),
    (Double("c", "w"),
     "Double(companion='c', result='w', iterations=1, kind='double')",
     ("c", "w")),
]

# Each value type, built twice from equal fields.
MAKERS = [
    lambda: Interval(0, 1),
    lambda: KnotRecord("k"),
    lambda: Fact("k", "g3", 1),
    lambda: Mirror("a", "b"),
    lambda: Sum("a", "b", "c"),
    lambda: CrossingChange("p", "m"),
    lambda: Cobordism("a", "b", 2),
    lambda: Unknotting("k", 1, 0),
    lambda: Double("c", "w", 2),
    lambda: CertStep(0, "R1", "b", "tau", ("relation", Mirror("a", "b")),
                     (("a", "tau", Interval(1, 1)),), Interval(-1, -1),
                     Interval(-1, -1)),
    lambda: BraidWord(3, [1, -2]),
    lambda: GridDiagram(2, [0, 1], [1, 0]),
    lambda: TorusParams(2, 3),
    lambda: PretzelParams([-3, -3, -3]),
    lambda: Presentation("torus", "2 3"),
]
IDS = [type(make()).__name__ for make in MAKERS]
REL_IDS = [type(r).__name__ for r, _, _ in RELATIONS]


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_setting_an_attribute_raises(make):
    v = make()
    with pytest.raises(AttributeError):
        setattr(v, v._fields[0], v[0])
    with pytest.raises(AttributeError):
        v.extra = 1


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_copy_and_pickle_round_trip(make):
    v = make()
    assert copy.deepcopy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v


@pytest.mark.parametrize("rel,text", [r[:2] for r in RELATIONS], ids=REL_IDS)
def test_relation_repr(rel, text):
    assert repr(rel) == text


@pytest.mark.parametrize("rel,knots", [r[::2] for r in RELATIONS],
                         ids=REL_IDS)
def test_relation_knots(rel, knots):
    assert rel.knots == knots


@pytest.mark.parametrize("rel", [r for r, _, _ in RELATIONS], ids=REL_IDS)
def test_relation_kind_cannot_change(rel):
    other = "sum" if rel.kind == "mirror" else "mirror"
    with pytest.raises(TypeError):  # Mirror("a", "b", "sum") among them
        type(rel)(*rel[:-1], other)
    assert type(rel)(*rel) == rel  # its own kind is accepted


def test_remaining_dataclasses():
    # FactBase alone: bench/tracing.py derives a base with its relations
    # reversed by dataclasses.replace.
    found = set()
    for info in pkgutil.iter_modules(taucalc.__path__):
        mod = importlib.import_module(f"taucalc.{info.name}")
        found |= {name for name, obj in vars(mod).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == mod.__name__}
    assert found == {"FactBase"}
