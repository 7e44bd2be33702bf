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
    FactBase,
    KnotRecord,
    Mirror,
    Presentation,
    Sum,
    Unknotting,
    _GenusChain,
)
from taucalc.errors import EmptyIntervalError, TaucalcError
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
    lambda: _GenusChain("k"),
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


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_replace_with_no_change_is_equal(make):
    v = make()
    assert v._replace() == v and type(v)._make(v) == v


# A field change that each checked type refuses, with the error its
# constructor raises for it and a pattern its message matches.  The
# checks live in each `__new__` alone: `_replace` and `_make` are
# namedtuple's own and do not run them, and `src/` calls them only on
# a KnotRow (see tests/test_unused_names.py).
BAD_CHANGES = [
    (Interval(0, 1), {"lo": 5}, EmptyIntervalError, None),
    (Interval(0, 1), {"hi": 1.5}, TypeError, None),
    (Interval(0, 1), {"lo": True}, TypeError, None),
    *((r, {"kind": "sum" if r.kind == "mirror" else "mirror"}, TypeError, None)
      for r, _, _ in RELATIONS),
    (Cobordism("a", "b", 2), {"genus": -1}, TaucalcError,
     "genus must be an integer >= 0"),
    (Unknotting("k", 1, 0), {"negative": True}, TaucalcError,
     "negative must be an integer >= 0"),
    (Double("c", "w"), {"iterations": 0}, TaucalcError,
     "iterations must be an integer >= 1"),
    (BraidWord(3, [1, -2]), {"letters": (3,)}, TaucalcError,
     "letter 3 out of range"),
    (GridDiagram(2, [0, 1], [1, 0]), {"os": (0, 0)}, TaucalcError,
     "O columns are not a permutation"),
    (TorusParams(2, 3), {"q": 4}, TaucalcError, r"T\(2,4\) is a link"),
    (PretzelParams([-3, -3, -3]), {"twists": ()}, TaucalcError,
     "pretzel needs at least one twist region"),
    (Presentation("torus", "2 3"), {"value": "2 4"}, TaucalcError,
     r"T\(2,4\) is a link"),
    (Presentation("torus", "2 3"), {"kind": "knot"}, TaucalcError,
     "unknown presentation kind 'knot'"),
]


@pytest.mark.parametrize("v,change,error,match", BAD_CHANGES,
                         ids=[type(v).__name__ for v, *_ in BAD_CHANGES])
def test_replace_checks_like_construction(v, change, error, match):
    # A changed field is refused where every value is built: its class.
    fields = {**v._asdict(), **change}
    if isinstance(v, Presentation):  # built from kind and value alone
        fields = {f: fields[f] for f in ("kind", "value")}
    with pytest.raises(error, match=match):
        type(v)(**fields)


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
    # It holds what propagate and replay read, not the input facts: each
    # knot's presentations, one column of bounds per quantity, relations.
    assert [f.name for f in dataclasses.fields(FactBase)] == [
        "presentations", "bounds", "relations"]
