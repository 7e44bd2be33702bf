"""Property-based fuzzing of the fact-file boundary: whatever the document,
`tau deduce` exits 0, 2 or 3 and never raises, in text or --json form.  And
of certificates: a step with one field taken from another step replays, or
`replay` names that step."""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from taucalc import catalog
from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.cli import main
from taucalc.deduce import Certificate, CertStep, propagate, replay
from taucalc.errors import BrokenStepError

from .util import random_consistent_base

CATALOG = json.loads((Path(catalog.__file__).parent / "data/catalog.json")
                     .read_text(encoding="utf-8"))
BAD_VALUES = [None, True, 1.5, "x", [], {}, -1, "9" * 5000 + ": 1"]
FIELD_NAMES = ["knots", "facts", "relations", "presentations", "id", "kind",
               "value", "source", "a", "b", "c", "plus", "minus", "genus",
               "knot", "positive", "negative", "companion", "result",
               "iterations"]
KIND_NAMES = ["braid", "grid", "torus", "pretzel", "g3", "g4_upper",
              "tb_lower", "tau_lower", "tau_upper", "mirror", "sum",
              "crossing_change", "cobordism", "unknotting", "double"]
# Any code point, and often a lone surrogate: a knot id is any JSON string,
# and an unbiased draw gives a surrogate too seldom to reach the report.
CHARS = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
FUZZ_SETTINGS = settings(max_examples=200, derandomize=True, database=None,
                         deadline=None)


def _paths(node, path=()):
    """Path of every value below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


PATHS = list(_paths(CATALOG))
KIND_PATHS = [p for p in PATHS if p[-1] == "kind"]
KNOT_IDS = [k["id"] for k in CATALOG["knots"]]


def _renamed(node, old: str, new: str):
    """`node` with every string `old` in it replaced by `new`."""
    if isinstance(node, dict):
        return {k: _renamed(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_renamed(v, old, new) for v in node]
    return new if node == old else node


@st.composite
def mutated_catalog(draw):
    """The bundled catalog with one key dropped, one value replaced by a
    wrong-typed or negative one, one kind renamed, or one knot renamed
    throughout."""
    op = draw(st.sampled_from(["drop", "set", "rename", "rename-knot"]))
    if op == "rename-knot":
        return _renamed(CATALOG, draw(st.sampled_from(KNOT_IDS)),
                        draw(st.text(CHARS, max_size=8)))
    doc = copy.deepcopy(CATALOG)
    *head, last = draw(st.sampled_from(KIND_PATHS if op == "rename"
                                       else PATHS))
    parent = doc
    for k in head:
        parent = parent[k]
    if op == "drop":
        del parent[last]
    elif op == "set":
        parent[last] = draw(st.sampled_from(BAD_VALUES))
    else:
        parent[last] = draw(st.text(CHARS, max_size=8))
    return doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(CHARS, max_size=6) | st.sampled_from(KIND_NAMES),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELD_NAMES) | st.text(CHARS, max_size=3), inner,
        max_size=5),
    max_leaves=30)
# Shaped like a fact file down to its entries, with arbitrary fields.
fact_files = st.fixed_dictionaries({}, optional={
    key: st.lists(st.dictionaries(st.sampled_from(FIELD_NAMES), json_values,
                                  max_size=5), max_size=4)
    for key in ("knots", "facts", "relations")})


def _deduce_exit_code(doc, flags) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "facts.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        # A fuzzed base may climb by one per step (e.g. tau(a) = tau(a) + 1);
        # a small budget ends it fast.  Standard output is as strict as a
        # real one: it refuses what utf-8 cannot encode.
        with mock.patch.dict(os.environ, {"TAU_STEP_BUDGET": "10000"}), \
                contextlib.redirect_stdout(
                    io.TextIOWrapper(io.BytesIO(), encoding="utf-8")), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(["deduce", path, *flags])


# The output form, drawn per example: the text report with its steps, or
# --json.
FORMS = st.sampled_from([["--certify"], ["--json"]])


@FUZZ_SETTINGS
@given(mutated_catalog(), FORMS)
def test_mutated_catalog_exits_cleanly(doc, flags):
    assert _deduce_exit_code(doc, flags) in (0, 2, 3)


@FUZZ_SETTINGS
@given(json_values | fact_files, FORMS)
def test_arbitrary_json_exits_cleanly(doc, flags):
    assert _deduce_exit_code(doc, flags) in (0, 2, 3)


CERTIFIED = [(base, propagate(base)[1]) for base in (
    load_bundled_catalog(),
    load_factbase(Path(__file__).parent / "data/all_rules.json"),
    random_consistent_base(random.Random(0))[0])]


@FUZZ_SETTINGS
@given(st.data())
def test_mutated_certificate_step_is_named(data):
    base, cert = data.draw(st.sampled_from(CERTIFIED))
    i = data.draw(st.integers(0, len(cert) - 1))
    field = data.draw(st.sampled_from(CertStep._fields))
    donor = data.draw(st.sampled_from(cert))
    step = cert[i]._replace(**{field: getattr(donor, field)})
    try:
        replay(Certificate(step if k == i else s
                           for k, s in enumerate(cert)), base)
    except BrokenStepError as e:
        # A rule instance may conclude one interval for two quantities
        # (a seed pinning tau and g4 to 0): a step moved to the other
        # quantity is then a valid step, and the step it displaced fails.
        assert e.step_index == i or (field == "quantity"
                                     and e.step_index > i)
    else:
        assert field not in ("reads", "conclusion", "result") \
            or step == cert[i]
