"""Reading fact files (taucalc writes none) and the bundled knot catalog.

Fact files are JSON documents with three arrays:

  knots:     [{"id": str, "presentations": [{"kind": str, "value": str}]}]
  facts:     [{"id": str, "kind": "g3"|"g4_upper"|"tb_lower"|"tau_lower"|
               "tau_upper", "value": int, "source": str}]
  relations: [{"kind": "mirror"|"sum"|"crossing_change"|"cobordism"|
               "unknotting"|"double", ...operand fields}]

A fact's `source` is a free-text note, quoted only in the error that a
contradicting fact raises.

The bundled catalog's braid words come from standard braid-word tables;
each is re-validated at load time against its expected strand and signed
crossing counts and the single-component closure check, so a corrupted
entry is a hard error, not a wrong answer.
"""

from __future__ import annotations

import json
import os

from .deduce import FactBase, Relation
from .errors import TaucalcError

_RELATION_TYPES = {cls._field_defaults["kind"]: cls
                   for cls in Relation.__args__}

# Expected (strands, positive letters, negative letters) for the bundled
# braid words, as reported for these knots in genus tables.
_BRAID_SUMMARIES = {
    "unknot": (1, 0, 0),
    "trefoil": (2, 3, 0),
    "10_139": (3, 10, 0),
    "m10_152": (3, 10, 0),
    "m10_161": (3, 9, 1),
    "m10_145": (4, 9, 2),
}


def _array(doc: dict, key: str, owner: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise TaucalcError(f"{owner}: {key!r} must be an array, got {value!r}")
    return value


def _entry(entry, what: str, keyed: bool = True) -> dict:
    """`entry` if it is an object; a `keyed` one needs a string "id"."""
    if not isinstance(entry, dict):
        raise TaucalcError(f"{what} entry must be an object, got {entry!r}")
    if keyed and type(entry.get("id")) is not str:
        raise TaucalcError(f"{what} entry {entry}: 'id' must be a string")
    return entry


def factbase_from_dict(doc: dict) -> FactBase:
    if not isinstance(doc, dict):
        raise TaucalcError(
            f"fact file must be a JSON object, got {type(doc).__name__}")
    rel = None  # the relation entry being read

    def knots():
        for entry in _array(doc, "knots", "fact file"):
            id = _entry(entry, "knot")["id"]
            yield id, _array(entry, "presentations", f"knot {id!r}")

    def facts():
        for fact in _array(doc, "facts", "fact file"):
            f = _entry(fact, "fact")
            yield f["id"], f.get("kind"), f.get("value"), f.get("source", "")

    def relations():
        nonlocal rel
        for rel in _array(doc, "relations", "fact file"):
            kind = _entry(rel, "relation", keyed=False).get("kind")
            if type(kind) is not str or kind not in _RELATION_TYPES:
                raise TaucalcError(f"unknown relation kind {kind!r}")
            fields = {k: v for k, v in rel.items() if k != "kind"}
            yield _RELATION_TYPES[kind](**fields)

    try:
        return FactBase().extend(knots(), facts(), relations())
    except TypeError as e:  # wrong fields, or an unhashable knot operand
        raise TaucalcError(f"bad {rel['kind']} relation {rel}: {e}") from None


def _read_json(path: str):
    """The JSON document in the file at `path`; errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise TaucalcError(f"{path}:{e.lineno}: {e.msg}") from None
        except (ValueError, RecursionError) as e:
            # invalid UTF-8, an int past the digit limit, or deep nesting
            raise TaucalcError(f"{path}: {e}") from None


def load_factbase(path: str) -> FactBase:
    """Load a fact file; errors carry the offending entry."""
    return factbase_from_dict(_read_json(path))


def load_bundled_catalog() -> FactBase:
    """The shipped catalog, revalidated against its braid-word summaries."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.json")
    base = factbase_from_dict(_read_json(path))
    for id, (n, kp, km) in _BRAID_SUMMARIES.items():
        b = next((p.parsed for p in base.knot(id).presentations
                  if p.kind == "braid"), None)
        if b is None:
            raise TaucalcError(f"catalog entry {id} lost its braid word")
        if (b.strands, b.k_plus, b.k_minus) != (n, kp, km):
            raise TaucalcError(
                f"catalog braid word for {id} has summary "
                f"{(b.strands, b.k_plus, b.k_minus)}, expected {(n, kp, km)}")
    return base
