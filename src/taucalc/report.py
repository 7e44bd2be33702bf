"""Deterministic human- and machine-readable reports for deduction runs.

`build_report` gives one `KnotRow` per knot, which the text table and
`to_json` both read.  `to_json` is the one writer of the one shape a JSON
report has: `"knots"`, `"total_steps"` and, when certifying,
`"certificate"`.  Two templates are the one statement of the objects in
those lists: `_KNOT` of a knot and `_STEP` of a certificate step.  One
generator fills each list, `knots_to_json` from the rows and
`steps_to_json` from the certificate, with no helper call per item.  A
step's premises name the instance it cites and the values it read;
`steps_to_json` encodes each distinct premise once, and builds the step
template for each number of premises once, in caches that live for the
one call.

Every form of a report comes out in the chunks `chunks` cuts, and `cli`
writes each as it comes: no report is held whole as one string, and a
write-through stdout (`python -u`) makes one system call per chunk.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str

from .deduce import Certificate, FactBase
from .interval import FORMAT, NEG_INF

CHUNK = 256  # the most knots, steps or text lines in one chunk of a report
# A knot in `"knots"` and a step in `"certificate"`, at the indent each has
# in the report; a step's premises, a list, go between its head and tail.
_KNOT = ('{\n      "id": %s,\n      "tau": [\n        "%s",\n        "%s"'
         '\n      ],\n      "g4": [\n        "%s",\n        "%s"\n      ],'
         '\n      "g3": %s,\n      "tb_lower": %s,\n      "seeds": %s,'
         '\n      "certificate_steps": %s\n    }')
_STEP = ('{\n      "index": %s,\n      "rule": %s,\n      "target": %s,'
         '\n      "quantity": %s,\n      "premises": ',
         f',\n      "conclusion": "{FORMAT}",'
         f'\n      "result": "{FORMAT}"\n    }}')
_READ = "fact %s.%s = " + FORMAT  # a value a step read, as a premise


class KnotRow(namedtuple(
        "KnotRow", "id tau g4 g3 tb_lower seeds certificate_steps")):
    """A knot as the report prints it: its tau and g4 intervals, g3 if
    exact, tb's finite lower end (else None), the sorted kinds of its
    presentations and the number of certificate steps that target it."""

    __slots__ = ()


def knot_row(base: FactBase, id: str, steps: int) -> KnotRow:
    """The row of knot `id` of `base`, which `steps` certificate steps
    target, read off the base's columns."""
    b = base.bounds
    g3, tb, ps = b["g3"][id], b["tb"][id], base.presentations[id]
    # tuple.__new__: no Python-level __new__
    return tuple.__new__(KnotRow, (
        id, b["tau"][id], b["g4"][id], g3.lo if g3.is_exact else None,
        None if tb.lo == NEG_INF else tb.lo,
        tuple(sorted({p.kind for p in ps})) if len(ps) > 1
        else (ps[0].kind,) if ps else (), steps))


def _listed(items) -> str:
    """A list of JSON items, each already encoded, at the indent a knot's
    or a step's list has in the report."""
    return ("[\n        " + ",\n        ".join(items) + "\n      ]" if items
            else "[]")


def knots_to_json(rows):
    """Each of `rows` as `to_json` writes it in `"knots"`, by the `_KNOT`
    template: the one statement of the knot schema.  A row's seeds list is
    encoded once per distinct list, in a cache that lives for the one
    call.  An interval end prints no character JSON escapes."""
    seeds = {}  # a row's seeds -> its JSON list
    for id, tau, g4, g3, tb, kinds, steps in rows:
        s = seeds.get(kinds)
        if s is None:
            s = seeds[kinds] = _listed(list(map(_json_str, kinds)))
        yield _KNOT % (_json_str(id), *tau, *g4, "null" if g3 is None else g3,
                       "null" if tb is None else tb, s, steps)


def steps_to_json(cert: Certificate):
    """Each step of `cert` as `to_json` writes it in `"certificate"`, by
    `_STEP`: the one statement of the step schema.  Its premises are the
    instance the step cites, then each value it read.  `encoded` maps each
    cite and each (knot, quantity, value) read met so far to its premise,
    encoded, and `shapes` each number of premises to its step's template,
    so that the one call encodes each premise and builds each template
    once; a cite and a read never share a key, since a read ends in an
    Interval and no cite does.  An interval prints no character that JSON
    escapes."""
    encoded, shapes = {}, {}
    for index, rule, target, qty, cite, reads, conclusion, result in cert:
        ps = []
        if cite is not None:
            p = encoded.get(cite)
            if p is None:
                p = encoded[cite] = _json_str(" ".join(map(str, cite)))
            ps.append(p)
        for read in reads:
            p = encoded.get(read)
            if p is None:
                k, q, (lo, hi) = read
                p = encoded[read] = _json_str(_READ % (k, q, lo, hi))
            ps.append(p)
        t = shapes.get(len(ps))
        if t is None:
            t = shapes[len(ps)] = _listed(["%s"] * len(ps)).join(_STEP)
        yield t % (index, _json_str(rule), _json_str(target), _json_str(qty),
                   *ps, *conclusion, *result)


def build_report(base: FactBase, cert: Certificate,
                 ids=None) -> list[KnotRow]:
    """The rows of the knots `ids` of `base` (by default every knot),
    sorted by id, each counting the steps of `cert` that target it;
    byte-for-byte reproducible from the same inputs (no timestamps)."""
    steps_per_knot = Counter(s.target for s in cert)
    return [knot_row(base, id, steps_per_knot[id])
            for id in sorted(base.presentations if ids is None else ids)]


def chunks(items, sep: str, head: str = "", tail: str = ""):
    """`head + sep.join(items) + tail`, cut after every `CHUNK` items: the
    one way a report is cut for writing."""
    it = iter(items)
    text = head + sep.join(islice(it, CHUNK))
    while group := list(islice(it, CHUNK)):
        yield text
        text = sep + sep.join(group)
    yield text + tail


def _report_list(head: str, items, encode, tail: str):
    """The chunks of `head`, the report's list of the items `encode(items)`
    yields at indent 4, and `tail`."""
    if not items:
        return [head + "[]" + tail]
    return chunks(encode(items), ",\n    ", head + "[\n    ",
                  "\n  ]" + tail)


def to_json(rows: list[KnotRow], cert: Certificate, certify: bool):
    """The chunks of the `--json` report of `rows`, which joined are
    `json.dumps(indent=2)` of an object with the knots, the number of steps
    in `cert` and, with `certify`, the steps themselves.  json.dumps writes
    indented output with its pure-Python encoder, since the C one cannot
    indent; this writer puts each key and list item at its fixed indent and
    leaves strings to the C string encoder json.dumps itself uses."""
    a = "\n  "  # the report's keys
    tail = f',{a}"total_steps": {len(cert)}'
    tail += f',{a}"certificate": ' if certify else "\n}"
    yield from _report_list(f'{{{a}"knots": ', rows, knots_to_json, tail)
    if certify:
        yield from _report_list("", cert, steps_to_json, "\n}")


def dash(v) -> str:
    """A report value as the text forms print it: `-` for None."""
    return "-" if v is None else str(v)


def render_report(rows: list[KnotRow], total_steps: int):
    """The lines of the text table of `rows`, then its step count."""
    header = f"{'knot':<14} {'tau':<12} {'g4':<12} {'g3':<4} {'tb>=':<5} {'cert':<5} seeds"
    yield header
    yield "-" * len(header)
    for k in rows:
        seeds = ",".join(k.seeds) or "-"
        yield (f"{k.id:<14} {str(k.tau):<12} {str(k.g4):<12} {dash(k.g3):<4} "
               f"{dash(k.tb_lower):<5} {k.certificate_steps:<5} {seeds}")
    yield f"total certificate steps: {total_steps}"
