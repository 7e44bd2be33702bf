"""Deterministic human- and machine-readable reports for deduction runs.

`build_report` gives one `KnotRow` per knot, which the text table and
`to_json` both read.  `to_json` is the one writer of the one shape a JSON
report has: `"knots"`, `"total_steps"` and, when certifying,
`"certificate"`.  Two writers are the one statement of the objects in
those lists: `knot_to_json` of a knot and `step_to_json` of a
certificate step.  A step's premises name the instance it cites and the
values it read; `to_json` encodes each distinct premise once, in a cache
that lives for the one call.

Every form of a report comes out in the chunks `chunks` cuts, and `cli`
writes each as it comes: no report is held whole as one string, and a
write-through stdout (`python -u`) makes one system call per chunk.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str

from .deduce import Certificate, CertStep, KnotRecord
from .interval import NEG_INF

CHUNK = 256  # the most knots, steps or text lines in one chunk of a report
# A step in `"certificate"`; see `step_to_json`.
_STEP = ('{\n      "index": %s,\n      "rule": %s,\n      "target": %s,'
         '\n      "quantity": %s,\n      "premises": %s,'
         '\n      "conclusion": "[%s, %s]",'
         '\n      "result": "[%s, %s]"\n    }')


class KnotRow(namedtuple(
        "KnotRow", "id tau g4 g3 tb_lower seeds certificate_steps")):
    """A knot as the report prints it: its tau and g4 intervals, g3 if
    exact, tb's finite lower end (else None), the sorted kinds of its
    presentations and the number of certificate steps that target it."""

    __slots__ = ()


def knot_row(rec: KnotRecord, steps: int) -> KnotRow:
    """The row of `rec`, which `steps` certificate steps target."""
    return KnotRow(rec.id, rec.tau, rec.g4,
                   rec.g3.lo if rec.g3.is_exact else None,
                   None if rec.tb.lo == NEG_INF else rec.tb.lo,
                   tuple(sorted({p.kind for p in rec.presentations})), steps)


def _listed(items: list[str], a: str, b: str) -> str:
    """JSON items, each already encoded, as a list whose items sit at
    indent `b` and whose closing bracket sits at `a`."""
    return "[" + b + ("," + b).join(items) + a + "]" if items else "[]"


def knot_to_json(row: KnotRow) -> str:
    """A knot as `to_json` writes it in `"knots"`: the one statement of the
    knot schema.  An interval end prints no character JSON escapes."""
    a, b = "\n      ", "\n        "  # the knot's keys, its list items
    tau, g4, g3, tb = row.tau, row.g4, row.g3, row.tb_lower
    return (f'{{{a}"id": {_json_str(row.id)},'
            f'{a}"tau": [{b}"{tau.lo}",{b}"{tau.hi}"{a}],'
            f'{a}"g4": [{b}"{g4.lo}",{b}"{g4.hi}"{a}],'
            f'{a}"g3": {"null" if g3 is None else g3},'
            f'{a}"tb_lower": {"null" if tb is None else tb},'
            f'{a}"seeds": {_listed(list(map(_json_str, row.seeds)), a, b)},'
            f'{a}"certificate_steps": {row.certificate_steps}\n    }}')


def step_to_json(step: CertStep, encoded: dict) -> str:
    """A certificate step as `to_json` writes it in `"certificate"`, by the
    `_STEP` template: the one statement of the step schema.  Its premises
    are the instance the step cites, then each value it read.  `encoded`
    maps each cite and each (knot, quantity, value) read met so far to its
    premise, encoded, so that a report encodes each once; the two never
    share a key, since a read ends in an Interval and no cite does.  An
    interval prints no character that JSON escapes."""
    index, rule, target, qty, cite, reads, conclusion, result = step
    premises = [] if cite is None else [
        encoded.get(cite)
        or encoded.setdefault(cite, _json_str(" ".join(map(str, cite))))]
    for read in reads:
        premises.append(encoded.get(read) or encoded.setdefault(
            read, _json_str("fact %s.%s = %s" % read)))
    return _STEP % (index, _json_str(rule), _json_str(target), _json_str(qty),
                    _listed(premises, "\n      ", "\n        "),
                    *conclusion, *result)


def build_report(records: dict[str, KnotRecord],
                 cert: Certificate) -> list[KnotRow]:
    """The rows of the knots in `records` (id -> KnotRecord), sorted by id,
    each counting the steps of `cert` that target it; byte-for-byte
    reproducible from the same inputs (no timestamps)."""
    steps_per_knot = Counter(s.target for s in cert)
    return [knot_row(records[id], steps_per_knot[id]) for id in sorted(records)]


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
    """The chunks of `head`, the report's list of `encode` of each of
    `items` at indent 4, and `tail`."""
    if not items:
        return [head + "[]" + tail]
    return chunks(map(encode, items), ",\n    ", head + "[\n    ",
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
    yield from _report_list(f'{{{a}"knots": ', rows, knot_to_json, tail)
    if certify:
        yield from _report_list("", cert, partial(step_to_json, encoded={}),
                                "\n}")


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
