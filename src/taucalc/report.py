"""Deterministic human- and machine-readable reports for deduction runs.

`build_report` gives one `KnotRow` per knot, which the text table and
`to_json` both read.  `to_json` writes the one shape a report has:
`"knots"`, `"total_steps"` and, when certifying, `"certificate"`.  Two
writers are the one statement of the objects in those lists:
`knot_to_json` of a knot and `step_to_json` of a certificate step.  A
step's first premise names the instance it cites; `to_json` encodes that
premise once per distinct cite, in a cache that lives for the one call.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from json.encoder import encode_basestring_ascii as _json_str

from .deduce import Certificate, CertStep, KnotRecord
from .interval import NEG_INF


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


def step_to_json(step: CertStep, cites: dict) -> str:
    """A certificate step as `to_json` writes it in `"certificate"`: the one
    statement of the step schema.  Its premises are the instance the step
    cites, then each value it read.  `cites` maps a cite to its premise,
    encoded, so that a report encodes each cite once.  An interval prints
    no character that JSON escapes."""
    a, b = "\n      ", "\n        "  # the step's keys, its premises
    premises = [_json_str(f"fact {k}.{q} = {v}") for k, q, v in step.reads]
    cite = step.cite
    if cite is not None:
        first = cites.get(cite)
        if first is None:
            first = cites[cite] = _json_str(" ".join(map(str, cite)))
        premises.insert(0, first)
    return (f'{{{a}"index": {step.index},'
            f'{a}"rule": {_json_str(step.rule)},'
            f'{a}"target": {_json_str(step.target)},'
            f'{a}"quantity": {_json_str(step.quantity)},'
            f'{a}"premises": {_listed(premises, a, b)},'
            f'{a}"conclusion": "{step.conclusion}",'
            f'{a}"result": "{step.result}"\n    }}')


def build_report(records: dict[str, KnotRecord],
                 cert: Certificate) -> list[KnotRow]:
    """The rows of the knots in `records` (id -> KnotRecord), sorted by id,
    each counting the steps of `cert` that target it; byte-for-byte
    reproducible from the same inputs (no timestamps)."""
    steps_per_knot = Counter(s.target for s in cert)
    return [knot_row(records[id], steps_per_knot[id]) for id in sorted(records)]


def to_json(rows: list[KnotRow], cert: Certificate, certify: bool) -> str:
    """The `--json` report of `rows`: `json.dumps(indent=2)` of an object
    with the knots, the number of steps in `cert` and, with `certify`, the
    steps themselves.  json.dumps writes indented output with its
    pure-Python encoder, since the C one cannot indent; this writer puts
    each key and list item at its fixed indent and leaves strings to the C
    string encoder json.dumps itself uses."""
    a, b = "\n  ", "\n    "  # the report's keys, the items of its lists
    out = (f'{{{a}"knots": {_listed(list(map(knot_to_json, rows)), a, b)},'
           f'{a}"total_steps": {len(cert)}')
    if certify:
        cites = {}
        steps = [step_to_json(step, cites) for step in cert]
        out += f',{a}"certificate": {_listed(steps, a, b)}'
    return out + "\n}"


def dash(v) -> str:
    """A report value as the text forms print it: `-` for None."""
    return "-" if v is None else str(v)


def render_report(rows: list[KnotRow], total_steps: int) -> str:
    header = f"{'knot':<14} {'tau':<12} {'g4':<12} {'g3':<4} {'tb>=':<5} {'cert':<5} seeds"
    lines = [header, "-" * len(header)]
    for k in rows:
        seeds = ",".join(k.seeds) or "-"
        lines.append(
            f"{k.id:<14} {str(k.tau):<12} {str(k.g4):<12} {dash(k.g3):<4} "
            f"{dash(k.tb_lower):<5} {k.certificate_steps:<5} {seeds}"
        )
    lines.append(f"total certificate steps: {total_steps}")
    return "\n".join(lines)
