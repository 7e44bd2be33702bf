"""Deterministic human- and machine-readable reports for deduction runs.

`build_report` gives one `KnotRow` per knot, which the text table and
`to_json` both read.  Two writers are the one statement of their JSON
objects: `knot_to_json` of a knot and `step_to_json` of a certificate step.
A step's first premise names the instance it cites; `to_json` encodes that
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


def knot_to_json(row: KnotRow, pad: str = "\n") -> str:
    """A knot as `to_json` writes it at indent `pad`: the one statement of
    the knot schema.  An interval end prints no character JSON escapes."""
    a, b = pad + "  ", pad + "    "  # the knot's keys, its list items
    tau, g4, g3, tb = row.tau, row.g4, row.g3, row.tb_lower
    return (f'{{{a}"id": {_json_str(row.id)},'
            f'{a}"tau": [{b}"{tau.lo}",{b}"{tau.hi}"{a}],'
            f'{a}"g4": [{b}"{g4.lo}",{b}"{g4.hi}"{a}],'
            f'{a}"g3": {"null" if g3 is None else g3},'
            f'{a}"tb_lower": {"null" if tb is None else tb},'
            f'{a}"seeds": {_listed(list(map(_json_str, row.seeds)), a, b)},'
            f'{a}"certificate_steps": {row.certificate_steps}{pad}}}')


def step_to_json(step: CertStep, pad: str = "\n",
                 cites: dict | None = None) -> str:
    """A certificate step as `to_json` writes it at indent `pad`: the one
    statement of the step schema.  Its premises are the instance the step
    cites, then each value it read.  `cites` maps a cite to its premise,
    encoded, so that a report encodes each cite once.  An interval prints
    no character that JSON escapes."""
    premises = [_json_str(f"fact {k}.{q} = {v}") for k, q, v in step.reads]
    cite = step.cite
    if cite is not None:
        if cites is None:
            cites = {}
        first = cites.get(cite)
        if first is None:
            first = cites[cite] = _json_str(" ".join(map(str, cite)))
        premises.insert(0, first)
    a, b = pad + "  ", pad + "    "  # the step's keys, its premises
    return (f'{{{a}"index": {step.index},'
            f'{a}"rule": {_json_str(step.rule)},'
            f'{a}"target": {_json_str(step.target)},'
            f'{a}"quantity": {_json_str(step.quantity)},'
            f'{a}"premises": {_listed(premises, a, b)},'
            f'{a}"conclusion": "{step.conclusion}",'
            f'{a}"result": "{step.result}"{pad}}}')


def build_report(records: dict[str, KnotRecord], cert: Certificate, *,
                 certify: bool = False) -> dict:
    """Report of the knots in `records` (id -> KnotRecord), one `KnotRow`
    each; byte-for-byte reproducible from the same inputs (ids sorted, no
    timestamps).  With `certify` it lists the steps themselves."""
    steps_per_knot = Counter(s.target for s in cert)
    out = {"knots": [knot_row(records[id], steps_per_knot[id])
                     for id in sorted(records)],
           "total_steps": len(cert)}
    if certify:
        out["certificate"] = list(cert)
    return out


def to_json(v) -> str:
    """`json.dumps(v, indent=2)` for a tree of str, int, None, list and dict
    with str keys, with KnotRow leaves written by `knot_to_json` and
    CertStep leaves by `step_to_json`; any other type raises TypeError.
    json.dumps renders indented output with its pure-Python encoder, since
    the C one cannot indent; this writer joins each level with its indent,
    writes str, int and None items in place and leaves strings to the C
    string encoder json.dumps itself uses."""
    return _write(v, "\n", {})


def _write(v, pad: str, cites: dict) -> str:
    """`to_json` of `v` at indent `pad`, with the cite premises encoded so
    far in `cites`."""
    t = type(v)
    if t is KnotRow:
        return knot_to_json(v, pad)
    elif t is CertStep:
        return step_to_json(v, pad, cites)
    elif t is dict:
        keys, ends = [_json_str(k) + ": " for k in v], "{}"
        v = v.values()
    elif t is list:
        keys, ends = [""] * len(v), "[]"
    elif t is str:
        return _json_str(v)
    elif t is int:
        return int.__repr__(v)
    elif v is None:
        return "null"
    else:
        raise TypeError(f"to_json: {t.__name__} is not a report value")
    if not keys:
        return ends
    inner = pad + "  "
    items = [k + (_json_str(x) if type(x) is str else
                  int.__repr__(x) if type(x) is int else
                  "null" if x is None else _write(x, inner, cites))
             for k, x in zip(keys, v)]
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def dash(v) -> str:
    """A report value as the text forms print it: `-` for None."""
    return "-" if v is None else str(v)


def render_report(report: dict) -> str:
    lines = []
    header = f"{'knot':<14} {'tau':<12} {'g4':<12} {'g3':<4} {'tb>=':<5} {'cert':<5} seeds"
    lines.append(header)
    lines.append("-" * len(header))
    for k in report["knots"]:
        seeds = ",".join(k.seeds) or "-"
        lines.append(
            f"{k.id:<14} {str(k.tau):<12} {str(k.g4):<12} {dash(k.g3):<4} "
            f"{dash(k.tb_lower):<5} {k.certificate_steps:<5} {seeds}"
        )
    lines.append(f"total certificate steps: {report['total_steps']}")
    return "\n".join(lines)
