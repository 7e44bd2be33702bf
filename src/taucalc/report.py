"""Deterministic human- and machine-readable reports for deduction runs."""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

from .deduce import Certificate, CertStep, KnotRecord
from .interval import NEG_INF


def _fmt_interval(iv) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def step_to_json(step: CertStep, pad: str = "\n") -> str:
    """A certificate step as `to_json` writes it at indent `pad`: the one
    statement of the step schema.  Its premises are the instance the step
    cites, then each value it read.  An interval prints no character that
    JSON escapes."""
    premises = [" ".join(map(str, step.cite))] if step.cite else []
    premises += [f"fact {k}.{q} = {v}" for k, q, v in step.reads]
    a, b = pad + "  ", pad + "    "  # the step's keys, its premises
    listed = ("[" + b + ("," + b).join(map(_json_str, premises)) + a + "]"
              if premises else "[]")
    return (f'{{{a}"index": {step.index},'
            f'{a}"rule": {_json_str(step.rule)},'
            f'{a}"target": {_json_str(step.target)},'
            f'{a}"quantity": {_json_str(step.quantity)},'
            f'{a}"premises": {listed},'
            f'{a}"conclusion": "{step.conclusion}",'
            f'{a}"result": "{step.result}"{pad}}}')


def knot_to_dict(rec: KnotRecord) -> dict:
    """A knot as the report prints it: g3 if exact, tb's finite lower end."""
    return {
        "id": rec.id,
        "tau": _fmt_interval(rec.tau),
        "g4": _fmt_interval(rec.g4),
        "g3": rec.g3.lo if rec.g3.is_exact else None,
        "tb_lower": None if rec.tb.lo == NEG_INF else rec.tb.lo,
        "seeds": sorted({p.kind for p in rec.presentations}),
    }


def build_report(records: dict[str, KnotRecord], cert: Certificate, *,
                 certify: bool = False) -> dict:
    """JSON-ready report of the knots in `records` (id -> KnotRecord);
    byte-for-byte reproducible from the same inputs (ids sorted, no
    timestamps).  With `certify` it lists the steps themselves, which
    `to_json` writes with `step_to_json`."""
    steps_per_knot = Counter(s.target for s in cert)
    knots = [{**knot_to_dict(records[id]),
              "certificate_steps": steps_per_knot[id]}
             for id in sorted(records)]
    out = {"knots": knots, "total_steps": len(cert)}
    if certify:
        out["certificate"] = list(cert)
    return out


def to_json(v, pad: str = "\n") -> str:
    """`json.dumps(v, indent=2)` for a tree of str, int, None, list and dict
    with str keys, with CertStep leaves written by `step_to_json`; any
    other type raises TypeError.  json.dumps renders indented output with
    its pure-Python encoder, since the C one cannot indent; this writer
    joins each level with its `pad`, writes str, int and None items in
    place and leaves strings to the C string encoder json.dumps itself
    uses."""
    t = type(v)
    if t is dict:
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
    elif t is CertStep:
        return step_to_json(v, pad)
    else:
        raise TypeError(f"to_json: {t.__name__} is not a report value")
    if not keys:
        return ends
    inner = pad + "  "
    items = [k + (_json_str(x) if type(x) is str else
                  int.__repr__(x) if type(x) is int else
                  "null" if x is None else to_json(x, inner))
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
        tau = f"[{k['tau'][0]}, {k['tau'][1]}]"
        g4 = f"[{k['g4'][0]}, {k['g4'][1]}]"
        seeds = ",".join(k["seeds"]) or "-"
        lines.append(
            f"{k['id']:<14} {tau:<12} {g4:<12} {dash(k['g3']):<4} "
            f"{dash(k['tb_lower']):<5} {k['certificate_steps']:<5} {seeds}"
        )
    lines.append(f"total certificate steps: {report['total_steps']}")
    return "\n".join(lines)
