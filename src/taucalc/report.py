"""Deterministic human- and machine-readable reports for deduction runs."""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii as _json_str

from .deduce import Certificate, CertStep, KnotRecord
from .interval import NEG_INF


def _fmt_interval(iv) -> list[str]:
    return [str(iv.lo), str(iv.hi)]


def _premises(step: CertStep) -> list[str]:
    """The instance the step cites, then each value it read."""
    cite = [" ".join(map(str, step.cite))] if step.cite else []
    return cite + [f"fact {k}.{q} = {v}" for k, q, v in step.reads]


def step_to_dict(step: CertStep) -> dict:
    return {
        "index": step.index,
        "rule": step.rule,
        "target": step.target,
        "quantity": step.quantity,
        "premises": _premises(step),
        "conclusion": str(step.conclusion),
        "result": str(step.result),
    }


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
    timestamps)."""
    steps_per_knot = Counter(s.target for s in cert)
    knots = [{**knot_to_dict(records[id]),
              "certificate_steps": steps_per_knot[id]}
             for id in sorted(records)]
    out = {"knots": knots, "total_steps": len(cert)}
    if certify:
        out["certificate"] = [step_to_dict(s) for s in cert]
    return out


def to_json(v, pad: str = "\n") -> str:
    """`json.dumps(v, indent=2)` for a tree of str, int, None, list and dict
    with str keys; any other type raises TypeError.  json.dumps renders
    indented output with its pure-Python encoder, since the C one cannot
    indent; this writer joins each level with its `pad` and leaves strings
    to the C string encoder json.dumps itself uses."""
    t = type(v)
    if t is str:
        return _json_str(v)
    if t is int:
        return int.__repr__(v)
    if v is None:
        return "null"
    inner = pad + "  "
    if t is list:
        items, ends = [to_json(x, inner) for x in v], "[]"
    elif t is dict:
        items = [_json_str(k) + ": " + to_json(x, inner) for k, x in v.items()]
        ends = "{}"
    else:
        raise TypeError(f"to_json: {t.__name__} is not a report value")
    if not items:
        return ends
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
