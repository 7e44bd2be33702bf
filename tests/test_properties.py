"""Property tests of the unchecked fast paths against their checked
references: the report writer and its knot and step writers against
json.dumps(indent=2), and intervals built without the endpoint checks
(arithmetic and R2's conclusions) against the constructor."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from taucalc.deduce import (
    Certificate, CertStep, Cobordism, KnotRecord, Mirror, Presentation, Sum,
    _GenusChain)
from taucalc.errors import EmptyIntervalError
from taucalc.interval import NEG_INF, POS_INF, Interval
from taucalc.report import build_report, to_json

# Every code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()))
INTS = st.one_of(st.integers(-3, 3), st.integers(),
                 st.integers(-10**300, 10**300))
LEAVES = st.one_of(st.none(), INTS, TEXT)
TREES = st.recursive(
    LEAVES,
    lambda tree: st.one_of(st.lists(tree, max_size=4),
                           st.dictionaries(TEXT, tree, max_size=4)),
    max_leaves=25)
BAD_LEAVES = st.one_of(st.booleans(), st.floats(),
                       st.tuples(st.integers()))
# Trees holding at least one bad leaf, at any depth.
BAD_TREES = st.recursive(
    BAD_LEAVES,
    lambda bad: st.one_of(
        st.tuples(st.lists(TREES, max_size=2), bad,
                  st.lists(TREES, max_size=2)).map(
            lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(st.dictionaries(TEXT, TREES, max_size=2), TEXT, bad).map(
            lambda t: {**t[0], t[1]: t[2]})),
    max_leaves=6)


@given(TREES)
def test_to_json_is_json_dumps_indent_2(v):
    assert to_json(v) == json.dumps(v, indent=2)


@given(BAD_TREES)
def test_to_json_refuses_bool_float_and_tuple(v):
    with pytest.raises(TypeError):
        to_json(v)


def test_to_json_refuses_keys_other_than_str():
    with pytest.raises(TypeError):
        to_json({1: "a"})


@st.composite
def intervals(draw):
    lo = draw(st.one_of(st.just(NEG_INF), INTS))
    hi = draw(st.one_of(st.just(POS_INF), INTS))
    if lo != NEG_INF and hi != POS_INF and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


@given(intervals(), intervals())
def test_unchecked_arithmetic_gives_valid_intervals(a, b):
    for r in (-a, a + b, a - b):
        assert type(r) is Interval and Interval(*r) == r
    if a.hi < b.lo or b.hi < a.lo:
        with pytest.raises(EmptyIntervalError):
            a.meet(b)
    else:
        m = a.meet(b)
        assert type(m) is Interval and Interval(*m) == m
        assert m == Interval(max(a.lo, b.lo), min(a.hi, b.hi))


# Knot ids heavy in what JSON must escape: quotes, backslashes, control,
# non-ASCII and lone surrogate characters.
IDS = st.text(st.one_of(st.sampled_from('"\\\u00fc\u2603\ud800\udfff\n'),
                        st.characters(exclude_categories=())), max_size=8)
PRESENTATIONS = st.sampled_from([
    Presentation("torus", "2 3"), Presentation("braid", "2: 1 1 1"),
    Presentation("pretzel", "3 -5 -7")])
CITES = st.one_of(
    st.none(),
    st.tuples(st.just("relation"), st.one_of(
        st.builds(Mirror, IDS, IDS), st.builds(Sum, IDS, IDS, IDS),
        st.builds(Cobordism, IDS, IDS, st.integers(0, 10**30)))),
    st.tuples(st.just("presentation"), IDS, PRESENTATIONS))
QUANTITIES = st.sampled_from(KnotRecord._fields[1:5])


@st.composite
def cert_steps(draw):
    return CertStep(
        draw(st.one_of(st.integers(0, 9), st.integers(0))),
        draw(st.sampled_from(["R1", "R2", "R4", "R5", "R7-torus"])),
        draw(IDS), draw(QUANTITIES), draw(CITES),
        tuple(draw(st.lists(st.tuples(IDS, QUANTITIES, intervals()),
                            max_size=3))),
        draw(intervals()), draw(intervals()))


def _old_step_schema(step):
    """A step's JSON object as it was built before the step writer, with
    each interval spelled out here."""
    def text(iv):
        return f"[{iv.lo}, {iv.hi}]"
    cite = [" ".join(map(str, step.cite))] if step.cite else []
    return {
        "index": step.index,
        "rule": step.rule,
        "target": step.target,
        "quantity": step.quantity,
        "premises": cite + [f"fact {k}.{q} = {text(v)}"
                            for k, q, v in step.reads],
        "conclusion": text(step.conclusion),
        "result": text(step.result),
    }


@given(st.lists(cert_steps(), min_size=1, max_size=3))
def test_step_writer_is_the_old_step_schema(steps):
    report = {"knots": [], "total_steps": len(steps), "certificate": steps}
    old = {**report, "certificate": [_old_step_schema(s) for s in steps]}
    assert to_json(report) == json.dumps(old, indent=2)
    assert to_json(steps[0]) == json.dumps(old["certificate"][0], indent=2)


@st.composite
def genus_intervals(draw):
    """A value a record's g4 or g3 can hold: an interval inside [0, inf]."""
    lo = draw(st.one_of(st.integers(0, 3), st.integers(0),
                        st.integers(0, 10**300)))
    hi = draw(st.one_of(st.just(POS_INF), st.integers(lo, lo + 3),
                        st.integers(lo)))
    return Interval(lo, hi)


# One presentation of each kind.
KINDS = [Presentation("torus", "2 3"), Presentation("braid", "2: 1 1 1"),
         Presentation("pretzel", "3 -5 -7"),
         Presentation("grid", "5\nX: 4 0 1 2 3\nO: 1 2 3 4 0\n")]


@st.composite
def knot_records(draw):
    """A record as a run can leave it: g3 exact or not, tb's lower end
    -inf or finite, and 0-4 presentations, kinds repeating."""
    g3 = draw(st.one_of(genus_intervals(),
                        st.integers(0).map(Interval.exact)))
    return KnotRecord(draw(IDS), draw(intervals()), draw(genus_intervals()),
                      g3, draw(intervals()),
                      tuple(draw(st.lists(st.sampled_from(KINDS),
                                          max_size=4))))


def _old_knot_schema(rec, steps):
    """A knot's JSON object as it was built before the knot writer, with
    each field spelled out here."""
    return {
        "id": rec.id,
        "tau": [str(rec.tau.lo), str(rec.tau.hi)],
        "g4": [str(rec.g4.lo), str(rec.g4.hi)],
        "g3": rec.g3.lo if rec.g3.lo == rec.g3.hi else None,
        "tb_lower": None if rec.tb.lo == NEG_INF else rec.tb.lo,
        "seeds": sorted({p.kind for p in rec.presentations}),
        "certificate_steps": steps,
    }


@given(st.lists(knot_records(), max_size=3), st.data())
def test_knot_writer_is_the_old_knot_schema(recs, data):
    records = {rec.id: rec for rec in recs}
    targets = data.draw(st.lists(st.sampled_from(sorted(records)),
                                 max_size=5) if records else st.just([]))
    cert = Certificate(data.draw(cert_steps())._replace(index=i, target=t)
                       for i, t in enumerate(targets))
    report = build_report(records, cert, certify=True)
    old = {"knots": [_old_knot_schema(records[id], targets.count(id))
                     for id in sorted(records)],
           "total_steps": len(cert),
           "certificate": [_old_step_schema(s) for s in cert]}
    assert to_json(report) == json.dumps(old, indent=2)
    if records:
        assert to_json(report["knots"][0]) == json.dumps(old["knots"][0],
                                                         indent=2)


@given(intervals(), genus_intervals(), genus_intervals())
def test_r2_conclusions_are_valid_intervals(tau, g4, g3):
    # R2 builds its conclusions without the endpoint checks.
    state = {"k": KnotRecord("k", tau=tau, g4=g4, g3=g3)}
    conclusions = [c for _, _, c, _ in _GenusChain("k").implications(state)]
    assert len(conclusions) == 3
    for c in conclusions:
        assert type(c) is Interval and Interval(*c) == c
