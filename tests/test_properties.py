"""Property tests of the fast paths against their references: the report
writer, with its knot and step writers, against json.dumps(indent=2) of
the report's old dicts spelled out here; intervals built without the
endpoint checks (arithmetic and R2's conclusions) against the
constructor; and `propagate`, which re-runs only the instances that read
a narrowed key, against one evaluation of every instance."""

import json
import random
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.deduce import (
    Certificate, CertStep, Cobordism, KnotRecord, Mirror, Presentation, Sum,
    _GenusChain, _instances, propagate)
from taucalc.errors import EmptyIntervalError
from taucalc.interval import NEG_INF, POS_INF, Interval
from taucalc.report import build_report, to_json

from .util import random_consistent_base

ALL_RULES = Path(__file__).parent / "data" / "all_rules.json"

INTS = st.one_of(st.integers(-3, 3), st.integers(),
                 st.integers(-10**300, 10**300))


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
    assert a - b == a + (-b)
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


@given(st.lists(cert_steps(), max_size=3), st.booleans())
def test_step_writer_is_the_old_step_schema(steps, certify):
    old = {"knots": [], "total_steps": len(steps)}
    if certify:
        old["certificate"] = [_old_step_schema(s) for s in steps]
    assert "".join(to_json([], Certificate(steps), certify)) == json.dumps(
        old, indent=2)


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


@given(st.lists(knot_records(), max_size=3), st.data(), st.booleans())
def test_knot_writer_is_the_old_knot_schema(recs, data, certify):
    records = {rec.id: rec for rec in recs}
    targets = data.draw(st.lists(st.sampled_from(sorted(records)),
                                 max_size=5) if records else st.just([]))
    cert = Certificate(data.draw(cert_steps())._replace(index=i, target=t)
                       for i, t in enumerate(targets))
    old = {"knots": [_old_knot_schema(records[id], targets.count(id))
                     for id in sorted(records)],
           "total_steps": len(cert)}
    if certify:
        old["certificate"] = [_old_step_schema(s) for s in cert]
    text = "".join(to_json(build_report(records, cert), cert, certify))
    assert text == json.dumps(old, indent=2)


@given(intervals(), genus_intervals(), genus_intervals())
def test_r2_conclusions_are_valid_intervals(tau, g4, g3):
    # R2 builds its conclusions without the endpoint checks.
    state = {"k": KnotRecord("k", tau=tau, g4=g4, g3=g3)}
    conclusions = [c for _, _, c, _ in _GenusChain("k").implications(state)]
    assert len(conclusions) == 3
    for c in conclusions:
        assert type(c) is Interval and Interval(*c) == c


def _narrowings(fixed):
    """The conclusions of one evaluation of every rule instance of `fixed`
    against its records that narrow a value: none, at a fixpoint."""
    records = fixed.records
    return [(inst.rule, target, qty, c)
            for inst in _instances(fixed)
            for target, qty, c, _ in inst.implications(records)
            if not (c.lo <= getattr(records[target], qty).lo
                    and getattr(records[target], qty).hi <= c.hi)]


@pytest.mark.parametrize("load", [load_bundled_catalog,
                                  lambda: load_factbase(str(ALL_RULES))],
                         ids=["catalog", "all_rules"])
def test_propagate_stops_at_a_fixpoint(load):
    fixed, _ = propagate(load())
    assert _narrowings(fixed) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.data())
def test_propagate_stops_at_a_fixpoint_of_random_bases(seed, size, data):
    # A genus bound at or above |tau| holds for the hidden truth.  A knot
    # with a presentation gets a g4 bound, since its seeds pin g3 at the
    # truth; another knot gets an exact g3, which R2 must carry into g4
    # and then into tau.
    base, truth = random_consistent_base(random.Random(seed), size)
    slack = data.draw(st.dictionaries(st.sampled_from(sorted(truth)),
                                      st.integers(0, 2)))
    base = base.extend(facts=[
        (k, "g4_upper" if base.knot(k).presentations else "g3",
         abs(truth[k]) + d, "") for k, d in slack.items()])
    fixed, _ = propagate(base)
    assert _narrowings(fixed) == []
