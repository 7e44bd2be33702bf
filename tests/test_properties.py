"""Property tests of the fast paths against their references: the report
writer, with its knot and step writers, against json.dumps(indent=2) of
the report's old dicts spelled out here; intervals built without the
endpoint checks (arithmetic and R2's conclusions) against the
constructor; `propagate`, which re-runs only the instances that read a
narrowed key, against one evaluation of every instance, also on bases
whose relations repeat a knot; and every rule instance, on distinct or
repeated knots, which `propagate` does not re-run on its own narrowings,
against a second evaluation of itself; the records `replay` rebuilds
from a certificate against `propagate`'s fixpoint; and the values each
certificate step records as read against a walk of the certificate that
shares no code with the rules."""

import json
import os
import random
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.deduce import (
    FACT_KINDS, Certificate, CertStep, Cobordism, FactBase, KnotRecord, Mirror,
    Presentation, Relation, Sum, _GenusChain, _instances, _narrow, propagate,
    replay)
from taucalc.errors import EmptyIntervalError, InconsistentError, TaucalcError
from taucalc.interval import NEG_INF, POS_INF, Interval
from taucalc.report import build_report, to_json

from .util import (base_of, columns_of, propagate_shuffled,
                   random_consistent_base)

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
    text = "".join(to_json(build_report(base_of(records), cert), cert,
                           certify))
    assert text == json.dumps(old, indent=2)


@given(intervals(), genus_intervals(), genus_intervals())
def test_r2_conclusions_are_valid_intervals(tau, g4, g3):
    # R2 builds its conclusions without the endpoint checks.
    state = columns_of({"k": KnotRecord("k", tau=tau, g4=g4, g3=g3)})
    conclusions = [c for _, _, c, _ in _GenusChain("k").implications(state)]
    assert len(conclusions) == 3
    for c in conclusions:
        assert type(c) is Interval and Interval(*c) == c


def _narrowings(fixed):
    """The conclusions of one evaluation of every rule instance of `fixed`
    against its bounds that narrow a value: none, at a fixpoint."""
    bounds = fixed.bounds
    return [(inst.rule, target, qty, c)
            for inst in _instances(fixed)
            for target, qty, c, _ in inst.implications(bounds)
            if not (c.lo <= bounds[qty][target].lo
                    and bounds[qty][target].hi <= c.hi)]


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40))
def test_replay_rederives_the_fixpoint_of_random_bases(seed, size):
    # `tau` reports the records `replay` returns, not `propagate`'s.
    base = random_consistent_base(random.Random(seed), size)[0]
    fixed, cert = propagate(base)
    assert replay(cert, base).records == fixed.records


def _walk(base, cert):
    """The bounds `cert` leaves, found by hand: starting from a copy of the
    base's bounds, each step's `result` replaces the value of its target,
    in index order.  Checks on the way that each step's `reads` are the
    walked values just before it: the rules supply the values they read,
    and `replay` checks them against the same rules, where this walk calls
    no rule and no `_narrow`."""
    walked = {q: dict(col) for q, col in base.bounds.items()}
    for i, step in enumerate(cert):
        assert step.index == i
        assert step.reads == tuple((k, q, walked[q][k])
                                   for k, q, _ in step.reads), step
        walked[step.quantity][step.target] = step.result
    return walked


@pytest.mark.parametrize("load", [
    load_bundled_catalog, lambda: load_factbase(str(ALL_RULES)),
    lambda: load_factbase(str(ALL_RULES.with_name("random_wide_100.json")))],
    ids=["catalog", "all_rules", "random_wide_100"])
def test_certificate_walk(load):
    base = load()
    fixed, cert = propagate(base)
    assert _walk(base, cert) == replay(cert, base).bounds == fixed.bounds


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40))
def test_certificate_walk_of_random_bases(seed, size):
    base = random_consistent_base(random.Random(seed), size)[0]
    _, cert = propagate(base)
    assert _walk(base, cert) == replay(cert, base).bounds


# Derandomized, so that a failure replays on every run.
ORACLE_SETTINGS = settings(max_examples=100, derandomize=True,
                           database=None, deadline=None)
# R2 and every relation type.
RULE_TYPES = [_GenusChain, *Relation.__args__]

# Small ends, so that the rules' bounds meet; -5 and 5 stand for the
# infinite ends.  A genus is not negative.
END, GENUS_END = st.integers(-5, 5), st.integers(0, 5)
RECORD_ENDS = st.tuples(END, END, GENUS_END, GENUS_END, GENUS_END, GENUS_END,
                        END, END)  # tau, g4, g3, tb


def _record(id, ends):
    """The record of `id` whose tau, g4, g3 and tb each run between a pair
    of `ends`, in either order."""
    pairs = [sorted(ends[i:i + 2]) for i in range(0, 8, 2)]
    return KnotRecord(id, *(Interval(NEG_INF if lo == -5 else lo,
                                     POS_INF if hi == 5 else hi)
                            for lo, hi in pairs))


def _knot_fields(cls) -> int:
    return 1 if cls is _GenusChain else len(cls._fields) - 1 - len(cls.counts)


def _on_knots(cls, knots, counts):
    """An instance of `cls` on `knots`, one per knot field: a relation's
    counts are its least valid values plus `counts`."""
    if cls is _GenusChain:
        return cls(*knots)
    return cls(*knots, *(least + c for least, c in zip(cls.counts.values(),
                                                         counts)))


# cls -> the knot fields of an instance of `cls`, as indices into its
# records and so with repeats as in Sum(a, b, a), the record ends and the
# counts, in one draw: hypothesis spends more on building and drawing a
# strategy than this test spends on its values.
DRAWS = {cls: st.tuples(st.lists(st.integers(0, n - 1), min_size=n,
                                 max_size=n),
                        st.lists(RECORD_ENDS, min_size=n, max_size=n),
                        st.lists(st.integers(0, 3), min_size=3, max_size=3))
         for cls, n in ((cls, _knot_fields(cls)) for cls in RULE_TYPES)}


def _evaluate(inst, state):
    """One evaluation of `inst` as `propagate` makes it: each conclusion
    that narrows is met into its column of `state` (quantity -> knot id ->
    Interval) through `_narrow` before the next conclusion is computed.
    Returns the narrowing conclusions."""
    narrowed = []
    for target, qty, c, _ in inst.implications(state):
        cur = state[qty][target]
        if not (c.lo <= cur.lo and cur.hi <= c.hi):
            narrowed.append((target, qty, c))
            _narrow(state[qty], target, qty, c)
    return narrowed


@pytest.mark.parametrize("cls", RULE_TYPES, ids=lambda cls: cls.__name__)
@ORACLE_SETTINGS
@given(data=st.data())
def test_instances_are_idempotent(cls, data):
    # `propagate` does not re-queue an instance on its own narrowings: a
    # second evaluation right after the first must narrow nothing, on
    # distinct knots and on repeated ones.  A new relation type is in
    # `Relation` and so checked here.
    fields, ends, counts = data.draw(DRAWS[cls])
    inst = _on_knots(cls, [f"k{i}" for i in fields], counts)
    state = columns_of({f"k{i}": _record(f"k{i}", e)
                        for i, e in enumerate(ends)})
    try:
        _evaluate(inst, state)
    except EmptyIntervalError:
        return  # an inconsistent state: `propagate` stops there
    assert _evaluate(inst, state) == []


def _repeated_operand_base(rng):
    """(knots, facts, relations) on 1-3 knots: 1-4 relations of any type
    whose knot fields are drawn with repeats, as in Sum(a, b, a), a
    one-sided tau bound on most knots (what makes a cycle of sums climb)
    and 0-2 more facts of any kind, all small."""
    ids = ["a", "b", "c"][:rng.randint(1, 3)]
    relations = []
    for _ in range(rng.randint(1, 4)):
        cls = rng.choice(Relation.__args__)
        relations.append(_on_knots(
            cls, [rng.choice(ids) for _ in range(_knot_fields(cls))],
            [rng.randint(0, 3) for _ in cls.counts]))
    facts = [(k, rng.choice(["tau_lower", "tau_upper"])) for k in ids
             if rng.random() < 0.7]
    facts += [(rng.choice(ids), rng.choice(sorted(FACT_KINDS)))
              for _ in range(rng.randint(0, 2))]
    return ([(k, ()) for k in ids],
            [(k, kind, rng.randint(0 if kind[0] == "g" else -3, 3), "")
             for k, kind in facts],  # a genus is not negative
            relations)


@settings(ORACLE_SETTINGS, max_examples=200)
@given(st.integers(0, 2**32))
def test_repeated_operands_reach_a_fixpoint_or_fail_cleanly(seed):
    # A base that completes is at a fixpoint in every order, and one that
    # does not is inconsistent or out of budget (Sum(a, b, c) with
    # Sum(c, b, a) climbs), nothing else.  Drawn from a seed, since
    # hypothesis draws few of the bases that climb.
    knots, facts, relations = _repeated_operand_base(random.Random(seed))
    with mock.patch.dict(os.environ, TAU_STEP_BUDGET="100"):
        try:
            base = FactBase().extend(knots, facts, relations)
            fixed, cert = propagate(base)
        except InconsistentError:
            return
        except TaucalcError as e:
            assert str(e).startswith("propagation exceeded step budget 100")
            return
        assert _narrowings(fixed) == []
        assert replay(cert, base).records == fixed.records
        for order in range(4):
            assert propagate_shuffled(base, order)[0].records == fixed.records


@settings(ORACLE_SETTINGS, max_examples=200)
@given(st.integers(0, 2**32))
def test_certificate_walk_of_repeated_operands(seed):
    # Repeated operands make a rule read a key it narrows itself, as in
    # Sum(a, a, c).  A run that stops inconsistent is walked up to where
    # it stopped.
    knots, facts, relations = _repeated_operand_base(random.Random(seed))
    try:
        base = FactBase().extend(knots, facts, relations)
    except InconsistentError:
        return
    with mock.patch.dict(os.environ, TAU_STEP_BUDGET="100"):
        try:
            cert = propagate(base)[1]
        except InconsistentError as e:
            cert = e.certificate
        except TaucalcError:
            return  # out of budget: `propagate` returns no certificate
    assert _walk(base, cert) == replay(cert, base).bounds
