import copy
import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from taucalc import braid, deduce, grid
from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.deduce import (
    Certificate,
    CertStep,
    Cobordism,
    CrossingChange,
    Double,
    FactBase,
    Mirror,
    Presentation,
    Sum,
    Unknotting,
    propagate,
    query,
    replay,
)
from taucalc.errors import BrokenStepError, InconsistentError, TaucalcError
from taucalc.interval import POS_INF, Interval
from taucalc.report import steps_to_json

from .util import (least_budget, propagate_shuffled, random_consistent_base,
                   relations_reversed)

DATA = Path(__file__).parent / "data"


def base_with(*ids):
    base = FactBase()
    for id in ids:
        base = base.extend(knots=[(id, ())])
    return base


class TestFactBase:
    def test_add_knot_duplicate(self):
        base = base_with("a")
        with pytest.raises(TaucalcError, match="knot id 'a' already present"):
            base.extend(knots=[("a", ())])

    def test_add_fact_unknown_id(self):
        with pytest.raises(TaucalcError, match="unknown knot id 'a'"):
            FactBase().extend(facts=[("a", "g3", 3, "")])

    def test_add_relation_unknown_operand(self):
        with pytest.raises(TaucalcError, match="unknown knot id 'b'"):
            base_with("a").extend(relations=[Mirror("a", "b")])

    # A base built without `extend` can lack a knot of its presentations in
    # its bounds (a), or name an unknown knot in a relation (zz): a run
    # refuses it by the knot, not with a KeyError.  `replay` is given a
    # step that reads or narrows the missing knot.
    @pytest.mark.parametrize("missing", ["a", "zz"])
    @pytest.mark.parametrize("run", [
        lambda base, step: propagate(base),
        lambda base, step: replay(Certificate([step]), base)],
        ids=["propagate", "replay"])
    def test_knot_missing_from_bounds_refused(self, run, missing):
        top = Interval.top()
        if missing == "a":
            base = FactBase({"a": ()})
            step = CertStep(0, "R2", "a", "g4", None, (), Interval(0, 3),
                            Interval(0, 3))
        else:
            rel, b = Mirror("a", "zz"), base_with("a")
            base = FactBase(b.presentations, b.bounds, (rel,))
            step = CertStep(0, "R1", "zz", "tau", rel.cite,
                            (("a", "tau", top),), top, top)
        with pytest.raises(TaucalcError,
                           match=f"unknown knot id '{missing}'") as ei:
            run(base, step)
        assert type(ei.value) is TaucalcError

    # A base built without `extend` can also lack a whole quantity column
    # of bounds, or hold one more: a run refuses it by the column before it
    # starts, not as an unknown knot named after the column.
    @pytest.mark.parametrize("bounds, named", [
        ({}, "['tau', 'g4', 'g3', 'tb']"), ({"tau": {}}, "['g4', 'g3', 'tb']"),
        ({**base_with("a").bounds, "x": {}}, "'tb', 'x'")],
        ids=["none", "tau-only", "extra"])
    @pytest.mark.parametrize("run", [
        lambda base, step: propagate(base),
        lambda base, step: replay(Certificate([step]), base)],
        ids=["propagate", "replay"])
    def test_column_missing_from_bounds_refused(self, run, bounds, named):
        base = FactBase({"a": ()}, bounds)
        step = CertStep(0, "R2", "a", "g4", None, (), Interval(0, 3),
                        Interval(0, 3))
        with pytest.raises(TaucalcError, match="column") as ei:
            run(base, step)
        assert type(ei.value) is TaucalcError
        assert named in str(ei.value)

    def test_fact_narrows_axioms(self):
        base = base_with("a").extend(facts=[("a", "tau_lower", 3, "")])
        assert base.knot("a").tau == Interval.at_least(3)
        base = base.extend(facts=[("a", "g3", 3, "")])
        assert base.knot("a").g3 == Interval.exact(3)

    def test_self_sum_accepted(self):
        base = base_with("a", "c").extend(relations=[Sum("a", "a", "c")])
        base = base.extend(facts=[("a", "tau_lower", 2, ""),
                                  ("a", "tau_upper", 2, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("c").tau == Interval.exact(4)

    @pytest.mark.parametrize("make", [
        lambda: Cobordism("a", "b", -1),
        lambda: Cobordism("a", "b", "1"),
        lambda: Unknotting("a", 1, -1),
        lambda: Unknotting("a", True, 0),
        lambda: Double("k", "wh", "1"),
    ])
    def test_relation_counts_validated(self, make):
        with pytest.raises(TaucalcError, match="must be an integer >= "):
            make()

    def test_immutability(self):
        base = base_with("a")
        base.extend(facts=[("a", "tau_lower", 1, "")])
        assert base.knot("a").tau == Interval.top()

    def test_query_vacuous(self):
        fixed, cert = propagate(base_with("a"))
        rec, sub = query(fixed, cert, "a")
        assert rec.tau == Interval.top()
        assert rec.g4 == Interval(0, POS_INF)
        with pytest.raises(TaucalcError, match="unknown knot id 'nope'"):
            query(fixed, cert, "nope")


class TestNoAliasing:
    """A base's columns are mutable dicts, and a run narrows its own copy of
    them in place: `extend`, `propagate` and `replay` must each leave the
    base they were given as it was, and return columns of their own."""

    @staticmethod
    def _check(base, call):
        """`call()`'s base, after checking that the call left `base`'s
        bounds and presentations equal to deep snapshots taken before it
        and that the base it returned shares no column of bounds with
        `base` (a run writes no presentation, so it may share those)."""
        bounds = copy.deepcopy(base.bounds)
        presentations = copy.deepcopy(base.presentations)
        out = call()
        assert base.bounds == bounds
        assert base.presentations == presentations
        assert out.bounds is not base.bounds
        for q, col in out.bounds.items():
            assert col is not base.bounds[q], q
        return out

    @pytest.mark.parametrize("name", ["random_wide_100.json",
                                      "all_rules.json"])
    def test_a_run_never_writes_into_its_input_base(self, name):
        base = load_factbase(DATA / name)
        assert any(base.bounds.values())  # its facts bound some knots
        # A new knot, and a fact on every knot, of which some narrow.
        facts = [(id, "tb_lower", -10**6, "") for id in base.presentations]
        extended = self._check(base, lambda: base.extend(
            knots=[("new", ())], facts=facts))
        assert extended.bounds["tb"] != base.bounds["tb"]
        for b in (base, extended):
            # Each run narrows something, so an alias would show.
            fixed = self._check(b, lambda: propagate(b)[0])
            assert fixed.bounds != b.bounds
            cert = propagate(b)[1]
            assert self._check(b, lambda: replay(cert, b)).bounds != b.bounds


class TestRules:
    def test_r1_mirror(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("b").tau == Interval.exact(-1)

    def test_r1_shares_g4(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "g4_upper", 2, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("b").g4 == Interval(0, 2)

    def test_r2_genus_chain(self):
        base = base_with("a").extend(facts=[("a", "g3", 2, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("a").g4 == Interval(0, 2)
        assert fixed.knot("a").tau == Interval(-2, 2)

    def test_r2_tau_raises_g4(self):
        base = base_with("a").extend(facts=[("a", "tau_lower", 3, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("a").g4 == Interval(3, POS_INF)

    def test_r3_both_directions(self):
        base = base_with("p", "m").extend(relations=[CrossingChange("p", "m")])
        b1 = base.extend(facts=[("m", "tau_lower", 2, ""),
                                ("m", "tau_upper", 2, "")])
        fixed, _ = propagate(b1)
        assert fixed.knot("p").tau == Interval(2, 3)
        b2 = base.extend(facts=[("p", "tau_lower", 2, ""),
                                ("p", "tau_upper", 2, "")])
        fixed, _ = propagate(b2)
        assert fixed.knot("m").tau == Interval(1, 2)

    def test_r4_additivity_reversals(self):
        base = base_with("a", "b", "c").extend(relations=[Sum("a", "b", "c")])
        base = base.extend(facts=[("c", "tau_lower", 5, ""),
                                  ("c", "tau_upper", 5, "")])
        base = base.extend(facts=[("a", "tau_lower", 2, ""),
                                  ("a", "tau_upper", 2, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("b").tau == Interval.exact(3)

    def test_r5_cobordism(self):
        base = base_with("a", "b").extend(relations=[Cobordism("a", "b", 1)])
        base = base.extend(facts=[("a", "tau_lower", 4, ""),
                                  ("a", "tau_upper", 4, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("b").tau == Interval(3, 5)

    def test_r6_unknotting(self):
        base = base_with("a").extend(relations=[Unknotting("a", 2, 1)])
        fixed, _ = propagate(base)
        assert fixed.knot("a").tau == Interval(-1, 2)
        assert fixed.knot("a").g4 == Interval(0, 3)

    def test_r7_positive_braid(self):
        base = FactBase().extend(knots=[
            ("t", [Presentation("braid", "2: 1 1 1")])])
        fixed, _ = propagate(base)
        assert fixed.knot("t").tau == Interval.exact(1)
        assert fixed.knot("t").g4 == Interval.exact(1)

    def test_r7_mixed_braid_bounds(self):
        base = FactBase().extend(knots=[
            ("k", [Presentation("braid", "3: 1 1 1 -2 1 1 1 2 2 2")])])
        fixed, _ = propagate(base)
        # slice-Bennequin lower 3; Seifert surface genus 4 caps g4.
        assert fixed.knot("k").tau == Interval(3, 4)
        assert fixed.knot("k").g4 == Interval(3, 4)

    def test_r7_torus(self):
        base = FactBase().extend(knots=[
            ("t35", [Presentation("torus", "3 5")])])
        fixed, _ = propagate(base)
        assert fixed.knot("t35").tau == Interval.exact(4)

    def test_r7_pretzel(self):
        base = FactBase().extend(knots=[
            ("p", [Presentation("pretzel", "3 -5 -7")])])
        fixed, _ = propagate(base)
        assert fixed.knot("p").tau == Interval.exact(1)
        base = FactBase().extend(knots=[
            ("p", [Presentation("pretzel", "3 5 -7")])])
        fixed, _ = propagate(base)
        assert fixed.knot("p").tau == Interval.top()

    def test_r7_grid_and_double(self):
        base = FactBase().extend(knots=[("tref", [Presentation(
            "grid", "6 / X: 5 4 0 1 2 3 / O: 4 1 2 3 5 0")])])
        for n in range(1, 6):
            base = base.extend(knots=[(f"wh{n}", ())])
            base = base.extend(relations=[Double("tref", f"wh{n}", n)])
        fixed, _ = propagate(base)
        assert fixed.knot("tref").tb == Interval.at_least(0)
        for n in range(1, 6):
            assert fixed.knot(f"wh{n}").tau == Interval.exact(1)
            assert fixed.knot(f"wh{n}").g4 == Interval.exact(1)

    def test_double_with_negative_tb_does_not_fire(self):
        base = base_with("k", "wh").extend(facts=[("k", "tb_lower", -2, "")])
        base = base.extend(relations=[Double("k", "wh", 1)])
        fixed, _ = propagate(base)
        assert fixed.knot("wh").tau == Interval.top()

    def test_r2_rereads_g3_narrowed_by_a_seed(self):
        # The braid's seed narrows only g3 (its Seifert surface has genus
        # 1); R2 must carry that on to g4.
        base = FactBase().extend(knots=[
            ("k", [Presentation("braid", "3: 1 -2 1 -2")])])
        base = base.extend(facts=[("k", "tau_lower", 0, ""),
                                  ("k", "tau_upper", 0, "")])
        fixed, _ = propagate(base)
        assert fixed.knot("k").g4 == Interval(0, 1)

    def test_double_rereads_tb_in_any_order(self):
        base = FactBase().extend(knots=[
            ("c", [Presentation("grid", "5 / X: 4 0 1 2 3 / O: 1 2 3 4 0")])])
        base = base.extend(knots=[("w", ())], relations=[Double("c", "w")])
        for seed in range(20):
            fixed, _ = propagate_shuffled(base, seed)
            assert fixed.knot("c").tb == Interval.at_least(1)
            assert fixed.knot("w").tau == Interval.exact(1), seed

    def test_presentation_must_be_knot(self):
        with pytest.raises(Exception):
            FactBase().extend(knots=[("l", [Presentation("braid", "3: 1 1")])])

    def test_propagate_and_replay_do_not_reparse(self, monkeypatch):
        tref = "6 / X: 5 4 0 1 2 3 / O: 4 1 2 3 5 0"
        base = FactBase().extend(knots=[
            ("k", [Presentation("braid", "3: 1 1 1 -2 1 1 1 2 2 2")])])
        base = base.extend(knots=[("tref", [Presentation("grid", tref)])])
        calls = Counter()
        for mod, name in ((braid, "parse_braid"), (braid, "closure_components"),
                          (grid, "parse_grid"), (grid, "tb")):
            def counted(*args, _fn=getattr(mod, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(mod, name, counted)
        _, cert = propagate(base)
        replay(cert, base)
        assert calls == Counter()
        Presentation("grid", tref)  # construction is what parses
        assert calls == Counter(parse_grid=1, tb=1)


class TestWorkedScenarios:
    def test_positive_braid_length_ten(self):
        base = FactBase().extend(knots=[
            ("k139", [Presentation("braid", "3: 1 1 1 2 1 1 1 2 2 2")])])
        fixed, cert = propagate(base)
        assert fixed.knot("k139").tau == Interval.exact(4)
        assert fixed.knot("k139").g4 == Interval.exact(4)
        rec, sub = query(fixed, cert, "k139")
        assert len(sub) >= 1 and replay(sub, base).records["k139"] == rec

    def test_nine_one_with_seifert_genus(self):
        base = FactBase().extend(knots=[
            ("k161", [Presentation("braid", "3: 1 1 1 -2 1 1 1 2 2 2")])])
        base = base.extend(facts=[("k161", "g3", 3, "genus table")])
        fixed, cert = propagate(base)
        assert fixed.knot("k161").tau == Interval.exact(3)
        assert fixed.knot("k161").g4 == Interval.exact(3)
        assert replay(cert, base).records == fixed.records

    def test_nine_two_with_unknotting(self):
        base = FactBase().extend(knots=[
            ("k145", [Presentation("braid", "4: 1 1 2 1 1 2 3 2 -1 3 -3")])])
        base = base.extend(relations=[Unknotting("k145", 2, 0)])
        fixed, _ = propagate(base)
        assert fixed.knot("k145").tau == Interval.exact(2)
        assert fixed.knot("k145").g4 == Interval.exact(2)

    def test_crossing_change_chain(self):
        base = base_with(*[f"k{i}" for i in range(6)])
        for i in range(5):
            base = base.extend(relations=[
                CrossingChange(f"k{i}", f"k{i + 1}")])
        base = base.extend(facts=[("k5", "g3", 0, "")])  # the unknot
        fixed, _ = propagate(base)
        assert fixed.knot("k5").tau == Interval.exact(0)
        assert fixed.knot("k0").tau == Interval(0, 5)
        # matches the unknotting rule with no negative-to-positive changes
        alt = base_with("a").extend(relations=[Unknotting("a", 5, 0)])
        alt_fixed, _ = propagate(alt)
        assert alt_fixed.knot("a").tau == fixed.knot("k0").tau


def _torus_seed(mirror):
    """Knot k with the torus (2, 3) seed and, with `mirror`, its mirror m.
    `propagate` evaluates the seed, the mirror and one R2 per knot."""
    base = FactBase().extend(knots=[("k", [Presentation("torus", "2 3")])])
    if mirror:
        base = base.extend(knots=[("m", ())], relations=[Mirror("k", "m")])
    return base


class TestErrors:
    def test_inconsistent_carries_certificate(self):
        base = base_with("a").extend(facts=[("a", "tau_lower", 2, ""),
                                            ("a", "g3", 1, "")])
        with pytest.raises(InconsistentError) as ei:
            propagate(base)
        assert ei.value.certificate is not None

    def test_conflict_names_the_conclusion_and_the_prior_value(self):
        # R1 concludes tau(b) <= -2 from tau(a) >= 2; the would-be meet
        # [2, -2] is neither bound.
        base = base_with("a", "b").extend(
            facts=[("a", "tau_lower", 2, ""), ("b", "tau_lower", 2, "")],
            relations=[Mirror("a", "b")])
        with pytest.raises(InconsistentError) as ei:
            propagate(base)
        assert str(ei.value) == ("R1 on b.tau: conclusion [-inf, -2] is "
                                 "disjoint from b.tau = [2, inf]")

    def test_inconsistent_at_fact_time(self):
        base = base_with("a").extend(facts=[("a", "tau_lower", 3, "")])
        with pytest.raises(InconsistentError, match=r"a\.tau = \[3, inf\]"):
            base.extend(facts=[("a", "tau_upper", 2, "")])
        base = base_with("a").extend(facts=[("a", "g3", 2, "")])
        with pytest.raises(InconsistentError):
            base.extend(facts=[("a", "g3", 3, "")])

    def test_seifert_bound_below_exact_g3(self):
        # The braid's Seifert surface has genus 4.
        base = FactBase().extend(knots=[
            ("k", [Presentation("braid", "3: 1 1 1 -2 1 1 1 2 2 2")])])
        with pytest.raises(InconsistentError, match=r"k\.g3"):
            propagate(base.extend(facts=[("k", "g3", 5, "")]))

    def test_budget_bounds_rederivation(self, monkeypatch):
        # A base that is only large: the 200-link chain takes 801
        # evaluations (LEAST_BUDGETS).  At 500 the error names the last
        # narrowing, what was still changing, halfway along the chain.
        monkeypatch.setenv("TAU_STEP_BUDGET", "500")
        with pytest.raises(TaucalcError) as ei:
            propagate(_chain(200, False)[0])
        assert str(ei.value) == (
            "propagation exceeded step budget 500; last narrowing "
            "[100] R3: c101.tau <- [-49, 99] => [-49, 99]")

    @pytest.mark.parametrize("mirror", [False, True])
    def test_evaluation_goes_on_past_its_narrowings(self, mirror):
        # One evaluation of the seed narrows tau, g4 and g3, and one of the
        # mirror both of m's values: an evaluation runs all its
        # conclusions, and neither instance reads what it narrows.  Their
        # evaluation counts are pinned in LEAST_BUDGETS.
        base = _torus_seed(mirror)
        fixed, cert = propagate(base)
        assert fixed.knot("k").tau == Interval.exact(1)
        assert len(cert) == 3 + 2 * mirror
        if mirror:
            assert fixed.knot("m").tau == Interval.exact(-1)
        assert replay(cert, base).records == fixed.records

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("TAU_STEP_BUDGET", "1")
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "g3", 2, "")])
        with pytest.raises(TaucalcError, match="exceeded step budget 1"):
            propagate(base)

    def test_budget_error_names_the_last_narrowing(self, monkeypatch):
        base = base_with("a")
        monkeypatch.setenv("TAU_STEP_BUDGET", "0")
        with pytest.raises(TaucalcError,
                           match="budget 0; nothing has narrowed yet$"):
            propagate(base)


# The least TAU_STEP_BUDGET that completes each input of
# `test_least_budgets_are_pinned`: the number of rule evaluations
# `propagate` makes there.  A change that moves one on purpose says so in
# CHANGES.md and takes the new count from the test's failure, which lists
# each input whose count differs.
LEAST_BUDGETS = {
    "random_wide_100": 240,
    "random_wide_100 reversed": 250,
    "catalog": 36,
    "all_rules": 26,
    "torus seed": 2,
    "torus seed and mirror": 4,
    "chain 200": 801,  # 4n + 1 for n links, in either insertion order
    "chain 200 reversed": 801,
}


def _least_budget_inputs() -> dict:
    """The inputs of `LEAST_BUDGETS`, by name."""
    wide = load_factbase(DATA / "random_wide_100.json")
    return {"random_wide_100": wide,
            "random_wide_100 reversed": relations_reversed(wide),
            "catalog": load_bundled_catalog(),
            "all_rules": load_factbase(DATA / "all_rules.json"),
            "torus seed": _torus_seed(False),
            "torus seed and mirror": _torus_seed(True),
            "chain 200": _chain(200, False)[0],
            "chain 200 reversed": _chain(200, True)[0]}


class TestWorkCounts:
    def test_least_budgets_are_pinned(self):
        # Budget N completes and N - 1 does not: one evaluation more or
        # fewer than the table fails.
        assert ({name: least_budget(base)
                 for name, base in _least_budget_inputs().items()}
                == LEAST_BUDGETS)

    def test_seeds_read_nothing(self):
        # So no narrowing re-queues a seed, and the seeds, which
        # `_instances` lists before every relation, all run before the
        # relations in the queue they share.  One valid value of each kind,
        # and a positive braid word, whose seeds are exact.
        values = [("braid", "3: 1 -2 1 -2"), ("braid", "2: 1 1 1"),
                  ("grid", "5 / X: 4 0 1 2 3 / O: 1 2 3 4 0"),
                  ("torus", "2 3"), ("pretzel", "-3 -3 -3")]
        assert {kind for kind, _ in values} == deduce.PRESENTATION_KINDS.keys()
        base = FactBase().extend(knots=[
            (f"k{i}", [Presentation(*kv)]) for i, kv in enumerate(values)])
        seeds = [inst for inst in deduce._instances(base)
                 if isinstance(inst, deduce._Seed)]
        assert len(seeds) == len(values)
        for seed in seeds:
            conclusions = list(seed.implications(base.bounds))
            assert conclusions
            assert all(reads == () for *_, reads in conclusions)


class TestCertificates:
    def test_empty_replay(self):
        base = base_with("a")
        assert replay(Certificate(), base) == base

    def test_replay_rederives_the_fixpoint(self):
        # `tau` reports the records `replay` returns: they must be
        # `propagate`'s fixpoint, field for field.
        for name, base in _least_budget_inputs().items():
            fixed, cert = propagate(base)
            assert replay(cert, base).records == fixed.records, name

    def test_replay_of_propagation(self):
        base = random_consistent_base(random.Random(20))[0]
        fixed, cert = propagate(base)
        assert replay(cert, base).records == fixed.records

    def test_tampered_conclusion_rejected(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        _, cert = propagate(base)
        victim = next(s for s in cert if s.rule == "R1")
        forged = victim._replace(conclusion=Interval.exact(7),
                                 result=Interval.exact(7))
        bad = Certificate(forged if s is victim else s for s in cert)
        with pytest.raises(BrokenStepError) as ei:
            replay(bad, base)
        assert ei.value.step_index == victim.index

    def test_forged_relation_rejected(self):
        base = base_with("a").extend(relations=[Unknotting("a", 2, 1)])
        _, cert = propagate(base)
        forged = _append_step(cert, "R6", "a", "tau", Interval.exact(0),
                              ("relation", Unknotting("a", 0, 0)))
        with pytest.raises(BrokenStepError) as ei:
            replay(forged, base)
        assert ei.value.step_index == len(cert)

    def test_forged_presentation_rejected(self):
        base = base_with("a")
        forged = _append_step(Certificate(), "R7-torus", "a", "tau",
                              Interval.exact(1),
                              ("presentation", "a", Presentation("torus", "2 3")))
        with pytest.raises(BrokenStepError) as ei:
            replay(forged, base)
        assert ei.value.step_index == 0

    @pytest.mark.parametrize("cite, target", [
        (("presentation", "b", Presentation("torus", "2 3")), "b"),
        (("bogus",), "b"), (("presentation", "b"), "b"),
        (["presentation", "a", Presentation("torus", "2 3")], "b"),
        (("presentation", ["a"], Presentation("torus", "2 3")), "b"),
        (None, ["b"])],
        ids=["another-knots-presentation", "unknown-kind",
             "two-field-presentation", "list-cite", "list-in-cite",
             "list-target"])
    def test_cite_of_no_instance_rejected(self, cite, target):
        # The torus is stored on a, not b; the other cites have no cite's
        # shape, and are refused like it rather than unpacked.  A cite or
        # target that cannot be hashed names no instance either.
        base = FactBase().extend(knots=[
            ("a", [Presentation("torus", "2 3")]), ("b", ())])
        _, cert = propagate(base)
        forged = _append_step(cert, "R7-torus", target, "tau",
                              Interval.exact(1), cite)
        with pytest.raises(BrokenStepError,
                           match="cites no R7-torus instance") as ei:
            replay(forged, base)
        assert ei.value.step_index == len(cert)

    def test_replay_builds_each_named_instance_once(self, monkeypatch):
        # Each seed once, whether or not a step cites it, and one R2
        # instance per R2 step.  Knot "uncited" has a grid seed, tb >= 1,
        # that its tb fact already holds, so no step cites it.
        grid = Presentation("grid", "5 / X: 4 0 1 2 3 / O: 1 2 3 4 0")
        base = load_factbase(DATA / "random_wide_100.json").extend(
            knots=[("uncited", [grid])], facts=[("uncited", "tb_lower", 1, "")])
        _, cert = propagate(base)
        assert ("presentation", "uncited", grid) not in {s.cite for s in cert}
        seeds = sum(len(rec.presentations) for rec in base.records.values())
        built = Counter()
        for name in ("_GenusChain", "_Seed"):
            def counted(*args, _cls=getattr(deduce, name), _name=name):
                built[_name] += 1
                return _cls(*args)
            monkeypatch.setattr(deduce, name, counted)
        replay(cert, base)
        assert built == Counter(
            _GenusChain=sum(s.cite is None for s in cert), _Seed=seeds)
        assert built == Counter(_GenusChain=34, _Seed=30)

    def test_rule_must_match_cited_relation(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        _, cert = propagate(base)
        victim = next(s for s in cert if s.rule == "R1")
        bad = Certificate(
            s._replace(rule="R3") if s is victim else s for s in cert)
        with pytest.raises(BrokenStepError) as ei:
            replay(bad, base)
        assert ei.value.step_index == victim.index

    def test_empty_meet_rejected(self):
        rel = Unknotting("a", 0, 0)
        base = base_with("a").extend(relations=[rel])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        forged = _append_step(Certificate(), "R6", "a", "tau",
                              Interval.exact(0), ("relation", rel))
        with pytest.raises(BrokenStepError, match="meet is empty") as ei:
            replay(forged, base)
        assert ei.value.step_index == 0

    def test_step_that_narrows_nothing_rejected(self):
        # R6 yields the same conclusion from any state, so a second copy of
        # its step follows from its instance and records the right result;
        # it is refused because it narrows nothing.
        base = base_with("a").extend(relations=[Unknotting("a", 2, 1)])
        _, cert = propagate(base)
        r6 = next(s for s in cert if s.rule == "R6")
        again = Certificate(cert + (r6._replace(index=len(cert)),))
        with pytest.raises(BrokenStepError, match="narrows nothing") as ei:
            replay(again, base)
        assert ei.value.step_index == len(cert)

    def test_wrong_result_rejected(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        _, cert = propagate(base)
        victim = next(s for s in cert if s.rule == "R1")
        bad = Certificate(
            s._replace(result=Interval.exact(5)) if s is victim else s
            for s in cert)
        with pytest.raises(BrokenStepError, match="recorded result") as ei:
            replay(bad, base)
        assert ei.value.step_index == victim.index

    def test_altered_read_value_rejected(self):
        base = base_with("a", "b").extend(relations=[Mirror("a", "b")])
        base = base.extend(facts=[("a", "tau_lower", 1, ""),
                                  ("a", "tau_upper", 1, "")])
        _, cert = propagate(base)
        victim = next(s for s in cert if s.rule == "R1")
        (knot, qty, _), = victim.reads
        forged = victim._replace(reads=((knot, qty, Interval.exact(7)),))
        bad = Certificate(forged if s is victim else s for s in cert)
        with pytest.raises(BrokenStepError, match="reads") as ei:
            replay(bad, base)
        assert ei.value.step_index == victim.index

    def test_r2_step_on_unknown_knot_rejected(self):
        base = base_with("a")
        forged = _append_step(Certificate(), "R2", "zz", "g4", Interval(0, 3))
        with pytest.raises(BrokenStepError) as ei:
            replay(forged, base)
        assert ei.value.step_index == 0

    @staticmethod
    def _self_sum_base():
        """a # a = c with tau(c) = 4 and tau(a) >= 0: R4 narrows a.tau from
        a premise that is a.tau itself."""
        return base_with("a", "c").extend(
            facts=[("c", "tau_lower", 4, ""), ("c", "tau_upper", 4, ""),
                   ("a", "tau_lower", 0, "")],
            relations=[Sum("a", "a", "c")])

    def test_self_read_premise_is_prior_value(self):
        _, cert = propagate(self._self_sum_base())
        step = next(s for s in cert if s.target == "a")
        assert json.loads(next(steps_to_json([step])))["premises"] == [
            f"relation {Sum('a', 'a', 'c')}", "fact c.tau = [4, 4]",
            "fact a.tau = [0, inf]"]
        assert step.result == Interval(0, 4)

    def test_self_read_premise_altered_rejected(self):
        # The forged step records a.tau after its own narrowing, not the
        # prior value that replay reads.
        base = self._self_sum_base()
        _, cert = propagate(base)
        victim = next(s for s in cert if s.target == "a")
        forged = victim._replace(reads=tuple(
            (k, q, victim.result if k == "a" else v)
            for k, q, v in victim.reads))
        assert forged.reads != victim.reads
        bad = Certificate(forged if s is victim else s for s in cert)
        with pytest.raises(BrokenStepError, match="reads") as ei:
            replay(bad, base)
        assert ei.value.step_index == victim.index

    def test_monotone_narrowing(self):
        for base in (random_consistent_base(random.Random(21))[0],
                     load_bundled_catalog(),
                     load_factbase(DATA / "all_rules.json")):
            _, cert = propagate(base)
            last = {}
            for step in cert:
                key = (step.target, step.quantity)
                if key in last:
                    lo, hi = last[key]
                    assert lo <= step.result.lo and step.result.hi <= hi
                last[key] = step.result

    def test_query_slice_replays(self):
        base = random_consistent_base(random.Random(22))[0]
        fixed, cert = propagate(base)
        # A knot's slice holds every step that targets it, so replaying
        # the slice re-derives the knot's record.
        for id in list(fixed.records)[:10]:
            rec, sub = query(fixed, cert, id)
            assert replay(sub, base).records[id] == rec

    def test_for_knot_matches_closure_oracle(self):
        for seed in range(10):
            base = random_consistent_base(random.Random(seed))[0]
            for fixed, cert in (propagate(base), propagate_shuffled(base, 1)):
                for id in fixed.records:
                    sub = cert.for_knot(id)
                    assert sub == _closure_slice(cert, id)
                    # A slice's step indices have gaps; slice it again.
                    for other in {s.target for s in sub}:
                        assert sub.for_knot(other) == _closure_slice(
                            sub, other)


def _closure_slice(cert, id):
    """Reference slice: the steps targeting `id`, closed under "an earlier
    step narrowed a (knot, quantity) that a wanted step read"."""
    wanted = set()
    frontier = [s for s in cert if s.target == id]
    by_key = {}
    for s in cert:
        by_key.setdefault((s.target, s.quantity), []).append(s)
    while frontier:
        step = frontier.pop()
        if step.index in wanted:
            continue
        wanted.add(step.index)
        for knot, qty, _ in step.reads:
            for prior in by_key.get((knot, qty), ()):
                if prior.index < step.index:
                    frontier.append(prior)
    return Certificate(s for s in cert if s.index in wanted)


def _append_step(cert, rule, target, quantity, value, cite=None):
    """`cert` plus one step claiming that `rule`, applied to the instance
    `cite` names and reading nothing, narrowed target.quantity to `value`."""
    step = CertStep(len(cert), rule, target, quantity, cite, (), value, value)
    return Certificate(cert + (step,))


def _chain(n, reverse):
    """c0 - c1 - ... - cn, each link a crossing change or a genus-1
    cobordism, with g3 = 0 at cn; the links are inserted from c0 toward cn,
    or from cn toward c0.  With a crossing changes and b cobordisms,
    tau(c0) is exactly [-b, a + b]."""
    rng = random.Random(n)
    links = [CrossingChange(f"c{i}", f"c{i + 1}") if rng.random() < 0.5
             else Cobordism(f"c{i}", f"c{i + 1}", 1) for i in range(n)]
    a = sum(isinstance(rel, CrossingChange) for rel in links)
    base = FactBase().extend(
        knots=[(f"c{i}", ()) for i in range(n + 1)],
        facts=[(f"c{n}", "g3", 0, "")],
        relations=links[::-1] if reverse else links)
    return base, Interval(-(n - a), n)


class TestConfluenceAndSoundness:
    def test_shuffled_orders_reach_same_fixpoint(self):
        # Each base also with its relations reversed: the shuffles then
        # start from another order within the relations' priority class.
        for given in (random_consistent_base(random.Random(30))[0],
                      load_bundled_catalog(),
                      load_factbase(DATA / "all_rules.json"),
                      load_factbase(DATA / "random_wide_100.json")):
            reference, _ = propagate(given)
            for base in (given, relations_reversed(given)):
                for seed in range(20):
                    fixed, cert = propagate_shuffled(base, seed)
                    assert fixed.records == reference.records
                    assert replay(cert, base).records == fixed.records

    @pytest.mark.parametrize("reverse", [False, True])
    def test_chain_costs_linear_evaluations(self, monkeypatch, reverse):
        # Each link re-runs only the instances that read the key it
        # narrowed, whatever the insertion order.
        n = 1600
        base, tau = _chain(n, reverse)
        monkeypatch.setenv("TAU_STEP_BUDGET", str(10 * n))
        fixed, cert = propagate(base)
        assert fixed.knot("c0").tau == tau
        assert replay(cert, base).records == fixed.records

    def test_final_intervals_contain_truth(self):
        for seed in range(5):
            base, truth = random_consistent_base(random.Random(100 + seed))
            fixed, _ = propagate(base)
            for id, t in truth.items():
                assert t in fixed.knot(id).tau, (id, t, fixed.knot(id).tau)
