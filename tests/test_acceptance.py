"""Acceptance suite: one test per release criterion, exact arithmetic
throughout.  Each test prints a PASS line once its assertions hold; run
with `pytest -s tests/test_acceptance.py` to see them."""

import math
import random

from taucalc.braid import (
    BraidWord,
    bennequin_genus,
    closure_components,
    slice_bennequin_lower,
    tau_positive_braid,
)
from taucalc.catalog import load_bundled_catalog
from taucalc.deduce import (
    CrossingChange,
    Double,
    FactBase,
    Presentation,
    Unknotting,
    propagate,
    replay,
)
from taucalc.families import TorusParams, pretzel_tau, tau_torus
from taucalc.families import PretzelParams
from taucalc.grid import components, corner_census, tb, writhe_grid
from taucalc.interval import Interval

from .util import (
    brute_force_writhe,
    propagate_shuffled,
    random_consistent_base,
    random_grid,
    random_knot_word,
    stabilize_ne,
    torus_braid,
)


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_torus_sweep():
    for p in range(2, 9):
        for q in range(p + 1, 9):
            if math.gcd(p, q) != 1:
                continue
            t = TorusParams(p, q)
            expected = (p - 1) * (q - 1) // 2
            assert tau_torus(t) == expected
            assert tau_positive_braid(torus_braid(t)) == expected
    _ok(1, "tau of T(p,q) = (p-1)(q-1)/2 = positive-braid value, "
           "all coprime 2 <= p < q <= 8")


def test_criterion_2_positive_braid_length_ten():
    b = BraidWord(3, (1, 1, 1, 2, 1, 1, 1, 2, 2, 2))
    assert closure_components(b) == 1 and b.is_positive and b.length == 10
    base = FactBase().extend(knots=[("k", [Presentation("braid", str(b))])])
    fixed, _ = propagate(base)
    assert fixed.knot("k").tau == Interval.exact(4)
    assert fixed.knot("k").g4 == Interval.exact(4)
    _ok(2, "3-strand positive word of length 10 pins tau = g4 = 4")


def test_criterion_3_nine_one_braid_with_genus_fact():
    b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 2, 2, 2))
    assert (b.strands, b.k_plus, b.k_minus) == (3, 9, 1)
    assert slice_bennequin_lower(b) == 3
    base = FactBase().extend(knots=[("k", [Presentation("braid", str(b))])])
    base = base.extend(facts=[("k", "g3", 3, "")])
    fixed, cert = propagate(base)
    assert fixed.knot("k").tau == Interval.exact(3)
    assert fixed.knot("k").g4 == Interval.exact(3)
    assert replay(cert, base)
    _ok(3, "(9+,1-) braid seed + g3 = 3 pins tau = g4 = 3; "
           "certificate replays")


def test_criterion_4_nine_two_braid_with_unknotting():
    b = BraidWord(4, (1, 1, 2, 1, 1, 2, 3, 2, -1, 3, -3))
    assert (b.strands, b.k_plus, b.k_minus) == (4, 9, 2)
    assert slice_bennequin_lower(b) == 2
    base = FactBase().extend(knots=[("k", [Presentation("braid", str(b))])])
    base = base.extend(relations=[Unknotting("k", 2, 0)])
    fixed, _ = propagate(base)
    assert fixed.knot("k").tau == Interval.exact(2)
    assert fixed.knot("k").g4 == Interval.exact(2)
    _ok(4, "(9+,2-) braid seed + unknotting by 2 positive-to-negative "
           "changes pins tau = g4 = 2")


def test_criterion_5_pretzel():
    assert pretzel_tau(PretzelParams((3, -5, -7))) == 1
    assert pretzel_tau(PretzelParams((3, 5, -7))) is None
    _ok(5, "P(3,-5,-7) has tau = 1; P(3,5,-7) reports inapplicable")


def test_criterion_6_whitehead_doubles():
    grid_text = "6 / X: 5 4 0 1 2 3 / O: 4 1 2 3 5 0"
    base = FactBase().extend(knots=[
        ("trefoil", [Presentation("grid", grid_text)])])
    for n in range(1, 6):
        base = base.extend(knots=[(f"wh{n}", ())])
        base = base.extend(relations=[Double("trefoil", f"wh{n}", n)])
    fixed, _ = propagate(base)
    assert fixed.knot("trefoil").tb == Interval.at_least(0)
    for n in range(1, 6):
        assert fixed.knot(f"wh{n}").tau == Interval.exact(1)
    _ok(6, "trefoil grid with tb = 0 certifies tau = 1 for Whitehead "
           "doubles n = 1..5")


def test_criterion_7_grid_properties():
    rng = random.Random(2026)
    for _ in range(500):
        g = random_grid(rng, rng.randint(2, 8))
        assert sum(corner_census(g).values()) == 2 * g.size
        assert writhe_grid(g) == brute_force_writhe(g)
        s = stabilize_ne(g, rng.randrange(g.size))
        if components(g) == 1:
            assert tb(s) == tb(g) - 1
    _ok(7, "500 random grids: corner census = 2n, writhe matches "
           "brute-force oracle, stabilization drops tb by 1")


def test_criterion_8_braid_parity():
    rng = random.Random(2027)
    for _ in range(500):
        b = random_knot_word(rng)
        assert (b.length - b.strands + 1) % 2 == 0
        assert (b.writhe - b.strands + 1) % 2 == 0
        assert slice_bennequin_lower(b) <= bennequin_genus(b)
    _ok(8, "500 random knot-closure words: both parities even and "
           "lower bound <= Bennequin genus")


def test_criterion_9_engine_confluence():
    base, _ = random_consistent_base(random.Random(2028), size=30)
    reference, _ = propagate(base)
    for seed in range(20):
        fixed, cert = propagate_shuffled(base, seed)
        assert fixed.records == reference.records
        assert replay(cert, base)
    _ok(9, "20 shuffled propagation orders: identical fixpoints, "
           "all certificates replay")


def test_criterion_10_crossing_change_chain():
    base = FactBase()
    for i in range(6):
        base = base.extend(knots=[(f"k{i}", ())])
    for i in range(5):
        base = base.extend(relations=[CrossingChange(f"k{i}", f"k{i + 1}")])
    base = base.extend(facts=[("k5", "tau_lower", 0, ""),
                              ("k5", "tau_upper", 0, "")])
    fixed, _ = propagate(base)
    assert fixed.knot("k0").tau == Interval(0, 5)
    _ok(10, "chain of 5 positive-to-negative changes to the unknot "
            "yields tau interval [0, 5]")


def test_bundled_catalog_end_to_end():
    base = load_bundled_catalog()
    fixed, cert = propagate(base)
    assert replay(cert, base)
    assert fixed.knot("10_139").tau == Interval.exact(4)
    assert fixed.knot("m10_161").tau == Interval.exact(3)
    assert fixed.knot("m10_145").tau == Interval.exact(2)
    assert fixed.knot("P(3,-5,-7)").tau == Interval.exact(1)
    print("PASS catalog: bundled deduction pins all golden values")
