import math
import random
from itertools import combinations, permutations

import pytest

from taucalc.braid import (
    bennequin_genus,
    closure_components,
    parse_braid,
    tau_positive_braid,
)
from taucalc.deduce import Double, FactBase, Mirror, Presentation, propagate
from taucalc.errors import TaucalcError
from taucalc.families import (
    PretzelParams,
    TorusParams,
    pretzel_tau,
    tau_torus,
    whitehead_double_tau,
)
from taucalc.interval import Interval

from .util import torus_braid


class TestTorus:
    def test_braid_word(self):
        assert torus_braid(TorusParams(2, 3)).letters == (1, 1, 1)
        b = torus_braid(TorusParams(3, 4))
        assert b.strands == 3
        assert b.letters == (1, 2) * 4
        assert closure_components(b) == 1

    def test_invariants_rejected(self):
        with pytest.raises(TaucalcError, match=r"T\(2,4\) is a link"):
            TorusParams(2, 4)  # gcd 2: a link
        with pytest.raises(TaucalcError, match=r"need p, q >= 2, got \(1"):
            TorusParams(1, 5)

    @pytest.mark.parametrize("p,q,expected", [(2, 3, 1), (3, 5, 4), (4, 5, 6)])
    def test_tau_values(self, p, q, expected):
        assert tau_torus(TorusParams(p, q)) == expected

    def test_consistency_sweep(self):
        for p in range(2, 9):
            for q in range(p + 1, 9):
                if math.gcd(p, q) != 1:
                    continue
                t = TorusParams(p, q)
                b = torus_braid(t)
                assert tau_torus(t) == tau_positive_braid(b) == bennequin_genus(b)

    def test_symmetry(self):
        for p, q in [(2, 5), (3, 7), (4, 9)]:
            assert tau_torus(TorusParams(p, q)) == tau_torus(TorusParams(q, p))
            assert tau_positive_braid(torus_braid(TorusParams(q, p))) == \
                tau_torus(TorusParams(p, q))


class TestPretzel:
    def test_three_twist_example(self):
        assert pretzel_tau(PretzelParams((3, -5, -7))) == 1

    def test_five_strand(self):
        assert pretzel_tau(PretzelParams((-3, -5, -7, -9, -11))) == 2

    def test_inapplicable(self):
        assert pretzel_tau(PretzelParams((3, 5, -7))) is None  # 3 + 5 >= 0
        assert pretzel_tau(PretzelParams((3, -5, -7, -9))) is None  # even k
        assert pretzel_tau(PretzelParams((2, -5, -7))) is None  # even twist

    def test_matches_pairwise_oracle(self):
        def oracle(twists):
            if len(twists) % 2 == 0 or any(t % 2 == 0 for t in twists):
                return None
            if any(a + b >= 0 for a, b in combinations(twists, 2)):
                return None
            return (len(twists) - 1) // 2

        rng = random.Random(0)
        values = [range(-9, 10), range(-9, 10, 2)]  # any, or all odd
        for _ in range(2000):
            pool = rng.choice(values)
            twists = tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))
            assert pretzel_tau(PretzelParams(twists)) == oracle(twists), twists
        for t in (-3, 1, 5):  # k = 1 has no pair
            assert pretzel_tau(PretzelParams((t,))) == oracle((t,)) == 0

    def test_many_twists(self):
        assert pretzel_tau(PretzelParams((-3,) * 20001)) == 10000

    def test_permutation_invariant(self):
        for twists in permutations((3, -5, -7)):
            assert pretzel_tau(PretzelParams(twists)) == 1
        for twists in permutations((3, 5, -7)):
            assert pretzel_tau(PretzelParams(twists)) is None

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_negative_ones_are_positive_torus_knots(self, k):
        # Sign convention: P(-1, ..., -1) with k odd entries is T(2, k).
        word = parse_braid("2: " + " ".join(["1"] * k))
        assert pretzel_tau(PretzelParams((-1,) * k)) == (k - 1) // 2
        assert tau_torus(TorusParams(2, k)) == (k - 1) // 2
        assert tau_positive_braid(word) == (k - 1) // 2

    def test_mirror_agrees_with_negative_braid(self):
        base = FactBase().extend(knots=[
            ("p", [Presentation("pretzel", "-1 -1 -1")])])
        base = base.extend(knots=[
            ("m", [Presentation("braid", "2: -1 -1 -1")])])
        fixed, _ = propagate(base.extend(relations=[Mirror("p", "m")]))
        assert fixed.knot("m").tau == Interval.exact(-1)


def double_tau(iterations: int, tb_lower: int) -> int | None:
    """tau of the `iterations`-fold double of a companion with the given
    tb lower bound, as R7-double derives it; None when it does not fire."""
    base = FactBase().extend(knots=[("k", ()), ("wh", ())])
    base = base.extend(facts=[("k", "tb_lower", tb_lower, "")])
    base = base.extend(relations=[Double("k", "wh", iterations)])
    fixed, _ = propagate(base)
    tau = fixed.knot("wh").tau
    return tau.lo if tau.is_exact else None


class TestWhiteheadDouble:
    def test_nonnegative_tb(self):
        assert whitehead_double_tau(0) == 1
        assert double_tau(1, 0) == 1
        assert double_tau(7, 0) == 1
        assert double_tau(3, 5) == 1

    def test_negative_tb_inapplicable(self):
        assert whitehead_double_tau(-2) is None
        assert double_tau(1, -2) is None

    def test_independent_of_iterations(self):
        values = {double_tau(n, 0) for n in range(1, 9)}
        assert values == {1}

    def test_iterations_validated(self):
        with pytest.raises(TaucalcError, match="iterations must be an"):
            Double("k", "wh", 0)
