import random

import pytest

from taucalc.braid import (
    BraidWord,
    bennequin_genus,
    closure_components,
    parse_braid,
    slice_bennequin_lower,
    tau_positive_braid,
)
from taucalc.errors import TaucalcError

from .util import (
    mirror_braid,
    random_braid_word,
    random_knot_word,
    strand_trace_cycles,
)


class TestParse:
    def test_basic(self):
        assert parse_braid("2: 1 1 1") == BraidWord(2, (1, 1, 1))
        assert parse_braid("3: 1 -2 1 -2") == BraidWord(3, (1, -2, 1, -2))

    def test_empty_word(self):
        assert parse_braid("1:") == BraidWord(1, ())
        assert parse_braid("4:  ") == BraidWord(4, ())

    def test_letter_out_of_range(self):
        with pytest.raises(TaucalcError, match="letter 3 out of range"):
            parse_braid("2: 3")
        with pytest.raises(TaucalcError, match="letter -3 out of range"):
            parse_braid("3: 1 -3")
        with pytest.raises(TaucalcError, match="letter 0 is not a generator"):
            parse_braid("2: 0")

    def test_malformed(self):
        with pytest.raises(TaucalcError, match="expected 'n: letters'"):
            parse_braid("no header")
        with pytest.raises(TaucalcError, match="bad braid letter 'x'"):
            parse_braid("2: 1 x 1")


class TestClosure:
    def test_trefoil_single_cycle(self):
        assert closure_components(BraidWord(2, (1, 1, 1))) == 1

    def test_two_letter_three_cycle(self):
        assert closure_components(BraidWord(3, (1, 2))) == 1

    def test_empty_word_identity(self):
        assert closure_components(BraidWord(3, ())) == 3

    def test_multi_component_closures(self):
        # sigma_1^2 in B_3: strands 1 and 2 each close up separately, plus
        # the untouched third strand.
        assert closure_components(BraidWord(3, (1, 1))) == 3
        assert closure_components(BraidWord(2, (1, 1))) == 2

    def test_strand_tracing_oracle(self):
        rng = random.Random(2)
        for _ in range(300):
            b = random_braid_word(rng)
            assert closure_components(b) == strand_trace_cycles(b)

    def test_untouched_strands(self):
        # Strands no letter touches, below or above the letters, each close
        # on their own.
        rng = random.Random(3)
        for _ in range(100):
            b = random_braid_word(rng)
            below, above = rng.randint(0, 6), rng.randint(0, 6)
            padded = BraidWord(below + b.strands + above, tuple(
                l + below if l > 0 else l - below for l in b.letters))
            assert closure_components(padded) == strand_trace_cycles(padded)
            assert closure_components(padded) == \
                closure_components(b) + below + above


class TestGenus:
    def test_trefoil(self):
        assert bennequin_genus(BraidWord(2, (1, 1, 1))) == 1

    def test_three_strand_length_ten(self):
        b = BraidWord(3, (1, 1, 1, 2, 1, 1, 1, 2, 2, 2))
        assert closure_components(b) == 1
        assert bennequin_genus(b) == 4

    def test_unknot(self):
        assert bennequin_genus(BraidWord(1, ())) == 0

    def test_rejects_links(self):
        with pytest.raises(TaucalcError, match="closure has 3 components"):
            bennequin_genus(BraidWord(3, ()))


class TestTauPositive:
    def test_trefoil(self):
        assert tau_positive_braid(BraidWord(2, (1, 1, 1))) == 1

    def test_length_ten(self):
        assert tau_positive_braid(BraidWord(3, (1, 1, 1, 2, 1, 1, 1, 2, 2, 2))) == 4

    def test_rejects_negative_letters(self):
        with pytest.raises(TaucalcError, match="1 negative letters"):
            tau_positive_braid(BraidWord(2, (1, -1, 1)))

    def test_agrees_with_slice_bennequin(self):
        rng = random.Random(3)
        for _ in range(100):
            b = random_knot_word(rng)
            if not b.is_positive:
                b = BraidWord(b.strands, tuple(abs(l) for l in b.letters))
            assert tau_positive_braid(b) == slice_bennequin_lower(b)


class TestSliceBennequin:
    def test_nine_plus_one_minus(self):
        b = BraidWord(3, (1, 1, 1, -2, 1, 1, 1, 2, 2, 2))
        assert closure_components(b) == 1
        assert slice_bennequin_lower(b) == 3

    def test_nine_plus_two_minus(self):
        b = BraidWord(4, (1, 1, 2, 1, 1, 2, 3, 2, -1, 3, -3))
        assert closure_components(b) == 1
        assert slice_bennequin_lower(b) == 2

    def test_negative_bound(self):
        assert slice_bennequin_lower(BraidWord(3, (1, -2, 1, -2))) == -1

    def test_rejects_links(self):
        with pytest.raises(TaucalcError, match="closure has 2 components"):
            slice_bennequin_lower(BraidWord(3, (1,)))


class TestMirror:
    def test_letterwise_negation(self):
        assert mirror_braid(BraidWord(2, (1, 1, 1))).letters == (-1, -1, -1)
        assert mirror_braid(BraidWord(1, ())).letters == ()

    def test_involution_and_counts(self):
        rng = random.Random(4)
        for _ in range(100):
            b = random_braid_word(rng)
            m = mirror_braid(b)
            assert mirror_braid(m) == b
            assert m.strands == b.strands
            assert (m.k_plus, m.k_minus) == (b.k_minus, b.k_plus)
            assert m.writhe == -b.writhe


def test_counts_match_a_direct_count():
    # k_plus and the writhe are derived from k_minus and the length, so
    # every word here has a negative letter.
    rng = random.Random(6)
    for _ in range(300):
        w = random_braid_word(rng, max_length=30)
        b = BraidWord(w.strands, w.letters + (-rng.randint(1, w.strands - 1),))
        plus = len([l for l in b.letters if l > 0])
        minus = len([l for l in b.letters if l < 0])
        assert (b.length, b.k_plus, b.k_minus, b.writhe) == (
            plus + minus, plus, minus, plus - minus)


def test_parity_of_knot_closures():
    rng = random.Random(5)
    for _ in range(300):
        b = random_knot_word(rng)
        assert (b.length - b.strands + 1) % 2 == 0
        assert (b.writhe - b.strands + 1) % 2 == 0
        assert slice_bennequin_lower(b) <= bennequin_genus(b)
