import random
import sys

import pytest

from taucalc.errors import EmptyIntervalError
from taucalc.interval import NEG_INF, POS_INF, Interval


def test_construction_rejects_empty():
    with pytest.raises(EmptyIntervalError):
        Interval(3, 2)
    with pytest.raises(EmptyIntervalError):
        Interval(POS_INF, POS_INF)
    with pytest.raises(EmptyIntervalError):
        Interval(NEG_INF, NEG_INF)


def test_construction_rejects_non_integers():
    with pytest.raises(TypeError):
        Interval(0.5, 2)


def _built(make, *args):
    """(type, ends and their types) of make(*args), or (error type,
    message) of what it raises."""
    try:
        iv = make(*args)
    except (TypeError, EmptyIntervalError) as e:
        return type(e), str(e)
    return type(iv), tuple(iv), tuple(map(type, iv))


@pytest.mark.parametrize("v", [
    0, -5, 7, 10**400, -10**400, True, False, 1.5, 2.0, -0.0,
    float("nan"), NEG_INF, POS_INF, None, "3"])
def test_one_sided_bounds_match_the_checked_constructor(v):
    # at_least and at_most skip the checks for an int only: every other
    # value builds or fails exactly as Interval(...) does.
    assert _built(Interval.at_least, v) == _built(Interval, v, POS_INF)
    assert _built(Interval.at_most, v) == _built(Interval, NEG_INF, v)


def test_top_is_the_checked_top():
    assert _built(Interval.top) == _built(Interval, NEG_INF, POS_INF)
    assert Interval.top() is Interval.top()


def test_meet_basic():
    assert Interval(0, 5).meet(Interval(3, 9)) == Interval(3, 5)
    assert Interval.top().meet(Interval.exact(2)) == Interval.exact(2)
    with pytest.raises(EmptyIntervalError):
        Interval(0, 1).meet(Interval(3, 4))


def test_meet_lattice_laws():
    rng = random.Random(0)

    def rand_iv():
        lo = rng.choice([NEG_INF] + list(range(-5, 6)))
        hi = rng.choice(list(range(-5, 6)) + [POS_INF])
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)

    for _ in range(300):
        a, b, c = rand_iv(), rand_iv(), rand_iv()
        assert a.meet(a) == a
        try:
            ab = a.meet(b)
        except EmptyIntervalError:
            with pytest.raises(EmptyIntervalError):
                b.meet(a)
            continue
        assert ab == b.meet(a)
        try:
            assert ab.meet(c) == a.meet(b.meet(c))
        except EmptyIntervalError:
            pass


def test_arithmetic():
    assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)
    assert -Interval(1, 4) == Interval(-4, -1)
    assert Interval(1, 2) - Interval(0, 3) == Interval(-2, 2)
    assert Interval.at_least(3) + Interval.exact(1) == Interval.at_least(4)
    assert -Interval.at_least(3) == Interval.at_most(-3)
    assert Interval.top() + Interval.exact(5) == Interval.top()
    assert Interval.at_most(2) + Interval.at_most(3) == Interval.at_most(5)
    assert Interval.top() - Interval.top() == Interval.top()
    assert Interval.at_most(2) - Interval.at_least(3) == Interval.at_most(-1)
    # An int beyond float range still meets an infinite endpoint.
    assert Interval.at_least(10**400) + Interval.top() == Interval.top()


def test_widen_by():
    assert Interval.exact(4).widen_by(1) == Interval(3, 5)
    assert Interval.at_least(0).widen_by(2) == Interval.at_least(-2)
    assert Interval.top().widen_by(3) == Interval.top()
    assert Interval.at_most(1).widen_by(2) == Interval.at_most(3)
    assert Interval.at_most(1).widen_by(10**400) == Interval.at_most(
        10**400 + 1)


def test_contains():
    assert 3 in Interval(0, 5)
    assert 6 not in Interval(0, 5)
    assert 10**9 in Interval.at_least(0)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_printable_under_the_least_digit_limit():
    # 600 digits take more than the 3 x 640 bits that skip reading the limit.
    long, short = 10**699, 10**599
    assert short.bit_length() > 3 * 640
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert not Interval(-long, POS_INF).is_printable
        assert not Interval(0, long).is_printable
        assert Interval(-short, short).is_printable
        sys.set_int_max_str_digits(0)
        assert Interval(-long, short).is_printable
        assert Interval(NEG_INF, long).is_printable
    finally:
        sys.set_int_max_str_digits(limit)


def test_formatting():
    assert str(Interval.top()) == "[-inf, inf]"
    assert str(Interval.exact(3)) == "[3, 3]"
    assert str(NEG_INF) == "-inf"
