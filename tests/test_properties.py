"""Property tests of the two unchecked fast paths against their checked
references: the report writer against json.dumps(indent=2), and interval
arithmetic built without the endpoint checks against the constructor."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from taucalc.errors import EmptyIntervalError
from taucalc.interval import NEG_INF, POS_INF, Interval
from taucalc.report import to_json

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
