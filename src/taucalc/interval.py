"""Exact integer intervals with infinite endpoints.

Endpoints are Python ints or Python's float infinities, used purely as
order sentinels; str() prints them as "-inf" and "inf".  All finite
arithmetic stays in int.  `_add` absorbs a finite addend into an infinite
one, which is an end of type float, without converting it, because
Python's int + float raises OverflowError for an int past ~1e308.  The
indeterminate inf - inf cannot arise in one slot because lo = +inf and
hi = -inf are rejected at construction.

Negation, addition, subtraction, `meet` and R2's three conclusions in
`deduce` skip the endpoint checks: each builds its result with
`_unchecked`, the one constructor that does.  That is sound by closure:
from valid operands (int or -inf below, int or +inf above, lo <= hi) each
yields valid endpoints, and `meet` still rejects lo > hi.  R2 builds
[-g4.hi, g4.hi], [max(0, tau.lo, -tau.hi), inf] and [-inf, g3.hi] from a
knot's records, whose g4 and g3 start at [0, inf] and only narrow, so
g4.hi and g3.hi are ints >= 0 or +inf.  `top` is one unchecked
[-inf, inf], and `at_least` and `at_most` of an int build [v, inf] and
[-inf, v] unchecked, valid for every int v; any other v goes through the
checks.  Every operand is valid, because every `Interval` is built by
`Interval(...)`, which runs the checks, or by `_unchecked` from valid
ends.  So R5 builds [-g, g] from an outside genus g with `Interval(...)`
and shifts the other knot's tau by it with `+` and `-`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import partial

from .errors import EmptyIntervalError

NEG_INF = float("-inf")
POS_INF = float("inf")
# The digit limit of str(int), 0 where it is off or (before 3.11) absent.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# The least limit other than 0 is the threshold (640), and a digit is over
# 3 bits, so an int of at most this many bits prints under every limit.
_SHORT_BITS = 3 * getattr(sys.int_info, "str_digits_check_threshold", 640)
_SHORT = 1 << _SHORT_BITS  # an int v has at most _SHORT_BITS bits iff |v| < it
FORMAT = "[%s, %s]"  # the text of an interval, from (lo, hi)


def _check_endpoint(v):
    if type(v) is int:  # not a bool
        return v
    if v == NEG_INF or v == POS_INF:
        return v
    raise TypeError(f"interval endpoint must be int or +/-inf, got {v!r}")


class Interval(namedtuple("Interval", "lo hi")):
    """Closed integer interval [lo, hi], possibly unbounded on either side."""

    __slots__ = ()

    def __new__(cls, lo, hi):
        if type(lo) is int and type(hi) is int and lo <= hi:
            return tuple.__new__(cls, (lo, hi))  # the hottest constructor
        lo = _check_endpoint(lo)
        hi = _check_endpoint(hi)
        if lo == POS_INF or hi == NEG_INF:
            raise EmptyIntervalError(f"degenerate endpoints [{lo}, {hi}]")
        if lo > hi:
            raise EmptyIntervalError(f"empty interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @staticmethod
    def top() -> "Interval":
        return _TOP

    @staticmethod
    def exact(v: int) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def at_least(v: int) -> "Interval":
        if type(v) is int:
            return _unchecked((v, POS_INF))
        return Interval(v, POS_INF)  # a non-int: the checks decide

    @staticmethod
    def at_most(v: int) -> "Interval":
        if type(v) is int:
            return _unchecked((NEG_INF, v))
        return Interval(NEG_INF, v)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, v) -> bool:
        return self.lo <= v <= self.hi

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; raises EmptyIntervalError if disjoint."""
        lo = other[0] if other[0] > self[0] else self[0]
        hi = other[1] if other[1] < self[1] else self[1]
        if lo > hi:
            raise EmptyIntervalError(f"empty interval [{lo}, {hi}]")
        return _unchecked((lo, hi))

    def __neg__(self) -> "Interval":
        return _unchecked((-self.hi, -self.lo))

    def __add__(self, other: "Interval") -> "Interval":
        # lo slots only ever add {-inf, finite}; hi slots {finite, +inf}.
        return _unchecked((_add(self.lo, other.lo), _add(self.hi, other.hi)))

    def __sub__(self, other: "Interval") -> "Interval":
        return _unchecked((_add(self.lo, -other.hi),
                           _add(self.hi, -other.lo)))

    @property
    def is_printable(self) -> bool:
        """False if an endpoint has more digits than str() prints, on a
        Python with that limit.  Ends of at most `_SHORT_BITS` bits return
        at once, and ends of at most 3 bits a digit skip the power of 10."""
        lo, hi = self
        if ((lo == NEG_INF or abs(lo) < _SHORT)
                and (hi == POS_INF or abs(hi) < _SHORT)):
            return True
        for v in self:
            if type(v) is int and v.bit_length() > _SHORT_BITS:
                limit = _max_str_digits()
                if (limit and v.bit_length() > 3 * limit
                        and abs(v) >= 10**limit):
                    return False
        return True

    def __str__(self) -> str:
        return FORMAT % self


# Builds an Interval from (lo, hi) without the checks; see the module
# docstring for why each caller's ends are valid.
_unchecked = partial(tuple.__new__, Interval)
_TOP = _unchecked((NEG_INF, POS_INF))


def _add(a, b):
    if type(a) is float:
        return a
    if type(b) is float:
        return b
    return a + b
