"""Closed-form invariant values for special knot families.

Covered: torus knots T(p,q) with p,q >= 2 coprime; odd pretzel knots whose
twist parameters are pairwise negative-sum (the embeddability criterion);
and iterated untwisted positive Whitehead doubles of companions with a
certified nonnegative Thurston-Bennequin lower bound.

Criteria that do not apply return None rather than guessing a value: an
inapplicable criterion says nothing about the invariant.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import TaucalcError


class TorusParams(namedtuple("TorusParams", "p q")):
    __slots__ = ()

    def __new__(cls, p, q):
        if p < 2 or q < 2:
            raise TaucalcError(f"need p, q >= 2, got ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise TaucalcError(f"T({p},{q}) is a link, not a knot (gcd > 1)")
        return super().__new__(cls, p, q)


class PretzelParams(namedtuple("PretzelParams", "twists")):
    __slots__ = ()

    def __new__(cls, twists):
        twists = tuple(twists)
        if not twists:
            raise TaucalcError("pretzel needs at least one twist region")
        return super().__new__(cls, twists)


def tau_torus(t: TorusParams) -> int:
    """(p-1)(q-1)/2, the Seifert genus of the torus knot's fiber surface."""
    return (t.p - 1) * (t.q - 1) // 2


def pretzel_tau(p: PretzelParams) -> int | None:
    """(k-1)/2 when k and all twists are odd and every pairwise sum is
    negative, which holds when the two largest twists sum to a negative
    number; None when the criterion does not apply."""
    k = len(p.twists)
    if k % 2 == 0 or any(t % 2 == 0 for t in p.twists):
        return None
    i = p.twists.index(max(p.twists))
    rest = p.twists[:i] + p.twists[i + 1:]
    if rest and p.twists[i] + max(rest) >= 0:
        return None
    return (k - 1) // 2


def whitehead_double_tau(tb_lower: int) -> int | None:
    """Invariant of every iterated untwisted positive Whitehead double of a
    companion with Thurston-Bennequin lower bound `tb_lower`: 1 when the
    bound is nonnegative, None otherwise.  The value is also the slice
    genus of the double.  Independent of the iteration count: the first
    double itself has Thurston-Bennequin number >= 1."""
    if tb_lower < 0:
        return None
    return 1
