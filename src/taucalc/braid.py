"""Braid words, their closures, and genus bounds from the Bennequin surface.

A word on n strands is a sequence of nonzero letters; letter +i is the
generator sigma_i (a positive crossing between strands i and i+1), -i its
inverse.  The closure of the word is a link; it is a knot exactly when the
underlying permutation is a single n-cycle.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import TaucalcError


class BraidWord(namedtuple("BraidWord", "strands letters")):
    """Word in the braid group B_n as signed generator indices."""

    __slots__ = ()

    def __new__(cls, strands, letters=()):
        if strands < 1:
            raise TaucalcError(f"need at least one strand, got {strands}")
        letters = tuple(letters)
        for l in letters:
            if l == 0:
                raise TaucalcError("letter 0 is not a generator")
            if abs(l) >= strands:
                raise TaucalcError(
                    f"letter {l} out of range for {strands} strands")
        return super().__new__(cls, strands, letters)

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def k_plus(self) -> int:
        return sum(1 for l in self.letters if l > 0)

    @property
    def k_minus(self) -> int:
        return sum(1 for l in self.letters if l < 0)

    @property
    def writhe(self) -> int:
        return self.k_plus - self.k_minus

    @property
    def is_positive(self) -> bool:
        return self.k_minus == 0

    def __str__(self) -> str:
        return f"{self.strands}: " + " ".join(str(l) for l in self.letters)


_HEAD = re.compile(r"^\s*(\d+)\s*:\s*(.*)$", re.S)


def parse_braid(text: str) -> BraidWord:
    """Parse `n: l1 l2 ... lk` into a BraidWord.

    >>> parse_braid("3: 1 -2 1 -2")
    BraidWord(strands=3, letters=(1, -2, 1, -2))
    """
    m = _HEAD.match(text)
    if m is None:
        raise TaucalcError(f"expected 'n: letters', got {text!r}")
    try:
        n = int(m.group(1))
    except ValueError:
        raise TaucalcError(
            "braid strand count has more digits than int() reads") from None
    letters = []
    for tok in m.group(2).split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise TaucalcError(f"bad braid letter {tok!r}") from None
    return BraidWord(n, tuple(letters))


def count_cycles(images) -> int:
    """Number of cycles of the permutation p -> images[p]."""
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
    return count


def closure_components(b: BraidWord) -> int:
    """Number of link components of the braid closure, in O(length) time:
    each strand no letter touches closes on its own."""
    at = {}  # at[pos]: the strand now at touched position pos
    for l in b.letters:
        i = abs(l)
        at[i - 1], at[i] = at.get(i, i), at.get(i - 1, i - 1)
    index = {pos: n for n, pos in enumerate(at)}
    touched = count_cycles([index[strand] for strand in at.values()])
    return touched + b.strands - len(at)


def _require_knot(b: BraidWord) -> None:
    c = closure_components(b)
    if c != 1:
        raise TaucalcError(f"closure has {c} components, need 1")


def bennequin_genus(b: BraidWord) -> int:
    """Genus (k - n + 1) / 2 of the banded Seifert surface of the closure:
    n disks joined by k twisted bands, Euler characteristic n - k.  For a
    knot the closure permutation is an n-cycle, of sign (-1)^(n-1), and a
    product of k transpositions, of sign (-1)^k, so k - n + 1 is even."""
    _require_knot(b)
    return (b.length - b.strands + 1) // 2


def tau_positive_braid(b: BraidWord) -> int:
    """Exact concordance invariant (k - n + 1) / 2 for a positive braid word
    with knot closure; the same value is the slice genus and Seifert genus."""
    if not b.is_positive:
        raise TaucalcError(f"word has {b.k_minus} negative letters")
    return bennequin_genus(b)


def slice_bennequin_lower(b: BraidWord) -> int:
    """Lower bound (k+ - k- - n + 1) / 2 for the invariant of the closure;
    the writhe has the parity of k, so the numerator is even."""
    _require_knot(b)
    return (b.writhe - b.strands + 1) // 2
