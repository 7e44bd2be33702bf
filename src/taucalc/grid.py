"""Rectangular (grid) diagrams and their Thurston-Bennequin numbers.

A size-n grid has one X and one O marker in every row and every column.
Each row carries a horizontal segment joining its two markers; each column
a vertical segment.  At every crossing the horizontal strand passes over
the vertical one.

Coordinates: row 0 is the southernmost row, column 0 the westernmost
column; "north" means increasing row index.  Orientation: within a row the
strand runs O to X, within a column X to O.  The crossing sign convention
is pinned by the bundled positive-trefoil diagram having writhe +3.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .braid import count_cycles
from .errors import TaucalcError

CORNER_KINDS = ("NE", "NW", "SE", "SW")


class GridDiagram(namedtuple("GridDiagram", "size xs os")):
    """xs[r] / os[r] give the column of the X / O marker in row r."""

    __slots__ = ()

    def __new__(cls, size, xs, os):
        if size < 2:
            raise TaucalcError(f"grid size must be >= 2, got {size}")
        xs, os = tuple(xs), tuple(os)
        for name, perm in (("X", xs), ("O", os)):
            if sorted(perm) != list(range(size)):
                raise TaucalcError(f"{name} columns are not a permutation "
                                   f"of 0..{size - 1}: {perm}")
        for r in range(size):
            if xs[r] == os[r]:
                raise TaucalcError(
                    f"X and O share cell (row {r}, column {xs[r]})")
        return super().__new__(cls, size, xs, os)


def parse_grid(text: str) -> GridDiagram:
    """Parse the three-line format `n` / `X: cols` / `O: cols`.

    Lines may be separated by newlines or by `/`.
    """
    lines = [s.strip() for s in re.split(r"[/\n]", text) if s.strip()]
    if len(lines) != 3:
        raise TaucalcError(f"expected 3 lines (n, X:, O:), got {len(lines)}")
    try:
        n = int(lines[0])
    except ValueError:
        raise TaucalcError(f"bad grid size {lines[0]!r}") from None
    cols = {}
    for line in lines[1:]:
        m = re.match(r"^([XO])\s*:\s*(.*)$", line)
        if m is None:
            raise TaucalcError(f"expected 'X: ...' or 'O: ...', got {line!r}")
        try:
            cols[m.group(1)] = tuple(int(t) for t in m.group(2).split())
        except ValueError:
            raise TaucalcError(f"bad column index in {line!r}") from None
    if set(cols) != {"X", "O"}:
        raise TaucalcError("need exactly one X: line and one O: line")
    if len(cols["X"]) != n or len(cols["O"]) != n:
        raise TaucalcError("marker row count does not match grid size")
    return GridDiagram(n, cols["X"], cols["O"])


def _rows(cols: tuple[int, ...]) -> list[int]:
    """Inverse of a marker permutation: rows[c] is the row whose marker
    sits in column c."""
    rows = [0] * len(cols)
    for r, c in enumerate(cols):
        rows[c] = r
    return rows


def components(g: GridDiagram) -> int:
    """Closed curves traced by alternating row (O to X) and column (X to O)
    segments.  Row r's successor is the row holding the O of column xs[r]."""
    o_row = _rows(g.os)
    return count_cycles([o_row[c] for c in g.xs])


def crossings(g: GridDiagram) -> list[tuple[int, int, int]]:
    """All (row, column, sign) where row r's horizontal segment strictly
    spans column c and column c's vertical strictly spans row r.

    Sign: +1 when the horizontal (eastward = +1) and vertical (northward =
    +1) directions agree in sign, -1 otherwise.
    """
    x_row, o_row = _rows(g.xs), _rows(g.os)
    out = []
    for r, (x, o) in enumerate(zip(g.xs, g.os)):
        h_dir = 1 if x > o else -1
        for c in range(min(x, o) + 1, max(x, o)):
            if min(x_row[c], o_row[c]) < r < max(x_row[c], o_row[c]):
                v_dir = 1 if o_row[c] > x_row[c] else -1
                out.append((r, c, h_dir * v_dir))
    return out


def writhe_grid(g: GridDiagram) -> int:
    return sum(s for _, _, s in crossings(g))


def corner_census(g: GridDiagram) -> dict[str, int]:
    """Classify all 2n markers by which compass extreme of their two
    incident segments they occupy."""
    x_row, o_row = _rows(g.xs), _rows(g.os)
    census = dict.fromkeys(CORNER_KINDS, 0)
    for r in range(g.size):
        for c, other_col, other_row in (
            (g.xs[r], g.os[r], o_row[g.xs[r]]),
            (g.os[r], g.xs[r], x_row[g.os[r]]),
        ):
            east = "E" if other_col < c else "W"  # horizontal extends west -> marker east
            north = "N" if other_row < r else "S"  # vertical extends south -> marker north
            census[north + east] += 1
    return census


def tb(g: GridDiagram) -> int:
    """Writhe minus the number of northeast corners."""
    c = components(g)
    if c != 1:
        raise TaucalcError(f"diagram has {c} components, need 1")
    return writhe_grid(g) - corner_census(g)["NE"]
