"""Shared random generators, diagram and word generators, and independent
oracles for the test suite."""

from __future__ import annotations

import argparse
import os
import random
from unittest import mock

from taucalc import deduce
from taucalc.braid import BraidWord, closure_components
from taucalc.cli import (_cmd_braid, _cmd_double, _cmd_grid, _cmd_pretzel,
                         _cmd_torus, _run_deduction)
from taucalc.deduce import (CrossingChange, Cobordism, FactBase, Mirror,
                            Presentation, Sum, Unknotting)
from taucalc.errors import TaucalcError
from taucalc.families import TorusParams
from taucalc.grid import GridDiagram, components, corner_census


def propagate_shuffled(base: deduce.FactBase, seed: int):
    """`propagate(base)` with its initial order of rule instances shuffled
    by `random.Random(seed)`: the fixpoint must not depend on the order,
    and each order gives a certificate that must replay.  `propagate` puts
    each instance in the queue of its priority class, whose order is
    fixed (seeds and relations, then R2), so a shuffle permutes the order
    within each class, and mixes seeds in among the relations."""
    instances = deduce._instances

    def shuffled(b):
        out = instances(b)
        random.Random(seed).shuffle(out)
        return out
    with mock.patch.object(deduce, "_instances", shuffled):
        return deduce.propagate(base)


def relations_reversed(base: deduce.FactBase) -> deduce.FactBase:
    """`base` with its relations in the reverse order of insertion."""
    return type(base)(base.presentations, base.bounds, base.relations[::-1])


def columns_of(records: dict) -> dict:
    """The bounds of `records` (knot id -> KnotRecord) as a run's state
    holds them: quantity -> knot id -> Interval."""
    return {q: {id: getattr(rec, q) for id, rec in records.items()}
            for q in deduce._TOP}


def base_of(records: dict) -> deduce.FactBase:
    """The base whose knots are `records` (knot id -> KnotRecord), with no
    relations."""
    return deduce.FactBase({id: rec.presentations
                            for id, rec in records.items()},
                           columns_of(records))


def least_budget(base: deduce.FactBase) -> int:
    """The least TAU_STEP_BUDGET under which `propagate(base)` completes,
    by bisection: the number of rule evaluations it makes."""
    def completes(budget):
        with mock.patch.dict(os.environ, TAU_STEP_BUDGET=str(budget)):
            try:
                deduce.propagate(base)
            except TaucalcError as e:
                if "exceeded step budget" not in str(e):
                    raise
                return False
        return True
    fails, hi = -1, 1  # budget `fails` does not complete, `hi` does
    while not completes(hi):
        fails, hi = hi, 2 * hi
    while hi - fails > 1:
        mid = (fails + hi) // 2
        fails, hi = (fails, mid) if completes(mid) else (mid, hi)
    return hi


def random_consistent_base(rng, size=30):
    """Fact base with a hidden ground-truth tau per knot; every fact and
    relation is consistent with the truth, so propagation cannot go empty
    and every final interval must contain the truth."""
    coprime = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)]
    base = FactBase()
    truth = {}
    ids = []
    for i in range(size):
        id = f"k{i}"
        kind = rng.random()
        if kind < 0.3 or not ids:
            p, q = rng.choice(coprime)
            base = base.extend(knots=[
                (id, [Presentation("torus", f"{p} {q}")])])
            truth[id] = (p - 1) * (q - 1) // 2
        elif kind < 0.5:
            other = rng.choice(ids)
            base = base.extend(knots=[(id, ())])
            base = base.extend(relations=[Mirror(other, id)])
            truth[id] = -truth[other]
        elif kind < 0.7:
            a, b = rng.choice(ids), rng.choice(ids)
            base = base.extend(knots=[(id, ())])
            base = base.extend(relations=[Sum(a, b, id)])
            truth[id] = truth[a] + truth[b]
        else:
            t = rng.randint(-4, 4)
            base = base.extend(knots=[(id, ())])
            base = base.extend(facts=[
                (id, "tau_lower", t - rng.randint(0, 2), "")])
            base = base.extend(facts=[
                (id, "tau_upper", t + rng.randint(0, 2), "")])
            truth[id] = t
        ids.append(id)
    for _ in range(size // 2):
        a, b = rng.choice(ids), rng.choice(ids)
        kind = rng.random()
        if kind < 0.4:
            if truth[a] >= truth[b] and truth[a] - truth[b] <= 1:
                base = base.extend(relations=[CrossingChange(a, b)])
        elif kind < 0.8:
            g = abs(truth[a] - truth[b]) + rng.randint(0, 2)
            base = base.extend(relations=[Cobordism(a, b, g)])
        else:
            p = max(truth[a], 0) + rng.randint(0, 2)
            m = max(-truth[a], 0) + rng.randint(0, 2)
            base = base.extend(relations=[Unknotting(a, p, m)])
    return base, truth


def random_braid_word(rng: random.Random, max_strands: int = 5,
                      max_length: int = 14) -> BraidWord:
    n = rng.randint(2, max_strands)
    k = rng.randint(0, max_length)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(k)
    )
    return BraidWord(n, letters)


def random_knot_word(rng: random.Random, **kw) -> BraidWord:
    """Rejection-sample a braid word whose closure is a knot."""
    while True:
        b = random_braid_word(rng, **kw)
        if closure_components(b) == 1:
            return b


def random_grid(rng: random.Random, size: int) -> GridDiagram:
    while True:
        xs = list(range(size))
        os = list(range(size))
        rng.shuffle(xs)
        rng.shuffle(os)
        if all(x != o for x, o in zip(xs, os)):
            return GridDiagram(size, tuple(xs), tuple(os))


def mirror_braid(b: BraidWord) -> BraidWord:
    """Letter-wise negation; the closure becomes the mirror knot.

    The mirror's closure stands in for the concordance inverse: the invariant
    is insensitive to the orientation reversal separating the two, so every
    deduction using it is unaffected.
    """
    return BraidWord(b.strands, tuple(-l for l in b.letters))


def torus_braid(t: TorusParams) -> BraidWord:
    """The standard p-strand positive word (sigma_1 ... sigma_{p-1})^q."""
    block = tuple(range(1, t.p))
    return BraidWord(t.p, block * t.q)


def reflect_columns(g: GridDiagram) -> GridDiagram:
    """Mirror the diagram across a vertical axis; negates every crossing sign."""
    n = g.size
    return GridDiagram(
        n,
        tuple(n - 1 - c for c in g.xs),
        tuple(n - 1 - c for c in g.os),
    )


def reflect_rows(g: GridDiagram) -> GridDiagram:
    """Mirror the diagram across a horizontal axis; negates every crossing
    sign."""
    return GridDiagram(g.size, g.xs[::-1], g.os[::-1])


def commutable_columns(g: GridDiagram) -> list[int]:
    """Each column c whose vertical segment and that of column c + 1 share
    no row and do not interleave (one lies beside or inside the other):
    swapping the two is a commutation, a Legendrian isotopy."""
    x_row = {c: r for r, c in enumerate(g.xs)}
    o_row = {c: r for r, c in enumerate(g.os)}
    out = []
    for c in range(g.size - 1):
        lo, hi = sorted((x_row[c], o_row[c]))
        ends = x_row[c + 1], o_row[c + 1]
        # Both ends of column c + 1 inside column c's span, or both outside.
        if lo not in ends and hi not in ends and len(
                {lo < r < hi for r in ends}) == 1:
            out.append(c)
    return out


def swap_columns(g: GridDiagram, c: int) -> GridDiagram:
    """The diagram with columns c and c + 1 exchanged, markers and all."""
    def moved(col):
        return c + 1 if col == c else c if col == c + 1 else col
    return GridDiagram(g.size, tuple(map(moved, g.xs)),
                       tuple(map(moved, g.os)))


def crossings(g: GridDiagram) -> list[tuple[int, int, int]]:
    """All (row, column, sign) where row r's horizontal segment strictly
    spans column c and column c's vertical strictly spans row r: the
    reference enumerator of `writhe_grid`, one visit per spanned cell.

    Sign: +1 when the horizontal (eastward = +1) and vertical (northward =
    +1) directions agree in sign, -1 otherwise.
    """
    x_row = {c: r for r, c in enumerate(g.xs)}
    o_row = {c: r for r, c in enumerate(g.os)}
    out = []
    for r, (x, o) in enumerate(zip(g.xs, g.os)):
        h_dir = 1 if x > o else -1
        for c in range(min(x, o) + 1, max(x, o)):
            if min(x_row[c], o_row[c]) < r < max(x_row[c], o_row[c]):
                v_dir = 1 if o_row[c] > x_row[c] else -1
                out.append((r, c, h_dir * v_dir))
    return out


def stabilize_ne(g: GridDiagram, row: int) -> GridDiagram:
    """Split the X of `row` into an elbow, adding exactly one northeast
    corner and no crossings; the diagram's Thurston-Bennequin number drops
    by 1.

    The new row/column are inserted on the side of the X facing its
    horizontal segment, so no old segment ever lengthens across an old
    grid line; the postcondition is checked before returning.
    """
    n = g.size
    if not 0 <= row < n:
        raise ValueError(f"row {row} out of range for size {n}")
    c = g.xs[row]
    # d = 0: the horizontal extends west, so the new column goes west of c
    # and the new row south of `row`; d = 1: east of c and north of `row`.
    d = 1 if g.os[row] > c else 0
    xs = [x + (x >= c + d) for x in g.xs]
    os = [o + (o >= c + d) for o in g.os]
    xs[row] = c + d
    xs.insert(row + d, c + 1 - d)
    os.insert(row + d, c + d)
    out = GridDiagram(n + 1, tuple(xs), tuple(os))

    # The move is an isotopy adding one NE corner; anything else is a bug.
    if (
        components(out) != components(g)
        or sorted(s for _, _, s in crossings(out))
        != sorted(s for _, _, s in crossings(g))
        or corner_census(out)["NE"] != corner_census(g)["NE"] + 1
    ):
        raise AssertionError("stabilization postcondition violated")
    return out


def strand_trace_cycles(b: BraidWord) -> int:
    """Closure component count by tracing each strand individually through
    the word; independent of `closure_components`, which follows only the
    positions the letters touch."""
    ends = {}
    for start in range(b.strands):
        pos = start
        for l in b.letters:
            i = abs(l) - 1
            if pos == i:
                pos = i + 1
            elif pos == i + 1:
                pos = i
        ends[start] = pos
    seen = set()
    count = 0
    for start in range(b.strands):
        if start in seen:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = ends[j]
    return count


# Explicit orientation lookup: (horizontal direction, vertical direction)
# -> crossing sign, horizontal over vertical.  E = eastward, N = northward.
SIGN_TABLE = {
    ("E", "N"): 1,
    ("W", "S"): 1,
    ("E", "S"): -1,
    ("W", "N"): -1,
}


def brute_force_writhe(g: GridDiagram) -> int:
    """Writhe by scanning every (row, column) cell with only the span test
    and the orientation table."""
    total = 0
    for r in range(g.size):
        h1, h2 = g.xs[r], g.os[r]
        for c in range(g.size):
            if not (min(h1, h2) < c < max(h1, h2)):
                continue
            v1, v2 = g.xs.index(c), g.os.index(c)
            if not (min(v1, v2) < r < max(v1, v2)):
                continue
            h_dir = "E" if g.xs[r] > g.os[r] else "W"
            v_dir = "N" if g.os.index(c) > g.xs.index(c) else "S"
            total += SIGN_TABLE[(h_dir, v_dir)]
    return total


# The argparse parser `tau` read its arguments with before
# `taucalc.cli.parse_args`, kept unchanged as the reference that
# `test_parse_args_matches_argparse` compares it with.
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tau",
        description="Concordance invariant bounds from combinatorial knot "
                    "presentations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("braid", help="analyze a braid word 'n: l1 l2 ...'")
    p.add_argument("word")
    p.add_argument("--positive", action="store_true",
                   help="require a positive word and print the exact invariant")
    p.set_defaults(fn=_cmd_braid)

    p = sub.add_parser("grid", help="analyze a grid diagram file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("torus", help="invariant of the (p,q) torus knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("pretzel", help="invariant of an odd pretzel knot")
    p.add_argument("twists", type=int, nargs="+")
    p.set_defaults(fn=_cmd_pretzel)

    p = sub.add_parser("double", help="invariant of an untwisted positive "
                                      "Whitehead double")
    p.add_argument("--companion", required=True,
                   help="the companion's name; the value does not depend "
                        "on it")
    p.add_argument("--tb-lower", type=int, required=True,
                   help="a lower bound on the companion's Thurston-Bennequin "
                        "number, the only input the value depends on")
    p.add_argument("--iterations", type=int, default=1,
                   help="how many times to double (at least 1); the value "
                        "does not depend on it")
    p.set_defaults(fn=_cmd_double)

    for name, help_ in (("deduce", "propagate a fact file"),
                        ("catalog", "run the bundled catalog")):
        p = sub.add_parser(name, help=help_)
        if name == "deduce":
            p.add_argument("file", metavar="facts")
        p.add_argument("--certify", action="store_true",
                       help="include the certificate: every step, or with "
                            "--query the steps supporting the knot (the text "
                            "--query form always prints them)")
        p.add_argument("--query", metavar="ID",
                       help="print one knot with its supporting derivation")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=_run_deduction)

    return ap
