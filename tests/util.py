"""Shared random generators, diagram and word generators, and independent
oracles for the test suite."""

from __future__ import annotations

import random
from unittest import mock

from taucalc import deduce
from taucalc.braid import BraidWord, closure_components
from taucalc.deduce import (CrossingChange, Cobordism, FactBase, Mirror,
                            Presentation, Sum, Unknotting)
from taucalc.families import TorusParams
from taucalc.grid import GridDiagram, components, corner_census, crossings


def propagate_shuffled(base: deduce.FactBase, seed: int):
    """`propagate(base)` with its initial queue of rule instances shuffled
    by `random.Random(seed)`: the fixpoint must not depend on the order,
    and each order gives a certificate that must replay."""
    instances = deduce._instances

    def shuffled(b):
        out = instances(b)
        random.Random(seed).shuffle(out)
        return out
    with mock.patch.object(deduce, "_instances", shuffled):
        return deduce.propagate(base)


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
