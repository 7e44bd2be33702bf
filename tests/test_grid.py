import random
from pathlib import Path

import pytest

from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.deduce import propagate
from taucalc.errors import TaucalcError
from taucalc.grid import (
    GridDiagram,
    components,
    corner_census,
    parse_grid,
    tb,
    writhe_grid,
)

from .util import (
    brute_force_writhe,
    commutable_columns,
    crossings,
    random_grid,
    reflect_columns,
    reflect_rows,
    stabilize_ne,
    swap_columns,
)

ALL_RULES = Path(__file__).parent / "data" / "all_rules.json"

UNKNOT = GridDiagram(2, (0, 1), (1, 0))
TREFOIL = GridDiagram(5, (4, 0, 1, 2, 3), (1, 2, 3, 4, 0))


class TestParse:
    def test_slash_and_newline_formats(self):
        assert parse_grid("2 / X: 0 1 / O: 1 0") == UNKNOT
        assert parse_grid("2\nX: 0 1\nO: 1 0") == UNKNOT

    def test_marker_collision(self):
        with pytest.raises(TaucalcError, match="X and O share cell"):
            parse_grid("2 / X: 0 1 / O: 0 1")

    def test_not_permutation(self):
        with pytest.raises(TaucalcError, match="X columns are not a"):
            parse_grid("3 / X: 0 0 1 / O: 1 2 0")

    def test_malformed(self):
        with pytest.raises(TaucalcError, match="expected 3 lines"):
            parse_grid("2 / X: 0 1")
        with pytest.raises(TaucalcError, match="bad grid size 'two'"):
            parse_grid("two / X: 0 1 / O: 1 0")
        with pytest.raises(TaucalcError, match="row count does not match"):
            parse_grid("3 / X: 0 1 / O: 1 0")


class TestComponents:
    def test_unknot(self):
        assert components(UNKNOT) == 1

    def test_disjoint_squares(self):
        g = GridDiagram(4, (0, 1, 2, 3), (1, 0, 3, 2))
        assert components(g) == 2

    def test_always_positive(self):
        rng = random.Random(10)
        for _ in range(100):
            assert components(random_grid(rng, rng.randint(2, 8))) >= 1


class TestCrossings:
    def test_unknot_has_none(self):
        assert crossings(UNKNOT) == []
        assert writhe_grid(UNKNOT) == 0

    def test_positive_trefoil(self):
        cs = crossings(TREFOIL)
        assert len(cs) == 3
        assert all(s == 1 for _, _, s in cs)
        assert writhe_grid(TREFOIL) == 3

    def test_reflection_negates_signs(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_grid(rng, rng.randint(2, 8))
            refl = reflect_columns(g)
            assert writhe_grid(refl) == -writhe_grid(g)
            signs = sorted(s for _, _, s in crossings(g))
            assert sorted(-s for _, _, s in crossings(refl)) == signs

    def test_brute_force_oracle(self):
        rng = random.Random(12)
        for _ in range(500):
            g = random_grid(rng, rng.randint(2, 8))
            assert writhe_grid(g) == brute_force_writhe(g)

    def test_sweep_matches_enumerator_across_many_digits(self):
        g = random_grid(random.Random(15), 700)
        assert writhe_grid(g) == sum(s for _, _, s in crossings(g))


class TestCorners:
    def test_unknot_census(self):
        census = corner_census(UNKNOT)
        assert census == {"NE": 1, "NW": 1, "SE": 1, "SW": 1}

    def test_census_partitions_markers(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_grid(rng, rng.randint(2, 8))
            assert sum(corner_census(g).values()) == 2 * g.size


class TestTb:
    def test_unknot(self):
        assert tb(UNKNOT) == -1

    def test_trefoil_and_figure_diagram(self):
        assert tb(TREFOIL) == 1
        assert tb(stabilize_ne(TREFOIL, 0)) == 0

    def test_requires_knot(self):
        with pytest.raises(TaucalcError, match="diagram has 2 components"):
            tb(GridDiagram(4, (0, 1, 2, 3), (1, 0, 3, 2)))


class TestStabilize:
    def test_invalid_row(self):
        with pytest.raises(ValueError):
            stabilize_ne(UNKNOT, 2)

    def test_unknot_example(self):
        g = stabilize_ne(UNKNOT, 0)
        assert g.size == 3
        assert components(g) == 1
        assert tb(g) == -2

    # Each row's exact result, so that the construction is pinned and not
    # only its properties.  Both grids have rows whose O lies west of the X
    # (UNKNOT 1; TREFOIL 0, 4) and rows whose O lies east of it.
    @pytest.mark.parametrize("g,row,xs,os", [
        (UNKNOT, 0, (1, 0, 2), (2, 1, 0)),
        (UNKNOT, 1, (0, 2, 1), (2, 1, 0)),
        (TREFOIL, 0, (5, 4, 0, 1, 2, 3), (4, 1, 2, 3, 5, 0)),
        (TREFOIL, 1, (5, 1, 0, 2, 3, 4), (2, 3, 1, 4, 5, 0)),
        (TREFOIL, 2, (5, 0, 2, 1, 3, 4), (1, 3, 4, 2, 5, 0)),
        (TREFOIL, 3, (5, 0, 1, 3, 2, 4), (1, 2, 4, 5, 3, 0)),
        (TREFOIL, 4, (5, 0, 1, 2, 4, 3), (1, 2, 4, 5, 3, 0)),
    ])
    def test_exact_diagram(self, g, row, xs, os):
        assert stabilize_ne(g, row) == GridDiagram(g.size + 1, xs, os)

    def test_iterated(self):
        g = UNKNOT
        for i in range(4):
            g = stabilize_ne(g, i % g.size)
        assert tb(g) == tb(UNKNOT) - 4

    def test_drops_tb_by_one_everywhere(self):
        rng = random.Random(14)
        for _ in range(500):
            g = random_grid(rng, rng.randint(2, 8))
            r = rng.randrange(g.size)
            s = stabilize_ne(g, r)
            assert components(s) == components(g)
            assert writhe_grid(s) == writhe_grid(g)
            assert len(crossings(s)) == len(crossings(g))
            assert corner_census(s)["NE"] == corner_census(g)["NE"] + 1
            if components(g) == 1:
                assert tb(s) == tb(g) - 1


def _knot_grids(seed: int, count: int) -> list[GridDiagram]:
    """`count` random knot grids of sizes 2-12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_grid(rng, rng.randint(2, 12))
        if components(g) == 1:
            out.append(g)
    return out


class TestTbOracles:
    """Identities tb must satisfy, checked against no formula for it."""

    @pytest.mark.parametrize("reflect", [reflect_columns, reflect_rows])
    def test_mirror_sums_to_minus_size(self, reflect):
        # A reflection negates the writhe and takes the NE corners to NW
        # (columns) or SE (rows) ones, which with the NE ones number n.
        for g in _knot_grids(7, 300):
            assert tb(g) + tb(reflect(g)) == -g.size

    def test_swapping_markers_keeps_tb(self):
        # Swapping X and O reverses the orientation of the whole knot.
        for g in _knot_grids(8, 300):
            assert tb(GridDiagram(g.size, g.os, g.xs)) == tb(g)

    def test_commutation_keeps_tb(self):
        # A commutation is a Legendrian isotopy (Ozsvath, Stipsicz and
        # Szabo, Grid Homology for Knots and Links, 2015).
        moves = 0
        for g in _knot_grids(11, 400):
            for c in commutable_columns(g):
                h = swap_columns(g, c)
                assert components(h) == 1 and tb(h) == tb(g)
                moves += 1
        assert moves > 600

    @pytest.mark.parametrize("load, ids", [
        (load_bundled_catalog, {"trefoil"}),
        # gt's tau is unbounded at the fixpoint: the bound holds trivially.
        (lambda: load_factbase(ALL_RULES), {"gt"})],
        ids=["catalog", "all_rules"])
    def test_legendrian_bound(self, load, ids):
        # tb <= 2 tau - 1 for every Legendrian representative (Plamenevskaya
        # 2004), so tb(D) of a knot's grid is at most 2 tau.hi - 1 at the
        # fixpoint, whose tau contains the true one.
        fixed, _ = propagate(load())
        checked = set()
        for rec in fixed.records.values():
            for p in rec.presentations:
                if p.kind == "grid":
                    assert tb(p.parsed) <= 2 * rec.tau.hi - 1
                    checked.add(rec.id)
        assert checked == ids
