import random

import pytest

from taucalc.errors import TaucalcError
from taucalc.grid import (
    GridDiagram,
    components,
    corner_census,
    crossings,
    parse_grid,
    tb,
    writhe_grid,
)

from .util import (
    brute_force_writhe,
    random_grid,
    reflect_columns,
    stabilize_ne,
)

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
