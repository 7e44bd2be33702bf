import ast
import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import taucalc
from taucalc import braid, catalog, cli, deduce, grid, report as report_mod
from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.cli import main
from taucalc.deduce import FactBase, propagate
from taucalc.errors import TaucalcError
from taucalc.interval import Interval
from taucalc.report import build_report, to_json

from .util import random_consistent_base

DATA = Path(__file__).parent / "data"
# A fact file on which each of the eleven rules makes a narrowing.
ALL_RULES = str(DATA / "all_rules.json")
# A random base of 100 knots made by bench/workloads.random_base: wide
# enough that a change in the order of narrowings changes its certificate.
RANDOM_WIDE = str(DATA / "random_wide_100.json")
# The positive trefoil as a size-5 grid diagram.
TREFOIL_GRID = str(DATA / "trefoil.grid")
# The directory a `python` child puts on its path to import this `taucalc`.
SRC = str(Path(taucalc.__file__).parents[1])

# Every golden report: the arguments of `tau` and the file under
# tests/data that holds its standard output, byte for byte.  Each file
# there is named here once (test_every_golden_file_is_listed_once).  A
# change that alters a report on purpose regenerates its file from the
# repository root with
#   PYTHONPATH=src python -m taucalc.cli <argv> > tests/data/<name>
GOLDENS = [
    (["catalog", "--json", "--certify"], "catalog_json_certify.txt"),
    (["catalog", "--certify"], "catalog_certify.txt"),
    (["catalog", "--query", "m10_145"], "catalog_query_m10_145.txt"),
    (["deduce", ALL_RULES, "--json", "--certify"],
     "all_rules_json_certify.txt"),
    (["deduce", ALL_RULES, "--certify"], "all_rules_certify.txt"),
    (["deduce", ALL_RULES, "--query", "s2"], "all_rules_query_s2.txt"),
    (["catalog", "--query", "m10_145", "--json", "--certify"],
     "catalog_query_m10_145_json_certify.txt"),
    (["deduce", ALL_RULES, "--query", "s2", "--json", "--certify"],
     "all_rules_query_s2_json_certify.txt"),
    (["catalog", "--json"], "catalog_json.txt"),
    (["deduce", ALL_RULES, "--query", "s2", "--json"],
     "all_rules_query_s2_json.txt"),
    (["deduce", ALL_RULES], "all_rules.txt"),
    (["deduce", ALL_RULES, "--json"], "all_rules_json.txt"),
    (["deduce", ALL_RULES, "--query", "s2", "--certify"],
     "all_rules_query_s2_certify.txt"),
    (["deduce", RANDOM_WIDE, "--json", "--certify"],
     "random_wide_100_json_certify.txt"),
    (["braid", "3: 1 -2 1 -2"], "braid_figure_eight.txt"),
    (["braid", "2: 1 1 1", "--positive"], "braid_trefoil_positive.txt"),
    (["grid", TREFOIL_GRID], "grid_trefoil.txt"),
    (["torus", "3", "5"], "torus_3_5.txt"),
    (["pretzel", "3", "-5", "-7"], "pretzel_3_m5_m7.txt"),
    (["double", "--companion", "trefoil", "--tb-lower", "0",
      "--iterations", "3"], "double_trefoil_3.txt"),
]


def _goldens(*names):
    """The GOLDENS entries of the files `names`, in that order."""
    argv_of = {name: argv for argv, name in GOLDENS}
    return [(argv_of[name], name) for name in names]


def _child_env(**changes):
    """The environment of a `python` child that imports this `taucalc`,
    with `changes` set."""
    return {**os.environ, "PYTHONPATH": SRC, **changes}


def _readme_cli_block() -> str:
    """The first code block under README's `## CLI` heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    return section.split("\n```\n", 1)[1].split("```", 1)[0]


def _with_files(argv, tmp_path):
    """`argv` with MISSING replaced by a path that does not exist, and
    INCONSISTENT by a fact file whose facts contradict (exit 3)."""
    path = tmp_path / "facts.json"
    path.write_text(json.dumps({
        "knots": [{"id": "a"}],
        "facts": [{"id": "a", "kind": "tau_lower", "value": 2},
                  {"id": "a", "kind": "g3", "value": 0}]}))
    names = {"MISSING": str(tmp_path / "missing.json"),
             "INCONSISTENT": str(path)}
    return [names.get(a, a) for a in argv]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_enabled(request):
    """The collector switched on or off, as a caller of `main` may have it;
    the test's own setting comes back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCatalogFiles:
    def test_bundled_catalog_loads(self):
        base = load_bundled_catalog()
        assert len(base.records) >= 6
        assert "trefoil" in base.records

    def test_empty_document(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        base = load_factbase(str(path))
        assert base.records == {}

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "knots": [oops]\n}')
        with pytest.raises(TaucalcError, match=":2:"):
            load_factbase(str(path))

    def test_unknown_relation_kind_named(self, tmp_path):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "b"}],
            "relations": [{"kind": "satellite", "a": "a", "b": "b"}],
        }))
        with pytest.raises(TaucalcError, match="satellite"):
            load_factbase(str(path))

    def test_braid_words_parsed_once(self, monkeypatch):
        calls = []

        def counted(word, _fn=braid.parse_braid):
            calls.append(word)
            return _fn(word)
        monkeypatch.setattr(braid, "parse_braid", counted)
        load_bundled_catalog()
        assert len(calls) == 6

    def test_each_distinct_presentation_parsed_once_per_load(
            self, monkeypatch):
        # `deduce._ints` reads the parameters of every torus and pretzel
        # value it parses.  Forty knots share four values: each is parsed
        # once per load, and its knots hold the one Presentation.
        calls = Counter()

        def counted(kind, value, _fn=deduce._ints):
            calls[kind, value] += 1
            return _fn(kind, value)
        monkeypatch.setattr(deduce, "_ints", counted)
        values = [("torus", "2 3"), ("pretzel", "-3 -5 -7"),
                  ("torus", "3 4"), ("pretzel", "3 5 7")]
        doc = {"knots": [
            {"id": f"k{i}", "presentations": [
                {"kind": kind, "value": value}
                for kind, value in (values[i % 4], values[i % 3])]}
            for i in range(40)]}
        base = catalog.factbase_from_dict(doc)
        assert calls == Counter(dict.fromkeys(values, 1))
        first = {p.value: p for rec in base.records.values()
                 for p in rec.presentations}
        for rec in base.records.values():
            for p in rec.presentations:
                assert p is first[p.value]
        # The presentations are the load's own: a second load parses again.
        catalog.factbase_from_dict(doc)
        assert calls == Counter(dict.fromkeys(values, 2))

    def test_braid_summary_checked(self, monkeypatch):
        monkeypatch.setitem(catalog._BRAID_SUMMARIES, "trefoil", (2, 4, 0))
        with pytest.raises(TaucalcError, match="trefoil"):
            load_bundled_catalog()

    def test_corrupt_bundled_catalog_names_the_file(self, tmp_path,
                                                    monkeypatch):
        # The bundled catalog is read like any fact file: a corrupt one
        # is an input error, not a traceback.
        (tmp_path / "data").mkdir()
        path = tmp_path / "data" / "catalog.json"
        path.write_text('{"knots": [')
        monkeypatch.setattr(catalog, "__file__", str(tmp_path / "catalog.py"))
        with pytest.raises(TaucalcError, match=re.escape(f"{path}:1:")):
            load_bundled_catalog()


@pytest.fixture(scope="module")
def fixed():
    base = load_bundled_catalog()
    result, _ = propagate(base)
    return result


class TestCatalogDeduction:
    def test_golden_values(self, fixed):
        assert fixed.knot("10_139").tau == Interval.exact(4)
        assert fixed.knot("m10_152").tau == Interval.exact(4)
        assert fixed.knot("m10_161").tau == Interval.exact(3)
        assert fixed.knot("m10_145").tau == Interval.exact(2)
        assert fixed.knot("P(3,-5,-7)").tau == Interval.exact(1)
        assert fixed.knot("unknot").tau == Interval.exact(0)

    def test_mirrors(self, fixed):
        assert fixed.knot("10_152").tau == Interval.exact(-4)
        assert fixed.knot("10_161").tau == Interval.exact(-3)
        assert fixed.knot("10_161").g4 == Interval.exact(3)
        assert fixed.knot("10_145").tau == Interval.exact(-2)

    def test_doubles(self, fixed):
        assert fixed.knot("trefoil").tb == Interval.at_least(0)
        for n in range(1, 6):
            assert fixed.knot(f"wh{n}_trefoil").tau == Interval.exact(1)
            assert fixed.knot(f"wh{n}_trefoil").g4 == Interval.exact(1)

    def test_report_deterministic(self):
        base = load_bundled_catalog()
        f1, c1 = propagate(base)
        f2, c2 = propagate(base)
        r1 = "".join(to_json(build_report(f1, c1), c1, True))
        r2 = "".join(to_json(build_report(f2, c2), c2, True))
        assert r1 == r2


class TestCli:
    def test_torus(self, capsys):
        assert main(["torus", "3", "5"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_torus_link_rejected(self, capsys):
        assert main(["torus", "2", "4"]) == 2

    # A bad entry after a good one of the same kind is refused as if it
    # came alone: no presentation built before stands in for it.
    @pytest.mark.parametrize("bad,message", [
        ({"kind": "torus", "value": "2 3", "note": "x"},
         "bad presentation entry {'kind': 'torus', 'value': '2 3', "
         "'note': 'x'}"),
        ({"kind": "torus", "value": 23},
         "torus presentation value must be a string, got 23"),
        ({"kind": "torus", "value": ["2", "3"]},
         "torus presentation value must be a string, got ['2', '3']"),
        ({"kind": ["torus"], "value": "2 3"},
         "bad presentation entry {'kind': ['torus'], 'value': '2 3'}"),
        ({"value": "2 3", "type": "torus"},
         "bad presentation entry {'value': '2 3', 'type': 'torus'}"),
        ({"kind": "torus"}, "bad presentation entry {'kind': 'torus'}"),
        ("torus: 2 3", "bad presentation entry 'torus: 2 3'"),
        ({"kind": "torus", "value": "2 4"},
         "T(2,4) is a link, not a knot (gcd > 1)"),
        ({"kind": "Torus", "value": "2 3"},
         "unknown presentation kind 'Torus' for value '2 3'"),
        (None, "'presentations' must be an array, got "
               "{'kind': 'torus', 'value': '2 3'}"),
    ])
    def test_bad_presentation_after_a_good_one_exits_2(self, tmp_path, capsys,
                                                      bad, message):
        good = {"kind": "torus", "value": "2 3"}
        second = ({"id": "b", "presentations": good} if bad is None else
                  {"id": "b", "presentations": [good, bad]})
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [
            {"id": "a", "presentations": [good]}, second]}))
        assert main(["deduce", str(path)]) == 2
        assert capsys.readouterr().err == f"error: knot 'b': {message}\n"

    @pytest.mark.parametrize("bad,field", [
        ({"kind": "mirror", "a": "a", "b": "b", "c": "a"}, "'c'"),
        ({"kind": "mirror", "a": "a", "bb": "b"}, "'bb'"),
        ({"kind": "mirror", "a": "a"}, "'b'"),
        ({"kind": "mirror", "a": "a", "b": ["b"]}, "unhashable"),
    ])
    def test_bad_relation_after_a_good_one_exits_2(self, tmp_path, capsys,
                                                   bad, field):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "b"}],
            "relations": [{"kind": "mirror", "a": "a", "b": "b"}, bad]}))
        assert main(["deduce", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad mirror relation {bad}: ")
        assert field in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python prints integers of any length")
    def test_torus_value_past_digit_limit_exits_2(self, capsys):
        # (p-1)(q-1)/2 has 6,000 digits; p and q have 3,001.
        p, q = 10**3000 + 1, 10**3000 + 3
        assert main(["torus", str(p), str(q)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_pretzel(self, capsys):
        assert main(["pretzel", "3", "-5", "-7"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["pretzel", "3", "5", "-7"]) == 0
        assert capsys.readouterr().out.strip() == "inapplicable"

    def test_braid_positive(self, capsys):
        assert main(["braid", "2: 1 1 1", "--positive"]) == 0
        out = capsys.readouterr().out
        assert "tau = 1, g4 = 1, g3 = 1" in out

    @pytest.mark.parametrize("word", ["100000000000: 1",
                                      "100000000000: 99999999999"])
    def test_braid_many_untouched_strands(self, capsys, word):
        assert main(["braid", word]) == 0
        assert "closure components: 99999999999" in capsys.readouterr().out

    def test_braid_strand_count_past_int_digit_limit_exits_2(self, capsys):
        assert main(["braid", "1" * 5000 + ": 1"]) == 2
        assert "strand count" in capsys.readouterr().err

    def test_braid_negative_letters_rejected(self, capsys):
        assert main(["braid", "2: 1 -1 1", "--positive"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("word", ["2: 1 1 1", "3: 1 -2 1 -2"])
    def test_braid_closure_traced_once_per_word(self, monkeypatch, capsys,
                                                word):
        calls = []

        def counted(b, _fn=braid.closure_components):
            calls.append(b)
            return _fn(b)
        monkeypatch.setattr(braid, "closure_components", counted)
        deduce.Presentation("braid", word)
        main(["braid", word])
        main(["braid", word, "--positive"])  # exit 2 on a negative letter
        capsys.readouterr()
        assert len(calls) == 3
        # Called alone, each bound traces the closure to refuse a link.
        link = braid.BraidWord(2, (1, 1, 1, 1))
        for bound in (braid.bennequin_genus, braid.slice_bennequin_lower,
                      braid.tau_positive_braid):
            with pytest.raises(TaucalcError, match="2 components"):
                bound(link)
        assert len(calls) == 6

    def test_braid_positive_link_prints_nothing(self, capsys):
        # Like every other subcommand, an exit 2 leaves stdout empty: no
        # half report before the error.
        assert main(["braid", "2: 1 1", "--positive"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "2 components" in err

    def test_double(self, capsys):
        assert main(["double", "--companion", "trefoil",
                     "--tb-lower", "0", "--iterations", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["double", "--companion", "k",
                     "--tb-lower", "-1"]) == 0
        assert capsys.readouterr().out.strip() == "inapplicable"

    def test_grid(self, tmp_path, capsys):
        path = tmp_path / "tref.grid"
        path.write_text("6\nX: 5 4 0 1 2 3\nO: 4 1 2 3 5 0\n")
        assert main(["grid", str(path)]) == 0
        out = capsys.readouterr().out
        assert "components: 1" in out
        assert "tb: 0" in out

    def test_grid_link_prints_writhe_and_no_tb(self, tmp_path, capsys):
        # The Hopf link: two components, each crossing positive.
        path = tmp_path / "hopf.grid"
        path.write_text("4 / X: 0 1 2 3 / O: 2 3 0 1\n", encoding="utf-8")
        assert main(["grid", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "components: 2" in lines and "writhe: 2" in lines
        assert not any(line.startswith("tb:") for line in lines)

    def test_grid_computes_each_invariant_once(self, monkeypatch, capsys):
        calls = Counter()
        for name in ("components", "writhe_grid", "corner_census"):
            def counted(g, _fn=getattr(grid, name), _name=name):
                calls[_name] += 1
                return _fn(g)
            monkeypatch.setattr(grid, name, counted)
        assert main(["grid", TREFOIL_GRID]) == 0
        assert capsys.readouterr().out == \
            (DATA / "grid_trefoil.txt").read_text(encoding="utf-8")
        assert calls == Counter(components=1, writhe_grid=1, corner_census=1)
        # Called alone, `tb` refuses a link from its components alone.
        g = grid.parse_grid("4 / X: 0 1 2 3 / O: 2 3 0 1")
        with pytest.raises(TaucalcError, match="2 components"):
            grid.tb(g)
        assert calls == Counter(components=2, writhe_grid=1, corner_census=1)

    def test_grid_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.grid"
        path.write_bytes(b"2\nX: 0 1\nO: 1 0\xff\n")
        assert main(["grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_catalog_text(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "10_139" in out and "[4, 4]" in out

    def test_catalog_json_and_determinism(self, capsys):
        assert main(["catalog", "--json", "--certify"]) == 0
        first = capsys.readouterr().out
        report = json.loads(first)
        by_id = {k["id"]: k for k in report["knots"]}
        assert by_id["10_139"]["tau"] == ["4", "4"]
        assert by_id["m10_161"]["tau"] == ["3", "3"]
        assert report["certificate"]
        assert main(["catalog", "--json", "--certify"]) == 0
        assert capsys.readouterr().out == first

    def test_catalog_query(self, capsys):
        assert main(["catalog", "--query", "m10_145"]) == 0
        out = capsys.readouterr().out
        assert "tau = [2, 2]" in out
        assert "R6" in out  # the unknotting step shows up in the slice

    def test_empty_query_is_a_query(self, tmp_path, capsys):
        assert main(["catalog", "--query", ""]) == 2
        assert "unknown knot id ''" in capsys.readouterr().err
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [{"id": ""}, {"id": "k"}]}))
        assert main(["deduce", str(path), "--query", "", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [k["id"] for k in report["knots"]] == [""]

    def test_query_builds_one_row(self, monkeypatch, capsys):
        rows = []

        def counted(base, id, steps, _fn=report_mod.knot_row):
            rows.append(id)
            return _fn(base, id, steps)
        monkeypatch.setattr(report_mod, "knot_row", counted)
        assert main(["deduce", ALL_RULES, "--query", "s2", "--json"]) == 0
        assert rows == ["s2"]

    def test_text_certify_builds_no_step_dicts(self, monkeypatch, capsys):
        # The text form prints `describe()` of each step; it writes no step
        # as JSON.
        calls = []

        def counted(cert, _fn=report_mod.steps_to_json):
            for step, text in zip(cert, _fn(cert)):
                calls.append(step.index)
                yield text
        monkeypatch.setattr(report_mod, "steps_to_json", counted)
        assert main(["deduce", ALL_RULES, "--certify"]) == 0
        assert calls == []
        assert "[0] R7-braid" in capsys.readouterr().out

    def test_deduce_file(self, tmp_path, capsys):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "t", "presentations":
                       [{"kind": "torus", "value": "2 7"}]}],
        }))
        assert main(["deduce", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["knots"][0]["tau"] == ["3", "3"]

    def test_deduce_inconsistent_exit_code(self, tmp_path, capsys):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}],
            "facts": [{"id": "a", "kind": "tau_lower", "value": 2},
                      {"id": "a", "kind": "g3", "value": 0}],
        }))
        assert main(["deduce", str(path)]) == 3

    def test_contradicting_fact_named_with_its_source(self, tmp_path,
                                                      capsys):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "k7"}],
            "facts": [
                {"id": "k7", "kind": "tau_lower", "value": 3,
                 "source": "first table"},
                {"id": "k7", "kind": "tau_upper", "value": 1,
                 "source": "second table"}],
        }))
        assert main(["deduce", str(path)]) == 3
        err = capsys.readouterr().err
        assert "k7" in err and "second table" in err
        assert re.search(r"\btau_upper\b.*\b1\b", err), err

    @pytest.mark.parametrize("presentations,values", [
        ([], [2, 3]),
        # The braid's Seifert surface has genus 4, below the exact g3.
        ([{"kind": "braid", "value": "3: 1 1 1 -2 1 1 1 2 2 2"}], [5]),
        ([], [-1]),
    ])
    def test_g3_conflict_exit_code(self, tmp_path, capsys, presentations,
                                   values):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a", "presentations": presentations}],
            "facts": [{"id": "a", "kind": "g3", "value": v} for v in values],
        }))
        assert main(["deduce", str(path)]) == 3
        assert "a.g3" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,value", [
        ("dt", "4 6 2"), ("torus", "2 3 4"), ("pretzel", "3 x")])
    def test_bad_presentation_exits_2(self, tmp_path, capsys, kind, value):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [
            {"id": "k1", "presentations": [{"kind": kind, "value": value}]}]}))
        assert main(["deduce", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'k1'" in err and repr(value) in err

    def test_zero_iterations_exit_2(self, tmp_path, capsys):
        assert main(["double", "--companion", "k", "--tb-lower", "0",
                     "--iterations", "0"]) == 2
        err = capsys.readouterr().err
        assert "iterations" in err
        assert "wh0_" not in err  # names no knot the user did not type
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "k"}, {"id": "wh"}],
            "relations": [{"kind": "double", "companion": "k", "result": "wh",
                           "iterations": 0}],
        }))
        assert main(["deduce", str(path)]) == 2
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,named", [
        ({"knots": [{"id": "a"}],
          "facts": [{"id": "a", "kind": "tau_min", "value": 1}]}, "tau_min"),
        ({"knots": [{"id": "a"}],
          "facts": [{"kind": "tau_lower", "value": 1}]}, "'id'"),
        ({"knots": [{"id": "a"}],
          "facts": [{"id": "a", "kind": "tau_lower", "value": 1.5}]}, "1.5"),
        ({"knots": [{"id": "a"}],
          "facts": [{"id": "a", "kind": "tb_lower", "value": "x"}]}, "'x'"),
        ({"knots": [{"id": "a"}],
          "facts": [{"id": "a", "kind": "tau_lower", "value": True}]}, "True"),
        ([{"id": "a"}], "list"),
        ({"knots": ["a"]}, "'a'"),
        ({"knots": [{"id": 1}]}, "'id'"),
        ({"knots": [{"id": "k1", "presentations": [{"kind": "braid"}]}]},
         "'k1'"),
        ({"knots": [{"id": "k1", "presentations":
                     [{"kind": "braid", "value": 23}]}]}, "'k1'"),
        ({"knots": [{"id": "k1", "presentations": "braid"}]}, "'k1'"),
        ({"knots": [{"id": "a"}, {"id": "b"}],
          "facts": [{"id": "a", "kind": "tau_lower", "value": 0},
                    {"id": "a", "kind": "tau_upper", "value": 10}],
          "relations": [{"kind": "cobordism", "a": "a", "b": "b",
                         "genus": -1}]}, "genus"),
        ({"knots": [{"id": "a"}, {"id": "b"}],
          "facts": [{"id": "a", "kind": "tau_lower", "value": 0}],
          "relations": [{"kind": "cobordism", "a": "a", "b": "b",
                         "genus": -1}]}, "genus"),
        ({"knots": [{"id": "a"}, {"id": "b"}],
          "relations": [{"kind": "cobordism", "a": "a", "b": "b",
                         "genus": "1"}]}, "genus"),
        ({"knots": [{"id": "a"}],
          "relations": [{"kind": "unknotting", "knot": "a", "positive": 0,
                         "negative": -1}]}, "negative"),
        ({"knots": [{"id": "k"}, {"id": "wh"}],
          "relations": [{"kind": "double", "companion": "k", "result": "wh",
                         "iterations": "1"}]}, "iterations"),
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "grid", "value": "4 / X: 0 1 2 3 / O: 1 0 3 2"}]}]},
         "'k1'"),
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "pretzel", "value": ""}]}]}, "'k1'"),
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "braid", "value": "2: 1 1"}]}]}, "'k1'"),
        # Too few letters to join the strands: a link of 99999999999
        # components, counted in one pass over the letters.
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "braid", "value": "100000000000: 1"}]}]}, "'k1'"),
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "braid", "value": "100000000000: 99999999999"}]}]},
         "'k1'"),
        # A strand count with more digits than int() reads.
        ({"knots": [{"id": "k1", "presentations": [
            {"kind": "braid", "value": "1" * 5000 + ": 1"}]}]}, "'k1'"),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, doc, named):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(doc))
        assert main(["deduce", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python prints integers of any length")
    @pytest.mark.parametrize("relation", [
        {"kind": "sum", "a": "a", "b": "b", "c": "c"},
        {"kind": "unknotting", "knot": "c", "positive": int("9" * 4300),
         "negative": int("9" * 4300)},
    ])
    def test_bound_past_digit_limit_exits_2(self, tmp_path, capsys,
                                            relation):
        # Values of 4,300 digits, the most `str` prints, add into 4,301.
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "facts": [{"id": k, "kind": "tau_lower", "value": int("9" * 4300)}
                      for k in "ab"],
            "relations": [relation]}))
        assert main(["deduce", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: c.")

    @pytest.mark.parametrize("facts,relation", [
        ([("c", "g4_upper", 0)],
         {"kind": "unknotting", "knot": "c", "positive": int("9" * 4300),
          "negative": int("9" * 4300)}),
        ([("a", "tau_upper", int("9" * 4300)), ("c", "tau_upper", 0)],
         {"kind": "cobordism", "a": "a", "b": "c", "genus": 1}),
    ])
    def test_long_bound_that_narrows_nothing_exits_0(self, tmp_path, capsys,
                                                     facts, relation):
        # 2X and X + 1 pass str()'s digit limit but narrow nothing, so they
        # are neither recorded nor printed.
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "c"}],
            "facts": [{"id": k, "kind": kind, "value": v}
                      for k, kind, v in facts],
            "relations": [relation]}))
        assert main(["deduce", str(path), "--certify"]) == 0

    @pytest.mark.parametrize("raw", [
        b'{"knots": [], "n": 1' + b"0" * 5000 + b"}",  # over int's digit cap
        b'{"knots": [{"id": "\xff"}]}',  # not UTF-8
        b"[" * 100_000,
    ], ids=["long-int", "invalid-utf8", "deep-nesting"])
    def test_unreadable_json_exits_2(self, tmp_path, capsys, raw):
        path = tmp_path / "facts.json"
        path.write_bytes(raw)
        assert main(["deduce", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_bad_step_budget_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("TAU_STEP_BUDGET", "abc")
        assert main(["catalog"]) == 2
        assert "TAU_STEP_BUDGET" in capsys.readouterr().err

    def test_negative_step_budget_exits_2(self, monkeypatch, capsys):
        # Refused like a non-integer, not taken as a budget the run exceeds.
        monkeypatch.setenv("TAU_STEP_BUDGET", "-1")
        assert main(["catalog"]) == 2
        assert capsys.readouterr().err == (
            "error: TAU_STEP_BUDGET must be a non-negative integer, "
            "got '-1'\n")

    @staticmethod
    def _deduce(tmp_path, capsys, doc, *flags) -> tuple[int, str, str]:
        """The exit code of `tau deduce` with `flags` on fact file `doc`, its
        standard output and its standard error."""
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(doc))
        return main(["deduce", str(path), *flags]), *capsys.readouterr()

    def test_large_base_out_of_budget_exits_2(self, tmp_path, monkeypatch,
                                              capsys):
        # A consistent chain of 20 crossing changes that needs more
        # evaluations than the budget.  The error names what was still
        # changing, and nothing goes to stdout.
        monkeypatch.setenv("TAU_STEP_BUDGET", "50")
        assert self._deduce(tmp_path, capsys, {
            "knots": [{"id": f"c{i}"} for i in range(21)],
            "facts": [{"id": "c20", "kind": "g3", "value": 0}],
            "relations": [{"kind": "crossing_change", "plus": f"c{i}",
                           "minus": f"c{i + 1}"} for i in range(20)],
        }) == (2, "", "error: propagation exceeded step budget 50; last "
                      "narrowing [10] R3: c11.tau <- [0, 9] => [0, 9]\n")

    def test_climbing_base_exits_3(self, tmp_path, capsys):
        # a # b = a forces tau(b) = 0: R4 concludes it in one step, at the
        # default budget.
        assert self._deduce(tmp_path, capsys, {
            "knots": [{"id": "a"}, {"id": "b"}],
            "facts": [{"id": "b", "kind": "tau_lower", "value": 1},
                      {"id": "b", "kind": "tau_upper", "value": 1},
                      {"id": "a", "kind": "tau_lower", "value": 0}],
            "relations": [{"kind": "sum", "a": "a", "b": "b", "c": "a"}],
        }) == (3, "", "inconsistent: R4 on b.tau: conclusion [0, 0] is "
                      "disjoint from b.tau = [1, 1]\n")

    def test_self_sum_below_zero_exits_3(self, tmp_path, capsys):
        # K = K # K forces tau(K) = 0, so tau(a) <= -1 is inconsistent.
        assert self._deduce(tmp_path, capsys, {
            "knots": [{"id": "a"}],
            "facts": [{"id": "a", "kind": "tau_upper", "value": -1}],
            "relations": [{"kind": "sum", "a": "a", "b": "a", "c": "a"}],
        }) == (3, "", "inconsistent: R4 on a.tau: conclusion [0, 0] is "
                      "disjoint from a.tau = [-inf, -1]\n")

    @pytest.mark.xfail(strict=True, reason="a # a = c with tau(c) odd has "
                       "no integer tau(a); R4's interval conclusions leave "
                       "a.tau = [0, 1] (ROADMAP items 7 and 9)")
    def test_integer_tightness_base_exits_3(self, tmp_path, capsys):
        code, _, _ = self._deduce(tmp_path, capsys, {
            "knots": [{"id": "a"}, {"id": "c"}],
            "facts": [{"id": "c", "kind": "tau_lower", "value": 1},
                      {"id": "c", "kind": "tau_upper", "value": 1},
                      {"id": "a", "kind": "tau_lower", "value": 0}],
            "relations": [{"kind": "sum", "a": "a", "b": "a", "c": "c"}],
        })
        assert code == 3

    # ROADMAP item 9's open cases: each needs two relations' equalities at
    # once, which interval propagation, one relation at a time, cannot see.

    @pytest.mark.xfail(strict=True, reason="K # mK is slice, so tau(s) = 1 "
                       "is inconsistent; with tau(k) unbounded R4 narrows "
                       "nothing (ROADMAP item 9)")
    def test_sum_with_mirror_of_nonzero_tau_exits_3(self, tmp_path, capsys):
        code, _, _ = self._deduce(tmp_path, capsys, {
            "knots": [{"id": "k"}, {"id": "mk"}, {"id": "s"}],
            "facts": [{"id": "s", "kind": "tau_lower", "value": 1},
                      {"id": "s", "kind": "tau_upper", "value": 1}],
            "relations": [{"kind": "mirror", "a": "k", "b": "mk"},
                          {"kind": "sum", "a": "k", "b": "mk", "c": "s"}],
        })
        assert code == 3

    @pytest.mark.xfail(strict=True, reason="a # b = c and c # d = a force "
                       "tau(b) + tau(d) = 0, which tau(b) >= 1 and "
                       "tau(d) >= 0 contradict (ROADMAP item 9)")
    def test_cycle_of_two_sums_exits_3(self, tmp_path, capsys):
        code, _, _ = self._deduce(tmp_path, capsys, {
            "knots": [{"id": k} for k in "abcd"],
            "facts": [{"id": "b", "kind": "tau_lower", "value": 1},
                      {"id": "d", "kind": "tau_lower", "value": 0}],
            "relations": [{"kind": "sum", "a": "a", "b": "b", "c": "c"},
                          {"kind": "sum", "a": "c", "b": "d", "c": "a"}],
        })
        assert code == 3

    @pytest.mark.xfail(strict=True, reason="a # b = c and c # b = a force "
                       "tau(b) = 0; with tau(a) >= 0 the two sums climb one "
                       "step per evaluation until the budget runs out "
                       "(ROADMAP item 9)")
    def test_climbing_pair_of_sums_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        # A small budget: the default one climbs for about a second.
        monkeypatch.setenv("TAU_STEP_BUDGET", "200")
        code, _, _ = self._deduce(tmp_path, capsys, {
            "knots": [{"id": k} for k in "abc"],
            "facts": [{"id": "b", "kind": "tau_lower", "value": 1},
                      {"id": "a", "kind": "tau_lower", "value": 0}],
            "relations": [{"kind": "sum", "a": "a", "b": "b", "c": "c"},
                          {"kind": "sum", "a": "c", "b": "b", "c": "a"}],
        })
        assert code == 3

    @pytest.mark.xfail(strict=True, reason="tau(k3) = -tau(k1) in "
                       "0 <= tau(k1) - tau(k3) <= 1 gives 0 <= 2 tau(k1) <= 1, "
                       "so tau(k1) = 0; propagation leaves it unbounded "
                       "(ROADMAP item 9)")
    def test_mirror_and_crossing_change_pin_tau_to_0(self, tmp_path, capsys):
        code, out, _ = self._deduce(tmp_path, capsys, {
            "knots": [{"id": "k1"}, {"id": "k3"}],
            "relations": [{"kind": "mirror", "a": "k1", "b": "k3"},
                          {"kind": "crossing_change", "plus": "k1",
                           "minus": "k3"}],
        }, "--query", "k1")
        assert code == 0 and out.startswith("k1: tau = [0, 0],")

    @pytest.mark.parametrize("argv", [["catalog", "--json"],
                                      ["catalog", "--query", "10_139"]])
    def test_report_is_what_the_certificate_rederives(self, monkeypatch,
                                                      capsys, argv):
        # `propagate`'s records are not what is printed: with them replaced
        # by an empty base, the report is unchanged.
        assert main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(cli, "propagate",
                            lambda base: (FactBase(), propagate(base)[1]))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_broken_certificate_exits_2(self):
        # Under -O as well: the replay check must not be an assert.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {SRC!r})\n"
            "from taucalc import cli, deduce\n"
            "from taucalc.interval import Interval\n"
            "def forged(base):\n"
            "    fixed, _ = deduce.propagate(base)\n"
            "    step = deduce.CertStep(0, 'R1', 'trefoil', 'tau', None, (),\n"
            "                           Interval.exact(0), Interval.exact(0))\n"
            "    return fixed, deduce.Certificate((step,))\n"
            "cli.propagate = forged\n"
            "sys.exit(cli.main(['catalog']))\n")
        run = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 2, run.stderr
        assert "step 0" in run.stderr

    @staticmethod
    def _modules_after(code: str) -> str:
        """What `code` prints under -S, which keeps `site` start-up hooks
        from importing modules first."""
        env = _child_env()
        run = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout

    def test_import_leaves_out_modules_a_run_does_not_use(self):
        # No code in src/ imports `random`, and the bundled catalog is a
        # plain file next to catalog.py, read without importlib.resources
        # (which brings in zipfile and tempfile).  `importlib.util`, which
        # deduce uses for its lazy modules, brings in none of the three.
        # `cli.parse_args` reads the arguments from one table: importing
        # argparse (with gettext) took about 1.8 ms, and its first parser
        # about 2.3 ms more, as it looked up 24 help strings through
        # gettext, which imports locale.
        # `dataclasses` is still imported: FactBase stays a dataclass while
        # bench/tracing.py derives a base from it with dataclasses.replace.
        code = ("import contextlib, io, sys, taucalc.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    taucalc.cli.main(['catalog', '--json', '--certify'])\n"
                "print(sorted({'random', 'importlib.resources', 'zipfile',"
                " 'tempfile', 'argparse', 'gettext', 'locale'}"
                " & set(sys.modules)))\n")
        assert self._modules_after(code) == "[]\n"

    # Each fact base as a fact file: a chain of crossing changes with no
    # presentation, and two knots whose only presentations are grids.
    BASES = {
        "CHAIN": {"knots": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
                  "facts": [{"id": "a", "kind": "tau_lower", "value": 1}],
                  "relations": [
                      {"kind": "crossing_change", "plus": "a", "minus": "b"},
                      {"kind": "crossing_change", "plus": "b", "minus": "c"}]},
        "GRIDS": {"knots": [
            {"id": "g", "presentations": [
                {"kind": "grid",
                 "value": "6 / X: 5 4 0 1 2 3 / O: 4 1 2 3 5 0"}]},
            {"id": "t", "presentations": [
                {"kind": "grid",
                 "value": "5 / X: 4 0 1 2 3 / O: 1 2 3 4 0"}]}]},
    }

    @pytest.mark.parametrize("argv,executed", [
        (["deduce", "CHAIN"], []),
        (["deduce", RANDOM_WIDE], ["families"]),  # its presentations are tori
        # grid.py imports count_cycles from braid.py, so a grid runs both.
        (["deduce", "GRIDS"], ["braid", "grid"]),
        (["catalog"], ["braid", "families", "grid"]),
        (["torus", "3", "5"], ["families"]),
    ], ids=["chain", "random-wide", "grids", "catalog", "torus"])
    def test_a_run_executes_only_the_modules_it_uses(self, tmp_path, argv,
                                                     executed):
        # deduce makes braid, grid and families lazy: each is in
        # sys.modules from the start and runs on its first attribute
        # access, after which it is a plain module.  The test reads only
        # the type, since any attribute access would run the module.
        for name, doc in self.BASES.items():
            (tmp_path / name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a) if a in self.BASES else a for a in argv]
        code = ("import sys, types, taucalc.cli\n"
                f"code = taucalc.cli.main({argv!r})\n"
                "print(code, sorted(m for m in ('braid', 'grid', 'families')"
                " if type(sys.modules['taucalc.' + m])"
                " is types.ModuleType))\n")
        last = self._modules_after(code).splitlines()[-1]
        assert last == f"0 {executed}"

    def test_a_module_imported_first_is_the_one_deduce_uses(self):
        # A lazy module must not replace one already in sys.modules, or
        # there would be two BraidWord classes.
        code = ("import sys, taucalc.braid as first\n"
                "import taucalc.deduce as d\n"
                "p = d.Presentation('braid', '2: 1 1 1')\n"
                "print(d.braid_mod is first is sys.modules['taucalc.braid'],"
                " type(p.parsed) is first.BraidWord)\n")
        assert self._modules_after(code) == "True True\n"

    def test_an_import_after_cli_runs_the_lazy_module(self):
        # The import finds the lazy module in sys.modules and binds the
        # package attribute that deduce set for it.
        code = ("import taucalc.cli\n"
                "import taucalc.braid\n"
                "print(taucalc.braid.parse_braid('2: 1 1 1').writhe)\n")
        assert self._modules_after(code) == "3\n"

    def test_import_loads_every_module_the_bench_tracer_wraps(self):
        # bench/tracing.py imports taucalc.cli and then reads
        # sys.modules[name] for each module of its LAYERS table, so every
        # one must be there after the import, and a plain function-level
        # import of braid or grid would stop `bench/run.py --trace 1` with
        # a KeyError.  The lazy modules are there without having run.
        # bench/test_bench_smoke.py imports both modules itself, so only a
        # fresh process shows it.
        bench = str(Path(__file__).parents[1] / "bench")
        code = ("import sys, taucalc.cli\n"
                "loaded = set(sys.modules)\n"
                f"sys.path.insert(0, {bench!r})\n"
                "import tracing\n"
                "print(sorted({m for m, *_ in tracing.LAYERS} - loaded))\n")
        assert self._modules_after(code) == "[]\n"

    def test_package_import_loads_no_module(self):
        # The package exports only __version__; names come from modules.
        code = ("import sys, taucalc\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('taucalc.')))\n")
        assert self._modules_after(code) == "[]\n"

    def test_families_loads_no_braid_module(self):
        # The closed-form values are formulas in the family parameters;
        # torus braid words are a test generator (tests/util.py).
        code = ("import sys, taucalc.families\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('taucalc.')))\n")
        assert self._modules_after(code) == (
            "['taucalc.errors', 'taucalc.families']\n")

    # A knot id is any JSON string.  The lone surrogate is one that argv
    # can carry too: the byte 0xff decodes to it.
    @pytest.mark.parametrize("id,encoding,escaped", [
        ("k\udcff", "utf-8", b"k\\udcff"), ("k\u00fc", "ascii", b"k\\xfc")],
        ids=["lone-surrogate", "non-ascii"])
    @pytest.mark.parametrize("flags", [[], ["--certify"], ["--query", "ID"]],
                             ids=["table", "certify", "query"])
    def test_text_report_escapes_what_stdout_cannot_encode(
            self, tmp_path, id, encoding, escaped, flags):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [{"id": id, "presentations": [
            {"kind": "torus", "value": "2 3"}]}]}))
        env = _child_env(PYTHONIOENCODING=encoding)
        flags = [id if f == "ID" else f for f in flags]
        run = subprocess.run(
            [sys.executable, "-m", "taucalc.cli", "deduce", str(path),
             *flags], capture_output=True, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert escaped in run.stdout
        if flags:  # each step names the knot
            assert run.stdout.count(escaped) > 1

    @pytest.mark.parametrize("flags", [
        [], ["--certify"], ["--query", "a\nb"], ["--json", "--certify"]],
        ids=["table", "certify", "query", "json"])
    def test_control_characters_in_an_id_stay_on_their_line(
            self, tmp_path, capsys, flags):
        # Escaped in the text forms, a newline in an id cannot forge a
        # table row or a step line; --json keeps the id as it is.
        ids = ["a\nb", "x\x1b[31m", "y\u2028z"]
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [
            {"id": id, "presentations": [{"kind": "torus", "value": "2 3"}]}
            for id in ids]}))
        assert main(["deduce", str(path), *flags]) == 0
        out = capsys.readouterr().out
        if "--json" in flags:
            assert [k["id"] for k in json.loads(out)["knots"]] == ids
            return
        lines = out.split("\n")
        assert all(line.isprintable() for line in lines)
        if "--query" in flags:
            assert lines[0].startswith("a\\nb: tau = [1, 1]")
            assert all(line.startswith("  [") for line in lines[1:-1])
            return
        end = next(i for i, line in enumerate(lines)
                   if line.startswith("total"))
        assert [row.split()[0] for row in lines[2:end]] == [
            "a\\nb", "x\\x1b[31m", "y\\u2028z"]
        steps = lines[end + 1:-1]
        assert len(steps) == (9 if flags else 0)
        assert all(line.startswith("[") for line in steps)

    @pytest.mark.parametrize("flags", [[], ["--certify"], ["--query"]],
                             ids=["table", "certify", "query"])
    def test_an_id_cannot_print_as_another_ids_escape(
            self, tmp_path, capsys, flags):
        # A newline prints as backslash-n, so a backslash and an n print
        # as two backslashes and an n.
        ids = ["a\nb", "a\\nb"]
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": ids[0], "presentations": [
                {"kind": "torus", "value": "2 3"}]}, {"id": ids[1]}],
            "relations": [{"kind": "mirror", "a": ids[0], "b": ids[1]}]}))
        shown = {"a\\nb": "a\nb", "a\\\\nb": "a\\nb"}
        for printed, id in shown.items():
            argv = ["deduce", str(path), *flags]
            if flags == ["--query"]:
                argv.append(id)
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            if flags == ["--query"]:
                assert lines[0].startswith(printed + ": tau = ")
                steps = lines[1:]
            else:
                assert [r.split()[0] for r in lines[2:4]] == list(shown)
                steps = lines[5:]
            # Both knots narrow, so the steps name each (certify, query).
            assert any(f" {printed}.tau <- " in s for s in steps) == bool(
                flags)

    def test_main_leaves_the_callers_stdout_error_handler(
            self, tmp_path, monkeypatch):
        # In-process, a strict ASCII stdout keeps its error handler, and
        # an id it cannot encode still prints as its escape.
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [{"id": "kü",
            "presentations": [{"kind": "torus", "value": "2 3"}]}]}))
        buf = io.BytesIO()
        out = io.TextIOWrapper(buf, encoding="ascii", errors="strict")
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["torus", "3", "5"]) == 0
        for flags in [], ["--certify"], ["--query", "kü"]:
            assert main(["deduce", str(path), *flags]) == 0
        assert out.errors == "strict"
        lines = buf.getvalue().decode("ascii").splitlines()
        assert "k\\xfc: tau = [1, 1], g4 = [1, 1], g3 = -, tb >= -" in lines
        assert lines.count("[0] R7-torus: k\\xfc.tau <- [1, 1] => [1, 1]") == 1
        assert sum(line.startswith("k\\xfc ") for line in lines) == 2

    def test_table_columns_line_up_after_escapes(self, tmp_path):
        # Under an ASCII stdout the id below prints as k\xfc\ud800: the
        # table must pad that text, not the id it escapes.
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({"knots": [
            {"id": "k\u00fc\ud800",
             "presentations": [{"kind": "torus", "value": "2 3"}]},
            {"id": "plain"}]}))
        env = _child_env(PYTHONIOENCODING="ascii")
        run = subprocess.run(
            [sys.executable, "-m", "taucalc.cli", "deduce", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        header, _, *rows, _ = run.stdout.splitlines()
        assert rows[0].startswith("k\\xfc\\ud800 ")
        assert [row.index("[") for row in rows] == [header.index("tau")] * 2

    def test_closed_stdout_exits_1_silently(self, tmp_path):
        # A report of about 500 KiB: more than a pipe buffer holds, so the
        # writer is still writing when the reader closes its end.
        path = tmp_path / "facts.json"
        path.write_text(json.dumps(
            {"knots": [{"id": f"k{i}"} for i in range(2000)]}))
        env = _child_env()
        proc = subprocess.Popen(
            [sys.executable, "-m", "taucalc.cli", "deduce", str(path),
             "--json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)
        assert proc.stdout.read(10) == b'{\n  "knots'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_help_into_a_closed_stdout_exits_1_silently(self, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "taucalc.cli", "--help"], stdout=write,
                stderr=subprocess.PIPE, timeout=60,
                env=_child_env(PYTHONUNBUFFERED=unbuffered))
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (1, b"")

    def test_closed_stdout_closes_its_devnull(self, gc_enabled):
        # The broken-pipe path points stdout at devnull and keeps no other
        # descriptor open, and it leaves the collector as it found it.  The
        # pipe's read end is closed before the child starts.
        code = (
            "import gc, json, os, sys\n"
            "from taucalc.cli import main\n"
            f"(gc.enable if {gc_enabled} else gc.disable)()\n"
            "def lowest_free_fd():\n"
            "    fd = os.open(os.devnull, os.O_RDONLY)\n"
            "    os.close(fd)\n"
            "    return fd\n"
            "before = lowest_free_fd()\n"
            "code = main(['catalog', '--json'])\n"
            "print(json.dumps([code, gc.isenabled(), before,\n"
            "                  lowest_free_fd()]), file=sys.stderr)\n")
        env = _child_env()
        r, w = os.pipe()
        os.close(r)
        try:
            run = subprocess.run([sys.executable, "-c", code], stdout=w,
                                 stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(w)
        code, enabled, before, after = json.loads(run.stderr)
        assert (run.returncode, code, enabled) == (0, 1, gc_enabled)
        assert after == before

    @pytest.mark.parametrize("argv", [
        ["catalog"], ["deduce", ALL_RULES], ["grid", "GRID"]])
    def test_reads_name_their_encoding(self, tmp_path, argv):
        # Every file read names utf-8, so no read warns that it falls back
        # to the locale's encoding.
        grid = tmp_path / "tref.grid"
        grid.write_text("5\nX: 4 0 1 2 3\nO: 1 2 3 4 0\n", encoding="utf-8")
        argv = [str(grid) if a == "GRID" else a for a in argv]
        env = _child_env()
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "taucalc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("argv,name", GOLDENS)
    def test_output_matches_golden_file(self, capsys, argv, name):
        assert main(argv) == 0
        golden = DATA / name
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("unbuffered,seed", [("", "0"), ("1", "1")],
                             ids=["buffered-seed0", "unbuffered-seed1"])
    @pytest.mark.parametrize("argv,name", GOLDENS)
    def test_fresh_process_matches_golden_file(self, argv, name, unbuffered,
                                               seed):
        # `python -m taucalc.cli` as the benchmark and the installed script
        # run it: the collector as `main` sets it, the heap frozen by `run`,
        # and stdout as the interpreter opens it, with a buffered and with
        # a write-through one (each chunk of a report one write).  Two hash
        # seeds, so that a report ordered by string hashing differs.
        env = _child_env(PYTHONUNBUFFERED=unbuffered, PYTHONHASHSEED=seed)
        env.pop("TAU_STEP_BUDGET", None)
        run = subprocess.run([sys.executable, "-m", "taucalc.cli", *argv],
                             capture_output=True, env=env, timeout=60)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == (DATA / name).read_bytes()

    def test_every_golden_file_is_listed_once(self):
        # No golden file goes unchecked, and no entry names a file that
        # is gone.
        assert sorted(name for _, name in GOLDENS) == sorted(
            path.name for path in DATA.glob("*.txt"))

    def test_all_rules_golden_file_fires_every_rule(self):
        report = json.loads(
            (DATA / "all_rules_json_certify.txt").read_text(encoding="utf-8"))
        assert {s["rule"] for s in report["certificate"]} == {
            "R1", "R2", "R3", "R4", "R5", "R6", "R7-braid", "R7-torus",
            "R7-pretzel", "R7-grid", "R7-double"}

    def test_steps_citing_one_instance_each_write_its_premise(self):
        fixed, cert = propagate(load_factbase(RANDOM_WIDE))
        text = "".join(to_json(build_report(fixed, cert), cert, True))
        written = json.loads(text)["certificate"]
        cited = [s.cite for s in cert if s.cite is not None]
        assert len(set(cited)) < len(cited)  # some instance is cited again
        for step, obj in zip(cert, written, strict=True):
            if step.cite is not None:
                assert obj["premises"][0] == " ".join(map(str, step.cite))
        assert text == json.dumps(json.loads(text), indent=2)

    def test_a_large_report_comes_in_chunks_of_at_most_chunk_items(self):
        base, _ = random_consistent_base(random.Random(1000), 1000)
        fixed, cert = propagate(base)
        chunks = list(to_json(build_report(fixed, cert), cert, True))
        # A knot or a step opens at indent 4, and nothing else does.
        items = [chunk.count("\n    {") for chunk in chunks]
        assert sum(items) == 1000 + len(cert)
        assert max(items) <= report_mod.CHUNK < 1000
        text = "".join(chunks)
        assert text == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize("argv,name", _goldens(
        "all_rules_certify.txt", "all_rules_query_s2_certify.txt",
        "catalog_certify.txt", "all_rules_json_certify.txt",
        "random_wide_100_json_certify.txt"))
    @pytest.mark.parametrize("chunk", [1, 7, None])
    def test_reports_are_written_one_chunk_at_a_time(self, monkeypatch,
                                                     argv, name, chunk):
        # One write per chunk of text lines, or of knots and then of steps
        # (and one for the JSON report's final newline); the default chunk
        # too, on a base whose report fits in few chunks.
        if chunk is not None:
            monkeypatch.setattr(report_mod, "CHUNK", chunk)
        chunk = report_mod.CHUNK

        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)
        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        text = out.getvalue()
        assert text == (DATA / name).read_text(encoding="utf-8")
        if "--json" in argv:
            report = json.loads(text)
            writes = (math.ceil(len(report["knots"]) / chunk)
                      + math.ceil(len(report["certificate"]) / chunk) + 1)
        else:
            writes = math.ceil(text.count("\n") / chunk)
        assert out.writes == writes

    def test_conflict_names_both_bounds_and_exits_3(self, tmp_path, capsys):
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "b"}],
            "facts": [{"id": k, "kind": "tau_lower", "value": 2}
                      for k in "ab"],
            "relations": [{"kind": "mirror", "a": "a", "b": "b"}]}))
        assert main(["deduce", str(path), "--json", "--certify"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("inconsistent: R1 on b.tau: conclusion [-inf, -2] is "
                       "disjoint from b.tau = [2, inf]\n")

    def test_reports_in_one_process_match_fresh_runs(self, capsys):
        # Each report encodes its cite premises afresh: one written before
        # it in the same process changes no byte.
        env = _child_env()
        for argv in ([RANDOM_WIDE], [ALL_RULES], [RANDOM_WIDE]):
            argv = ["deduce", *argv, "--json", "--certify"]
            fresh = subprocess.run(
                [sys.executable, "-m", "taucalc.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert main(argv) == 0
            assert capsys.readouterr().out == fresh.stdout

    @pytest.mark.parametrize("argv,code", [
        (["catalog", "--json", "--certify"], 0),
        (["deduce", "MISSING"], 2),
        (["double", "--companion", "k", "--tb-lower", "0",
          "--iterations", "0"], 2),
        (["deduce", "INCONSISTENT"], 3),
    ])
    def test_main_restores_the_collector(self, tmp_path, capsys, gc_enabled,
                                         argv, code):
        frozen = gc.get_freeze_count()
        assert main(_with_files(argv, tmp_path)) == code
        assert gc.isenabled() is gc_enabled
        assert gc.get_freeze_count() == frozen  # only `run` freezes

    def test_usage_error_leaves_the_collector(self, capsys, gc_enabled):
        frozen = gc.get_freeze_count()
        with pytest.raises(SystemExit):
            main(["torus", "3"])
        assert gc.isenabled() is gc_enabled
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("argv,code", [
        (["-h"], 0), (["--help"], 0), (["deduce", "-h"], 0),
        ([], 2), (["bogus"], 2), (["torus", "3"], 2),
    ])
    def test_help_exits_0_and_usage_error_exits_2(self, capsys, argv, code):
        # Help prints the usage text, README's CLI block, to stdout; a usage
        # error prints it to stderr, then one `tau: error:` line.
        with pytest.raises(SystemExit) as ei:
            main(argv)
        out, err = capsys.readouterr()
        assert ei.value.code == code
        usage = _readme_cli_block()
        if code == 0:
            assert (out, err) == (usage, "")
        else:
            error = err.splitlines()[-1]
            assert (out, err) == ("", f"{usage}{error}\n")
            assert error.startswith("tau: error: ")

    @pytest.mark.parametrize("argv,same_as", [
        # argparse refused a trailing `--` ("unrecognized arguments: --").
        (["catalog", "--"], ["catalog"]),
        (["deduce", "--", "-facts.json"], ["deduce", "./-facts.json"]),
        (["pretzel", "--", "3", "-5", "-7"], ["pretzel", "3", "-5", "-7"]),
    ])
    def test_double_dash_ends_the_options(self, tmp_path, monkeypatch,
                                          capsys, argv, same_as):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-facts.json").write_text('{"knots": [{"id": "a"}]}',
                                              encoding="utf-8")
        assert main(same_as) == 0
        expected = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == expected


class TestProcessEntry:
    """A `tau` process starts at the `run` entry, which freezes the heap
    so that the interpreter's shutdown collections skip it."""

    # Runs taucalc.cli as `python -m` does, through its `__main__` guard,
    # and reports at exit whether the heap was frozen.
    FROZEN_AT_EXIT = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0,"
        " file=sys.stderr))\n"
        "runpy.run_module('taucalc.cli', run_name='__main__', "
        "alter_sys=True)\n")

    @pytest.mark.parametrize("argv,code", [
        (["catalog", "--json", "--certify"], 0),
        (["deduce", "MISSING"], 2),
        (["deduce", "INCONSISTENT"], 3),
        (["torus", "3"], 2),
    ])
    def test_the_process_freezes_its_heap_and_keeps_its_exit_code(
            self, tmp_path, argv, code):
        env = _child_env()
        run = subprocess.run(
            [sys.executable, "-c", self.FROZEN_AT_EXIT,
             *_with_files(argv, tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == code, run.stderr
        assert run.stderr.splitlines()[-1] == "frozen: True"
        if code == 0:
            golden, = [name for a, name in GOLDENS if a == argv]
            assert run.stdout == (DATA / golden).read_text(encoding="utf-8")

    def test_the_script_and_the_main_guard_start_at_one_entry(self):
        pyproject = Path(taucalc.__file__).parents[2] / "pyproject.toml"
        script, = re.findall(r'^tau = "taucalc\.cli:(\w+)"$',
                             pyproject.read_text(encoding="utf-8"), re.M)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        guard, = [node for node in tree.body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(n) for n in guard.body] == [
            f"sys.exit({script}())"]
