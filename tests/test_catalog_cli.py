import gc
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import taucalc
from taucalc import braid, catalog, report as report_mod
from taucalc.catalog import load_bundled_catalog, load_factbase
from taucalc.cli import main
from taucalc.deduce import propagate
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
        r1 = "".join(to_json(build_report(f1.records, c1), c1, True))
        r2 = "".join(to_json(build_report(f2.records, c2), c2, True))
        assert r1 == r2


class TestCli:
    def test_torus(self, capsys):
        assert main(["torus", "3", "5"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_torus_link_rejected(self, capsys):
        assert main(["torus", "2", "4"]) == 2

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

        def counted(rec, steps, _fn=report_mod.knot_row):
            rows.append(rec.id)
            return _fn(rec, steps)
        monkeypatch.setattr(report_mod, "knot_row", counted)
        assert main(["deduce", ALL_RULES, "--query", "s2", "--json"]) == 0
        assert rows == ["s2"]

    def test_text_certify_builds_no_step_dicts(self, monkeypatch, capsys):
        # The text form prints `describe()` of each step; it writes no step
        # as JSON.
        calls = []

        def counted(step, *args, _fn=report_mod.step_to_json):
            calls.append(step.index)
            return _fn(step, *args)
        monkeypatch.setattr(report_mod, "step_to_json", counted)
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

    def test_climbing_base_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TAU_STEP_BUDGET", "100")
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}, {"id": "b"}],
            "facts": [{"id": "b", "kind": "tau_lower", "value": 1},
                      {"id": "b", "kind": "tau_upper", "value": 1},
                      {"id": "a", "kind": "tau_lower", "value": 0}],
            "relations": [{"kind": "sum", "a": "a", "b": "b", "c": "a"}],
        }))
        assert main(["deduce", str(path)]) == 2
        assert "budget" in capsys.readouterr().err

    def test_broken_certificate_exits_2(self):
        # Under -O as well: the replay check must not be an assert.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(taucalc.__file__).parents[1])!r})\n"
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
        env = {**os.environ,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, env=env,
                             timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout

    def test_import_leaves_out_modules_a_run_does_not_use(self):
        # No code in src/ imports `random`, and the bundled catalog is a
        # plain file next to catalog.py, read without importlib.resources
        # (which brings in zipfile and tempfile).  `dataclasses` is still
        # imported: FactBase stays a dataclass while bench/tracing.py
        # derives a base from it with dataclasses.replace.
        code = ("import sys, taucalc.cli\n"
                "taucalc.catalog.load_bundled_catalog()\n"
                "print(sorted({'random', 'importlib.resources', 'zipfile',"
                " 'tempfile'} & set(sys.modules)))\n")
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
        env = {**os.environ, "PYTHONIOENCODING": encoding,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
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
        env = {**os.environ, "PYTHONIOENCODING": "ascii",
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
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
        env = {**os.environ,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
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
        env = {**os.environ,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
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
        env = {**os.environ,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "taucalc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr

    @pytest.mark.parametrize("argv,name", [
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
    ])
    def test_output_matches_golden_file(self, capsys, argv, name):
        # A change that alters reports on purpose regenerates these files
        # with `tau <argv> > tests/data/<name>`, run from the repository
        # root.
        assert main(argv) == 0
        golden = DATA / name
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_all_rules_golden_file_fires_every_rule(self):
        report = json.loads(
            (DATA / "all_rules_json_certify.txt").read_text(encoding="utf-8"))
        assert {s["rule"] for s in report["certificate"]} == {
            "R1", "R2", "R3", "R4", "R5", "R6", "R7-braid", "R7-torus",
            "R7-pretzel", "R7-grid", "R7-double"}

    def test_steps_citing_one_instance_each_write_its_premise(self):
        fixed, cert = propagate(load_factbase(RANDOM_WIDE))
        text = "".join(to_json(build_report(fixed.records, cert), cert,
                               True))
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
        chunks = list(to_json(build_report(fixed.records, cert), cert, True))
        # A knot or a step opens at indent 4, and nothing else does.
        items = [chunk.count("\n    {") for chunk in chunks]
        assert sum(items) == 1000 + len(cert)
        assert max(items) <= report_mod.CHUNK < 1000
        text = "".join(chunks)
        assert text == json.dumps(json.loads(text), indent=2)

    @pytest.mark.parametrize("argv,name", [
        (["deduce", ALL_RULES, "--certify"], "all_rules_certify.txt"),
        (["deduce", ALL_RULES, "--query", "s2", "--certify"],
         "all_rules_query_s2_certify.txt"),
        (["catalog", "--certify"], "catalog_certify.txt"),
        (["deduce", ALL_RULES, "--json", "--certify"],
         "all_rules_json_certify.txt"),
        (["deduce", RANDOM_WIDE, "--json", "--certify"],
         "random_wide_100_json_certify.txt"),
    ])
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
        env = {**os.environ,
               "PYTHONPATH": str(Path(taucalc.__file__).parents[1])}
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
        path = tmp_path / "facts.json"
        path.write_text(json.dumps({
            "knots": [{"id": "a"}],
            "facts": [{"id": "a", "kind": "tau_lower", "value": 2},
                      {"id": "a", "kind": "g3", "value": 0}]}))
        names = {"MISSING": str(tmp_path / "missing.json"),
                 "INCONSISTENT": str(path)}
        assert main([names.get(a, a) for a in argv]) == code
        assert gc.isenabled() is gc_enabled

    def test_usage_error_leaves_the_collector(self, capsys, gc_enabled):
        with pytest.raises(SystemExit):
            main(["torus", "3"])
        assert gc.isenabled() is gc_enabled

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as ei:
            main(["torus", "3"])
        assert ei.value.code == 2
