"""Tiny-size smoke run of the benchmark: result shape and known answers
only, no timing gates, so the harness cannot rot unnoticed."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import harness
import run
import workloads
from taucalc import braid, grid

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SMOKE_SIZES = {
    "random-wide": {"knots": 40, "inputs": 2},
    "chain-deep": {"links": 12},
    "presentations": {"pairs": 1, "strands": 8, "letters": 60, "grid": 9},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(name, trace, tmp_path: Path):
    res = run.run(name, 7, 0, trace, sizes=SMOKE_SIZES,
                  out_dir=tmp_path, setup_reps=1)
    line = json.loads(json.dumps(run.result_line(res)))
    assert line["correct"], res["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float))
               for v in line["metrics"].values())
    assert res["provenance"]["src_lines"] > 0
    if trace:
        assert (tmp_path / f"spans-{name}-7.0.json").is_file()


def test_generators_make_knots_and_tb_oracle_agrees():
    rng = random.Random(5)
    for _ in range(20):
        strands = rng.randint(2, 9)
        word = workloads.knot_braid(rng, strands, rng.randint(0, 30))
        b = braid.BraidWord(strands, tuple(word))
        assert braid.closure_components(b) == 1
        xs, os = workloads.knot_grid(rng, rng.randint(2, 12))
        g = grid.GridDiagram(len(xs), tuple(xs), tuple(os))
        assert grid.components(g) == 1
        assert workloads.brute_force_tb(xs, os) == grid.tb(g)


def test_checks_reject_wrong_answers():
    doc, expect = workloads.chain(random.Random(1), 5)
    lo, hi = expect["tau"]
    good = {"knots": [{"id": "c0", "tau": [str(lo), str(hi)]}]}
    assert workloads.check_report("chain-deep", good, expect) is None
    bad = {"knots": [{"id": "c0", "tau": [str(lo), str(hi + 1)]}]}
    assert workloads.check_report("chain-deep", bad, expect) is not None

    doc, expect = workloads.random_base(random.Random(1), 10)
    knots = [{"id": id, "tau": [str(t), str(t)]}
             for id, t in expect["truth"].items()]
    report = {"knots": knots, "total_steps": 0, "certificate": []}
    assert workloads.check_report("random-wide", report, expect) is None
    knots[3]["tau"] = [str(expect["truth"]["k3"] + 1), "inf"]
    assert workloads.check_report("random-wide", report, expect) is not None
