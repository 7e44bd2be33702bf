"""Seeded inputs for the benchmark workloads and their independent answers.

Nothing here imports taucalc: every generator and every expected answer is
computed from first principles, so a defect in the program cannot also hide
in its oracle.  Each generator returns a fact-file document (the JSON `tau
deduce` reads) plus the expectation `check_report` compares a report with.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Benchmark input sizes, chosen so one invocation takes at most about a
# second: a 25 s run then collects 20 or more samples, enough for a tail
# percentile with 10 samples beyond it.  A random base's propagation cost varies by
# seed with its number of sweeps (7 to 10), so random-wide rotates over
# `inputs` bases per run.
SIZES = {
    "random-wide": {"knots": 1500, "inputs": 8},
    "chain-deep": {"links": 200},
    "presentations": {"pairs": 1, "strands": 200, "letters": 1500,
                      "grid": 160},
}


# ---------------------------------------------------------------------------
# random-wide: hidden-truth random base

_COPRIME = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5)]


def random_base(rng: random.Random, knots: int) -> tuple[dict, dict]:
    """Fact file with a hidden true tau per knot.  Every fact and relation
    holds for the truth, so every reported tau interval must contain it."""
    doc = {"knots": [], "facts": [], "relations": []}
    truth: dict[str, int] = {}
    ids: list[str] = []
    for i in range(knots):
        id = f"k{i}"
        pres = []
        kind = rng.random()
        if kind < 0.3 or not ids:
            p, q = rng.choice(_COPRIME)
            pres.append({"kind": "torus", "value": f"{p} {q}"})
            truth[id] = (p - 1) * (q - 1) // 2
        elif kind < 0.5:
            other = rng.choice(ids)
            doc["relations"].append({"kind": "mirror", "a": other, "b": id})
            truth[id] = -truth[other]
        elif kind < 0.7:
            a, b = rng.choice(ids), rng.choice(ids)
            doc["relations"].append({"kind": "sum", "a": a, "b": b, "c": id})
            truth[id] = truth[a] + truth[b]
        else:
            t = rng.randint(-4, 4)
            doc["facts"].append({"id": id, "kind": "tau_lower",
                                 "value": t - rng.randint(0, 2)})
            doc["facts"].append({"id": id, "kind": "tau_upper",
                                 "value": t + rng.randint(0, 2)})
            truth[id] = t
        doc["knots"].append({"id": id, "presentations": pres})
        ids.append(id)
    for _ in range(knots // 2):
        a, b = rng.choice(ids), rng.choice(ids)
        kind = rng.random()
        if kind < 0.4:
            if 0 <= truth[a] - truth[b] <= 1:
                doc["relations"].append(
                    {"kind": "crossing_change", "plus": a, "minus": b})
        elif kind < 0.8:
            g = abs(truth[a] - truth[b]) + rng.randint(0, 2)
            doc["relations"].append(
                {"kind": "cobordism", "a": a, "b": b, "genus": g})
        else:
            doc["relations"].append({
                "kind": "unknotting", "knot": a,
                "positive": max(truth[a], 0) + rng.randint(0, 2),
                "negative": max(-truth[a], 0) + rng.randint(0, 2)})
    return doc, {"truth": truth}


# ---------------------------------------------------------------------------
# chain-deep: c0 - c1 - ... - cn, cn anchored at the unknot's genus


def chain(rng: random.Random, links: int) -> tuple[dict, dict]:
    """Links inserted from c0 toward the anchor cn, so information flows
    against insertion order.  With a crossing changes and b genus-1
    cobordisms, tau(c0) is exactly [-b, a + b]."""
    doc = {
        "knots": [{"id": f"c{i}", "presentations": []}
                  for i in range(links + 1)],
        "facts": [{"id": f"c{links}", "kind": "g3", "value": 0,
                   "source": "anchor"}],
        "relations": [],
    }
    a = b = 0
    for i in range(links):
        if rng.random() < 0.5:
            doc["relations"].append({"kind": "crossing_change",
                                     "plus": f"c{i}", "minus": f"c{i + 1}"})
            a += 1
        else:
            doc["relations"].append({"kind": "cobordism", "a": f"c{i}",
                                     "b": f"c{i + 1}", "genus": 1})
            b += 1
    return doc, {"query": "c0", "tau": [-b, a + b]}


# ---------------------------------------------------------------------------
# presentations: large single-component braids and grids


def knot_braid(rng: random.Random, strands: int, letters: int) -> list[int]:
    """Random signed letters, then one adjacent generator per pair of
    closure cycles still apart, each merging two cycles into one."""
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(letters)]
    # at[p]: the strand at position p after the word; one swap per letter
    # composes the closure permutation in O(n + k).
    at = list(range(strands))
    for l in word:
        i = abs(l) - 1
        at[i], at[i + 1] = at[i + 1], at[i]
    parent = list(range(strands))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, v in enumerate(at):
        parent[find(p)] = find(v)
    for i in range(strands - 1):
        if find(i) != find(i + 1):
            parent[find(i)] = find(i + 1)
            word.append(rng.choice((1, -1)) * (i + 1))
    return word


def knot_grid(rng: random.Random, size: int) -> tuple[list[int], list[int]]:
    """X columns a random permutation; O columns placed so that the row
    successor map (row r -> row of the O in column xs[r]) is a random
    size-cycle, which makes the diagram a knot."""
    xs = list(range(size))
    rng.shuffle(xs)
    order = list(range(size))
    rng.shuffle(order)
    os = [0] * size
    for j, r in enumerate(order):
        os[order[(j + 1) % size]] = xs[r]
    return xs, os


def brute_force_tb(xs: list[int], os: list[int]) -> int:
    """tb = writhe - NE corners, by scanning every cell of the grid."""
    n = len(xs)
    cell = [[None] * n for _ in range(n)]  # cell[row][col]
    for r in range(n):
        cell[r][xs[r]] = "X"
        cell[r][os[r]] = "O"
    col_marks = [[r for r in range(n) if cell[r][c]] for c in range(n)]
    writhe = 0
    for r in range(n):
        for c in range(n):
            if cell[r][c]:
                continue
            if not min(xs[r], os[r]) < c < max(xs[r], os[r]):
                continue
            lo, hi = col_marks[c]
            if not lo < r < hi:
                continue
            east = xs[r] > os[r]            # rows run O to X
            x_row = lo if cell[lo][c] == "X" else hi
            north = x_row < (hi if x_row == lo else lo)  # columns run X to O
            writhe += 1 if east == north else -1
    ne = 0
    for r in range(n):
        for c in (xs[r], os[r]):
            row_other = os[r] if c == xs[r] else xs[r]
            lo, hi = col_marks[c]
            col_other = hi if r == lo else lo
            if row_other < c and col_other < r:
                ne += 1
    return writhe - ne


def presentations(rng: random.Random, pairs: int, strands: int,
                  letters: int, grid: int) -> tuple[dict, dict]:
    """`pairs` braid knots and `pairs` grid knots, each with a mirror
    partner that has no presentation of its own."""
    doc = {"knots": [], "facts": [], "relations": []}
    expect: dict[str, dict] = {}
    for i in range(pairs):
        word = knot_braid(rng, strands, letters)
        kp = sum(1 for l in word if l > 0)
        km = len(word) - kp
        # slice-Bennequin below, Bennequin surface genus above.
        tau = [(kp - km - strands + 1) // 2, (len(word) - strands + 1) // 2]
        doc["knots"].append({"id": f"b{i}", "presentations": [
            {"kind": "braid",
             "value": f"{strands}: " + " ".join(map(str, word))}]})
        expect[f"b{i}"] = {"tau": tau}
        expect[f"mb{i}"] = {"tau": [-tau[1], -tau[0]]}

        xs, os = knot_grid(rng, grid)
        doc["knots"].append({"id": f"g{i}", "presentations": [
            {"kind": "grid", "value": f"{grid} / X: {' '.join(map(str, xs))}"
                                      f" / O: {' '.join(map(str, os))}"}]})
        expect[f"g{i}"] = {"tb_lower": brute_force_tb(xs, os)}
        expect[f"mg{i}"] = {}
        for id in (f"b{i}", f"g{i}"):
            doc["knots"].append({"id": f"m{id}", "presentations": []})
            doc["relations"].append({"kind": "mirror", "a": id, "b": f"m{id}"})
    return doc, {"knots": expect}


# ---------------------------------------------------------------------------
# building and checking


def build(workload: str, seed: str, sizes: dict) -> tuple[dict, dict]:
    """(fact-file document, expectation) for a deduce workload."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "random-wide":
        return random_base(rng, sizes["knots"])
    if workload == "chain-deep":
        return chain(rng, sizes["links"])
    return presentations(rng, **sizes)


def catalog_expectation() -> dict:
    return json.loads((HERE / "catalog_expected.json").read_text())


def _endpoint(s: str):
    return float(s) if s in ("inf", "-inf") else int(s)


def check_report(workload: str, report: dict, expect: dict) -> str | None:
    """None when `report` (the parsed JSON of one invocation) agrees with
    the independent expectation, else a one-line reason."""
    knots = {k["id"]: k for k in report.get("knots", ())}
    if workload == "catalog":
        want = expect["knots"]
        if set(knots) != set(want):
            return f"catalog knots {sorted(knots)} != {sorted(want)}"
        for id, w in want.items():
            tau = [_endpoint(s) for s in knots[id]["tau"]]
            g4 = [_endpoint(s) for s in knots[id]["g4"]]
            if tau != [w["tau"], w["tau"]]:
                return f"{id}: tau {tau} != exact {w['tau']}"
            if not g4[0] <= w["g4"] <= g4[1]:
                return f"{id}: g4 {g4} misses {w['g4']}"
        if len(report.get("certificate", ())) != report.get("total_steps"):
            return "certificate length differs from total_steps"
        return None
    if workload == "random-wide":
        truth = expect["truth"]
        if set(knots) != set(truth):
            return f"{len(knots)} knots reported, {len(truth)} generated"
        for id, t in truth.items():
            lo, hi = (_endpoint(s) for s in knots[id]["tau"])
            if not lo <= t <= hi:
                return f"{id}: tau [{lo}, {hi}] misses hidden truth {t}"
        if len(report.get("certificate", ())) != report.get("total_steps"):
            return "certificate length differs from total_steps"
        return None
    if workload == "chain-deep":
        q = expect["query"]
        if list(knots) != [q]:
            return f"query {q} reported knots {list(knots)}"
        tau = [_endpoint(s) for s in knots[q]["tau"]]
        if tau != expect["tau"]:
            return f"{q}: tau {tau} != {expect['tau']}"
        return None
    want = expect["knots"]
    if set(knots) != set(want):
        return f"knots {sorted(knots)} != {sorted(want)}"
    for id, w in want.items():
        if "tau" in w and [_endpoint(s) for s in knots[id]["tau"]] != w["tau"]:
            return f"{id}: tau {knots[id]['tau']} != {w['tau']}"
        if "tb_lower" in w and knots[id]["tb_lower"] != w["tb_lower"]:
            return f"{id}: tb_lower {knots[id]['tb_lower']} != {w['tb_lower']}"
    return None
