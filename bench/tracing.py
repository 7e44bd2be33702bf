"""Traced run: per-layer metrics from spans around calls into each module.

The spans are recorded from the benchmark's side: while a traced
invocation runs, every reference to a listed public function inside the
taucalc modules (and json.dumps, which renders the report) is swapped for a
wrapper that opens a span, calls through, closes it, and updates the
layer's counters.  `tau` itself runs in-process via `taucalc.cli.main` with
the workload's own arguments.

A span is (invocation id, name, start, end, parent index); the spans of one
invocation share its id, and all are kept in memory and written out at the
end.  A layer's time is its self time: span duration minus the time its
direct children cover, summed over its spans in one invocation; reported
values are medians over the traced invocations.

Each layer metric and the end-to-end metric it should move:

  startup.python_s, startup.import_s    wall_p50_s on catalog
  catalog.load_s, .knots, .relations,   setup_s on random-wide (copying
    .input_bytes                          add_knot) and presentations
  braid.*, grid.*                       setup_s, wall_p50_s on presentations;
                                          zero on random-wide, chain-deep
  deduce.propagate_s, .steps,           wall_p50_s on chain-deep,
    .us_per_step                          random-wide, presentations
  deduce.growth,                        wall_p50_s on chain-deep (measured
    .reversed_propagate_s                 there only, zero elsewhere)
  deduce.replay_s                       wall_p50_s on presentations,
                                          random-wide
  deduce.query_s, .query_steps          wall_p50_s on chain-deep
  report.build_s, .render_s, .bytes     wall_p50_s, peak_rss_mb on
                                          random-wide
  trace.overhead_s                      traced total (startup spans plus
                                          the in-process invocation) minus
                                          the untraced wall_p50_s
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import workloads

STARTUP_REPS = 5
GROWTH_REPS = 3
MAX_TRACED = 200  # caps the spans kept for a fast workload (catalog)


def _loaded(counters, args, base):
    counters["catalog.knots"] += len(base.records)
    counters["catalog.relations"] += len(base.relations)


def _letters(counters, args, braid):
    counters["braid.letters"] += len(braid.letters)


def _cells(counters, args, result):
    counters["grid.cells"] += args[0].size ** 2


def _steps(counters, args, result):
    counters["deduce.steps"] += len(result[1])


def _query_steps(counters, args, result):
    counters["deduce.query_steps"] += len(result[1])


def _bytes(counters, args, text):
    counters["report.bytes"] += len(text.encode())


# (module, function, layer, counter update)
LAYERS = [
    ("taucalc.cli", "main", "cli.main", None),
    ("taucalc.catalog", "load_factbase", "catalog.load", _loaded),
    ("taucalc.catalog", "load_bundled_catalog", "catalog.load", _loaded),
    ("taucalc.braid", "parse_braid", "braid.parse", _letters),
    ("taucalc.braid", "closure_components", "braid.closure", None),
    ("taucalc.grid", "parse_grid", "grid.parse", None),
    ("taucalc.grid", "tb", "grid.tb", _cells),
    ("taucalc.deduce", "propagate", "deduce.propagate", _steps),
    ("taucalc.deduce", "replay", "deduce.replay", None),
    ("taucalc.deduce", "query", "deduce.query", _query_steps),
    ("taucalc.report", "build_report", "report.build", None),
    ("json", "dumps", "report.render", _bytes),
]
TIMED = ["catalog.load", "braid.parse", "braid.closure", "grid.parse",
         "grid.tb", "deduce.propagate", "deduce.replay", "deduce.query",
         "report.build", "report.render"]
COUNTS = {"catalog.knots": "count", "catalog.relations": "count",
          "catalog.input_bytes": "bytes", "braid.letters": "count",
          "grid.cells": "count", "deduce.steps": "count",
          "deduce.query_steps": "count", "report.bytes": "bytes"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [invocation, name, start, end, parent]
        self.stack: list[int] = []
        self.invocation = 0
        self.counters: dict[str, int] = defaultdict(int)

    def record(self, name: str, start: float, end: float) -> None:
        """A root span timed by the caller."""
        self.spans.append([self.invocation, name, start, end, None])

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = [self.invocation, name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap every module-level reference to a LAYERS function for its
        traced wrapper; restore them on exit."""
        mods = [m for k, m in sys.modules.items()
                if k == "json" or k.startswith("taucalc")]
        swapped = []
        for modname, attr, layer, count in LAYERS:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(layer, orig, count)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)
                        swapped.append((m, k, orig))
        try:
            yield
        finally:
            for m, k, orig in swapped:
                setattr(m, k, orig)

    def self_times(self, first: int) -> dict[str, float]:
        """Per-layer self time of the spans from index `first` on."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans[first:]:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][1]] -= end - start
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"invocation": inv, "name": name, "start": start, "end": end,
             "parent": parent}
            for inv, name, start, end, parent in self.spans]))


def _median_time(fn, deadline: float) -> float:
    times = []
    while not times or (len(times) < GROWTH_REPS
                        and time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _chain_growth(w: harness.Workload, out_dir: Path,
                  deadline: float) -> dict[str, float]:
    """Propagate time at n over the time at n/2 (the first n/2 links of the
    same seed), and at n with the relation order reversed."""
    from taucalc import catalog, deduce

    inp = w.inputs[0]
    doc, _ = workloads.build(w.name, inp.key, {"links": w.sizes["links"] // 2})
    half_path = out_dir / f"{w.name}-{inp.key}-half.json"
    half_path.write_text(json.dumps(doc))
    full = catalog.load_factbase(str(inp.path))
    half = catalog.load_factbase(str(half_path))
    rev = dataclasses.replace(full, relations=full.relations[::-1])
    t_full = _median_time(lambda: deduce.propagate(full), deadline)
    t_half = _median_time(lambda: deduce.propagate(half), deadline)
    t_rev = _median_time(lambda: deduce.propagate(rev), deadline)
    return {"deduce.growth": t_full / t_half,
            "deduce.reversed_propagate_s": t_rev}


def run_traced(w: harness.Workload, seconds: float, out_dir: Path,
               deadline: float) -> dict:
    sys.path.insert(0, str(harness.SRC))
    import taucalc
    import taucalc.cli

    tracer = Tracer()
    errors: list[str] = []
    attempted = failed = 0

    # Start-up cannot be spanned in-process: time fresh interpreters.
    for name, code in (("startup.python", "pass"),
                       ("startup.import", "import taucalc.cli")):
        for _ in range(STARTUP_REPS):
            t0 = time.perf_counter()
            run = harness.spawn([sys.executable, "-c", code],
                                out_dir / "startup.stdout", deadline)
            tracer.record(name, t0, t0 + run["wall"])
            if run["code"] != 0:
                errors.append(f"{name}: exit {run['code']}")
    python_s, import_s = (
        statistics.median(end - start for _, n, start, end, _ in tracer.spans
                          if n == name)
        for name in ("startup.python", "startup.import"))
    import_s -= python_s

    # Untraced invocations, for the overhead comparison.
    harness.invoke(w, out_dir, deadline)  # warm-up
    walls = []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start < 0.4 * seconds
                        and time.perf_counter() < deadline):
        run = harness.invoke(w, out_dir, deadline)
        attempted += 1
        walls.append(run["wall"])
        if run["error"]:
            failed += 1
            errors.append(run["error"])

    # Traced in-process invocations.
    per_inv: list[tuple[dict, dict, float]] = []
    start = time.perf_counter()
    while not per_inv or (time.perf_counter() - start < 0.6 * seconds
                          and len(per_inv) < MAX_TRACED
                          and time.perf_counter() < deadline):
        tracer.invocation += 1
        tracer.counters = defaultdict(int)
        first = len(tracer.spans)
        inp = w.next_input()
        tracer.counters["catalog.input_bytes"] = inp.path.stat().st_size
        out = io.StringIO()
        with tracer.patched(), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                code = taucalc.cli.main(inp.argv)
            except Exception as e:  # a crash is a failed invocation
                code = f"{type(e).__name__}: {e}"
            total = time.perf_counter() - t0
        attempted += 1
        err = f"traced exit {code}" if code != 0 else inp.check(out.getvalue())
        if err:
            failed += 1
            errors.append(err)
        per_inv.append((tracer.self_times(first),
                        dict(tracer.counters), total))
    tracer.dump(out_dir / f"spans-{w.name}-{w.inputs[0].key}.json")

    def med(get) -> float:
        return statistics.median(get(selfs, counts) for selfs, counts, _
                                 in per_inv)

    metrics: dict[str, tuple[float, str]] = {
        "startup.python_s": (python_s, "s"),
        "startup.import_s": (import_s, "s"),
    }
    for layer in TIMED:
        metrics[layer + "_s"] = (med(lambda s, c: s.get(layer, 0.0)), "s")
    for name, unit in COUNTS.items():
        metrics[name] = (med(lambda s, c: c.get(name, 0)), unit)
    steps = metrics["deduce.steps"][0]
    metrics["deduce.us_per_step"] = (
        1e6 * metrics["deduce.propagate_s"][0] / steps if steps else 0.0,
        "us/step")
    growth = {"deduce.growth": 0.0, "deduce.reversed_propagate_s": 0.0}
    if w.name == "chain-deep":
        growth = _chain_growth(w, out_dir, deadline)
    metrics["deduce.growth"] = (growth["deduce.growth"], "ratio")
    metrics["deduce.reversed_propagate_s"] = (
        growth["deduce.reversed_propagate_s"], "s")
    traced_total = python_s + import_s + statistics.median(
        t for _, _, t in per_inv)
    metrics["trace.overhead_s"] = (
        traced_total - statistics.median(walls), "s")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "notes": {"traced_invocations": len(per_inv),
                  "untraced_invocations": len(walls),
                  "untraced_wall_p50_s": statistics.median(walls),
                  "traced_total_s": traced_total},
        "origin": taucalc.__file__,
    }
