"""End-to-end benchmark of the `tau` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in a closed loop: each `tau` invocation starts when the
previous one has exited, so all load comes from this single process.

--trace 0 measures, with no tracing, for S seconds and reports the
end-to-end metrics:

  wall_p50_s    median wall time of one invocation, spawn to exit
  wall_tail_s   highest percentile with at least 10 samples beyond it
  knots_per_s   input knots x invocations / total wall time
  peak_rss_mb   largest per-invocation peak RSS (os.wait4, one child each)
  setup_s       median wall time of a fresh interpreter that imports
                taucalc.cli and loads the input into a FactBase

The run is pinned to one CPU, and each time is scaled to a reference
machine speed by a probe timed next to it (see PROBE_REF_S); the raw times
and the median scale factor are printed and recorded beside them.

--trace 1 runs the same command in-process with spans around each
module's public functions and reports per-layer metrics (see tracing.py).

Every output is checked against the workload's independent answer
(workloads.py); an invocation fails on a nonzero exit, a timeout or a
wrong answer.  Human-readable lines come first; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
full record (every sample, the tail percentile, provenance) and the trace
spans are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads

SETUP_REPS = 11
TAIL_BEYOND = 10
DEADLINE_S = 150.0

# Machine-speed probe.  On a shared machine one CPU runs up to twice as slow
# for a second or more at a time, whenever another tenant loads it, which
# no statistic over one run can remove.  So the run is pinned to one CPU
# (see pin_to_one_cpu), and a fixed job in a fresh interpreter (no taucalc:
# start-up, then a short pure-Python loop) is timed between every two
# children as a probe of the machine's speed at that moment.  Like a `tau`
# invocation it is part start-up and part computation, so it slows down
# with the machine much as one does.  Each child's wall time is scaled by
# PROBE_REF_S over the geometric mean of the probes just before and just
# after it: the times read as seconds on a machine where the probe takes
# PROBE_REF_S.  Raw times and the median factor are kept in the record.
PROBE_CODE = ("d = {}\n"
              "for i in range(40000):\n"
              "    d[i % 977] = (i, str(i), [i])\n"
              "sorted(d.items())\n"
              "s = 0\n"
              "for i in range(60000):\n"
              "    s += i * i % 7\n")
PROBE_REF_S = 0.07
# Set-up repetitions are spread over the run, taking about this share of
# its time once SETUP_REPS are done, so that they see the same machine as
# the invocations.
SETUP_SHARE = 0.1


def probe(out_dir: Path, deadline: float) -> dict:
    """One speed probe."""
    return harness.spawn([sys.executable, "-c", PROBE_CODE],
                         out_dir / "probe.stdout", deadline)


def pin_to_one_cpu() -> None:
    """Run this process and every child on the last CPU it may use, so that
    the probe sees the CPU the children run on and no child migrates."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    rank = len(s) - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND beyond it
    return s[rank - 1], 100.0 * rank / len(s)


def setup_once(w: harness.Workload, out_dir: Path,
               deadline: float) -> dict:
    """A fresh interpreter that imports taucalc.cli and loads the next
    input: what `tau deduce` pays before propagation starts."""
    code = ("import taucalc, taucalc.cli\n"
            f"{w.next_input().load_snippet()}\n"
            "print(taucalc.__file__)\n")
    run = harness.spawn([sys.executable, "-c", code],
                        out_dir / "setup.stdout", deadline)
    run["origin"] = (out_dir / "setup.stdout").read_text().strip()
    return run


def run_untraced(w: harness.Workload, seconds: float, out_dir: Path,
                 setup_reps: int, deadline: float) -> dict:
    """The measuring loop: invocations with set-up repetitions spread among
    them, and a speed probe between every two children."""
    harness.invoke(w, out_dir, deadline)  # untimed warm-up: bytecode caches
    runs, setup, probes, errors, origin = [], [], [], [], ""

    def next_probe() -> None:
        run = probe(out_dir, deadline)
        if run["code"] != 0:
            errors.append(f"probe: exit {run['code']}: {run['stderr']}")
        probes.append(run["wall"])

    def scaled(wall: float) -> float:
        return wall * PROBE_REF_S / math.sqrt(probes[-2] * probes[-1])

    next_probe()
    start = time.perf_counter()
    while not runs or ((time.perf_counter() - start < seconds
                        or len(setup) < setup_reps)
                       and time.perf_counter() < deadline):
        runs.append(harness.invoke(w, out_dir, deadline))
        next_probe()
        runs[-1]["scaled"] = scaled(runs[-1]["wall"])
        if (len(setup) < setup_reps or sum(r for r, _ in setup)
                < SETUP_SHARE * (time.perf_counter() - start)):
            rep = setup_once(w, out_dir, deadline)
            next_probe()
            if rep["code"] != 0:
                errors.append(f"setup: exit {rep['code']}: {rep['stderr']}")
            setup.append((rep["wall"], scaled(rep["wall"])))
            origin = rep["origin"]
    ok = [r for r in runs if r["error"] is None]
    walls = [r["scaled"] for r in runs]
    raw_walls = [r["wall"] for r in runs]
    tail_value, tail_pct = tail(walls)
    errors += [r["error"] for r in runs if r["error"] is not None]
    return {
        "metrics": {
            "wall_p50_s": (statistics.median(walls), "s"),
            "wall_tail_s": (tail_value, "s"),
            "knots_per_s": (sum(r["knots"] for r in runs) / sum(walls),
                            "1/s"),
            "peak_rss_mb": (max((r["rss_mb"] for r in ok), default=0.0),
                            "MiB"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
        },
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "errors": errors,
        "notes": {
            "samples": len(runs),
            "wall_tail_percentile": round(tail_pct, 1),
            "fail_ratio": (len(runs) - len(ok)) / len(runs),
            "cpu_p50_s": statistics.median(r["cpu"] for r in ok) if ok else None,
            "setup_samples": len(setup),
            "probe_p50_s": statistics.median(probes),
            "speed_scale_p50": statistics.median(
                s / r for r, s in zip(raw_walls, walls)),
            "raw_wall_p50_s": statistics.median(raw_walls),
            "raw_wall_tail_s": tail(raw_walls)[0],
            "raw_setup_s": statistics.median(r for r, _ in setup),
        },
        "walls": walls,
        "raw_walls": raw_walls,
        "probe_walls": probes,
        "setup_walls": [r for r, _ in setup],
        "origin": origin,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        sizes: dict = workloads.SIZES, out_dir: Path = harness.OUT,
        setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the full record and writes it to
    out_dir."""
    deadline = time.perf_counter() + DEADLINE_S
    out_dir.mkdir(parents=True, exist_ok=True)
    w = harness.Workload(workload, seed, sizes, out_dir)
    if trace:
        res = tracing.run_traced(w, seconds, out_dir, deadline)
    else:
        res = run_untraced(w, seconds, out_dir, setup_reps, deadline)
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               provenance=harness.provenance(res.pop("origin")))
    (out_dir / f"{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res, indent=2))
    return res


def result_line(res: dict) -> dict:
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.ARGV))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (harness.SRC / "taucalc" / "__init__.py").is_file():
        print(f"error: no taucalc sources under {harness.SRC}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = res["provenance"]
    if not Path(prov["taucalc_file"]).resolve().is_relative_to(harness.SRC):
        print(f"error: ran taucalc from {prov['taucalc_file']!r}, "
              f"not from {harness.SRC}", file=sys.stderr)
        return 2
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"taucalc={prov['taucalc_file']} python={prov['python']} "
          f"nproc={prov['nproc']} loadavg={prov['loadavg'][0]:.2f} "
          f"src_lines={prov['src_lines']}")
    for k, v in res["notes"].items():
        print(f"# {k}: {v}")
    for e in res["errors"][:5]:
        print(f"# FAIL {e}")
    for k, (v, u) in res["metrics"].items():
        print(f"{k} = {v:.6g} {u}")
    print(json.dumps(result_line(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
