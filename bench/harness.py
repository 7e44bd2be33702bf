"""Shared pieces of the benchmark: inputs on disk, spawning `tau`, checks.

Children run the checkout this file sits in (`src/` next to `bench/`) with
PYTHONPATH pointing there, never an installed copy, and without any
TAU_STEP_BUDGET override from the caller's environment.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# What `tau` is asked to do per workload; INPUT is the generated fact file.
INPUT = "{input}"
ARGV = {
    "catalog": ["catalog", "--json", "--certify"],
    "random-wide": ["deduce", INPUT, "--json", "--certify"],
    "chain-deep": ["deduce", INPUT, "--query", "c0", "--json"],
    "presentations": ["deduce", INPUT, "--json"],
}
TIMEOUT_S = 60.0


class Input:
    """One input of a workload: the fact file `tau` reads (the bundled
    catalog for `catalog`) and the independent expectation."""

    def __init__(self, workload: str, key: str, sizes: dict, out_dir: Path):
        self.workload = workload
        self.key = key
        if workload == "catalog":
            self.path = SRC / "taucalc" / "data" / "catalog.json"
            self.expect = workloads.catalog_expectation()
            self.knots = len(self.expect["knots"])
        else:
            doc, self.expect = workloads.build(workload, key, sizes)
            self.path = out_dir / f"{workload}-{key}.json"
            self.path.write_text(json.dumps(doc))
            self.knots = len(doc["knots"])
        self.argv = [str(self.path) if a == INPUT else a
                     for a in ARGV[workload]]

    def check(self, stdout: str) -> str | None:
        """None when `tau`'s output agrees with the expectation, else why
        not."""
        try:
            return workloads.check_report(self.workload, json.loads(stdout),
                                          self.expect)
        except (ValueError, KeyError, TypeError) as e:
            return f"malformed report: {e!r}"

    def load_snippet(self) -> str:
        """Python source that loads this input the way `tau` does."""
        if self.workload == "catalog":
            return "taucalc.catalog.load_bundled_catalog()"
        return f"taucalc.catalog.load_factbase({str(self.path)!r})"


class Workload:
    """The inputs of one run, generated from its seed; invocations take
    them in turn.  The catalog's input is fixed, so its seed is unused."""

    def __init__(self, name: str, seed: int, sizes: dict, out_dir: Path):
        self.name = name
        self.sizes = dict(sizes.get(name, {}))
        count = self.sizes.pop("inputs", 1)
        self.inputs = [Input(name, f"{seed}.{i}", self.sizes, out_dir)
                       for i in range(count)]
        self._turn = itertools.cycle(self.inputs)

    def next_input(self) -> Input:
        return next(self._turn)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TAU_STEP_BUDGET", None)
    return env


def spawn(cmd: list[str], stdout_path: Path, deadline: float) -> dict:
    """Run one child to completion, killing it after TIMEOUT_S or at the
    perf_counter `deadline`; its own wall time, CPU time and peak RSS.
    os.wait4 gives the rusage of exactly this child, where
    getrusage(RUSAGE_CHILDREN) would be a running maximum over all."""
    timeout = max(1.0, min(TIMEOUT_S, deadline - time.perf_counter()))
    stderr_path = stdout_path.with_suffix(".stderr")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except ChildProcessError:  # reaped by the timer's kill
            status, ru = None, None
        wall = time.perf_counter() - t0
        timer.cancel()
    err = stderr_path.read_text(errors="replace")
    code = None if status is None else os.waitstatus_to_exitcode(status)
    if code is not None:
        proc.returncode = code  # reaped here, not by Popen
    return {
        "wall": wall,
        "cpu": None if ru is None else ru.ru_utime + ru.ru_stime,
        "rss_mb": None if ru is None else ru.ru_maxrss / 1024,
        "code": code,
        "stderr": err[-500:],
    }


def invoke(w: Workload, out_dir: Path, deadline: float) -> dict:
    """One `tau` invocation on the workload's next input, with `error` set
    when it failed."""
    inp = w.next_input()
    out_path = out_dir / f"{w.name}.stdout"
    run = spawn([sys.executable, "-m", "taucalc.cli", *inp.argv], out_path,
                deadline)
    run["knots"] = inp.knots
    if run["code"] != 0:
        run["error"] = f"exit {run['code']}: {run['stderr'].strip()}"
    else:
        run["error"] = inp.check(out_path.read_text())
    return run


def provenance(taucalc_file: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "taucalc_file": taucalc_file,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "src_lines": src_lines,
    }
