"""Campaign benchmark: a workload's spec list turned into stored results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pdq-fanin --seed 1 --seconds 8 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` the
per-layer ones (a traced pass next to an untraced one). The metric names,
units and bounds are in ``BENCHMARK.json``; the workloads are in
``bench_workloads.py`` and described in ``manifest.json``. The last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

This process never imports ``repro``. It starts ``bench_child.py``
processes: ``SETUP_SAMPLES - 1`` that stop once set up, then the one that
runs the workload. ``setup_s`` is the median, over all of them, of the
time from process start to the line the child prints right before its
first cell is submitted. Stores and spans live under ``.perfbench_runs``
in the checkout; the stores are removed on exit.

The timings of the cold and warm passes are host seconds scaled to a
reference host speed measured between cells (see ``bench_clock.py``); the
raw wall times are printed beside them. ``setup_s`` stays raw wall time:
a kernel timed in this process does not track a child's import speed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_runs"
#: set-up samples per run, the measured process included
SETUP_SAMPLES = 5
#: a run must end within this many seconds of wall time
RUN_BUDGET = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the cold pass to last about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this run's cell digests to pinned/")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Child:
    """One ``bench_child.py`` process, killed if it outlives the budget."""

    def __init__(self, args, mode: str, store: Path, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        command = [
            sys.executable, str(HERE / "bench_child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode,
            "--store", str(store),
        ]
        if mode == "trace":
            command += ["--spans",
                        str(SCRATCH / "spans" / f"{args.workload}.jsonl")]
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - monotonic()),
                                     self.process.kill)
        self.timer.start()

    def ready(self) -> float | None:
        """Seconds from process start to its READY line (None if never)."""
        for line in self.process.stdout:
            if line.strip() == "READY":
                return perf_counter() - self.started
        return None

    def finish(self) -> tuple[int, str]:
        """Wait for exit; returns (exit code, last stdout line)."""
        lines = self.process.stdout.read().splitlines()
        code = self.process.wait()
        self.timer.cancel()
        return code, lines[-1] if lines else ""


def tail_index(n: int) -> int:
    """Index of the highest sorted sample with ten samples beyond it."""
    return max(0, n - 11)


def end_to_end(result: dict, setups: list[float]) -> dict:
    """The end-to-end metrics; ``setups`` are set-up seconds."""
    times = sorted(result["cell_times"])
    cells = result["cells"]
    failed = len(result["failures"])
    return {
        "setup_s": statistics.median(setups),
        "run_s": result["run_s"],
        "warm_s": result["warm_s"],
        "cell_s.p50": statistics.median(times),
        "cell_s.tail": times[tail_index(len(times))],
        "flows_per_s": result["flows"] / result["run_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": 1.0 - failed / cells,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {ROOT / 'src' / 'repro'} "
                    "is missing")
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing")
    benchmark = json.loads(spec_path.read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; "
                    f"one of {sorted(workloads)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    deadline = monotonic() + RUN_BUDGET
    SCRATCH.mkdir(exist_ok=True)
    stores = Path(tempfile.mkdtemp(prefix="stores-", dir=SCRATCH))
    try:
        setups = []
        modes = ["setup"] * (0 if args.trace else SETUP_SAMPLES - 1)
        for i, mode in enumerate(modes + ["trace" if args.trace else "run"]):
            child = Child(args, mode, stores / f"{mode}{i}", deadline)
            seconds = child.ready()
            code, last = child.finish()
            if code != 0 or seconds is None:
                return fail(f"a {mode} process exited with {code}")
            setups.append(seconds)
    finally:
        shutil.rmtree(stores, ignore_errors=True)

    result = json.loads(last)
    for index, reasons in sorted(result["failures"].items(),
                                 key=lambda item: int(item[0]))[:10]:
        print(f"cell {index} failed: {'; '.join(reasons)}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.pin:
        pinned = HERE / "pinned" / f"{args.workload}.json"
        pinned.parent.mkdir(exist_ok=True)
        pinned.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds,
             "cells": result["digests"]}, indent=1, sort_keys=True) + "\n")

    table = benchmark["per_layer" if args.trace else "end_to_end"]
    values = result["per_layer"] if args.trace else end_to_end(result,
                                                              setups)
    if set(values) != {m["name"] for m in table}:
        return fail("measured metrics differ from BENCHMARK.json: "
                    f"{sorted(set(values) ^ {m['name'] for m in table})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}
    n = result["cells"]
    print(f"{args.workload}: {n} cells, {result['flows']} flows, seed "
          f"{args.seed}; cell_s.tail is sample {tail_index(n) + 1} of {n}")
    print(f"  raw wall: run {result['run_wall_s']:.4g} s, "
          f"warm {result['warm_wall_s']:.4g} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": n,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
