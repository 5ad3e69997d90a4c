"""The measured process: one workload's spec list, spec to stored result.

``run.py`` starts this script; it is not meant to be run by hand. It
imports ``repro``, expands and hashes the workload's spec list, opens a
fresh :class:`~repro.campaign.store.ResultStore`, and prints ``READY``
right before the first cell is submitted, which is where the parent
stops the ``setup_s`` clock. With ``--mode setup`` it exits there.

Otherwise it drives the cells through one in-process
:class:`~repro.campaign.runner.CampaignRunner` (``max_workers=1``) as a
closed loop with concurrency 1: a cell is submitted only after the
previous one is stored. Warm passes then submit the same list to the
same store. Output checks run after the passes, outside every timed
region, and the last stdout line is one JSON object for the parent.

Cell times are scaled to a reference host speed measured by a kernel
run between cells (``bench_clock.py``); the raw sums are reported too.

``--mode trace`` repeats the cold and warm passes with the
:class:`bench_trace.Tracer` installed, into a second fresh store, and
reports per-layer numbers instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from bench_clock import SpeedProbe
from bench_workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
#: per-cell wall-clock budget handed to the runner
CELL_TIMEOUT = 60.0
#: warm passes: at least WARM_PASSES, and more (up to WARM_PASSES_MAX)
#: until their wall time adds up to WARM_FILL_S; ``warm_s`` is the median
WARM_PASSES = 3
WARM_PASSES_MAX = 15
WARM_FILL_S = 1.0
#: share of the simulate spans the profiler may leave unexplained
ATTRIBUTION_SLACK = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--store", type=Path, required=True,
                        help="empty directory for this process's stores")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where the traced run writes its spans")
    return parser.parse_args(argv)


# -- passes -------------------------------------------------------------------


def closed_loop(runner, specs, probe=None, tracer=None, root="cell"):
    """Submit cells one at a time; returns ((start, end) per cell,
    outcomes).

    With a :class:`~bench_clock.SpeedProbe`, the reference kernel runs
    between cells and after the last one, outside every cell's time."""
    intervals, outcomes = [], []
    for spec in specs:
        if probe is not None:
            probe.sample()
        if tracer is not None:
            tracer.cell = spec.key
            span = tracer.open(root)
        started = perf_counter()
        outcome = runner.run([spec]).outcomes[0]
        intervals.append((started, perf_counter()))
        if tracer is not None:
            tracer.close(span)
        outcomes.append(outcome)
    if probe is not None:
        probe.sample()
    return intervals, outcomes


def wall(intervals) -> float:
    return sum(end - start for start, end in intervals)


# -- output checks ------------------------------------------------------------


def payload_json(collector) -> str:
    return json.dumps(collector.to_dict(), sort_keys=True,
                      separators=(",", ":"))


def outcome_digest(collector) -> str:
    """Digest of a cell's simulated outcomes: its per-flow records or its
    streaming summary. ``stats`` is left out because it mixes host-side
    counters (event counts, pool and cache hits, compactions) in."""
    payload = collector.to_dict()
    payload.pop("stats", None)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def resolved_flows(collector) -> int:
    if hasattr(collector, "n_registered"):
        return collector.n_completed + collector.n_terminated
    return sum(1 for r in collector.records.values()
               if r.completed or r.terminated)


def resolve_problem(spec, collector) -> str | None:
    """Why the cell did not resolve each of its flows exactly once."""
    flows = spec.workload.build(spec.topology.build(), spec.seed)
    if collector.unfinished_count():
        return f"{collector.unfinished_count()} flow(s) unresolved"
    if hasattr(flows, "materialize"):
        expected = len(flows.materialize())
        seen = collector.n_registered
        if collector.n_completed + collector.n_terminated != seen:
            return "resolved count differs from registered count"
        if seen != expected:
            return f"registered {seen} of {expected} streamed flows"
        return None
    if sorted(collector.records) != sorted(f.fid for f in flows):
        return "flow ids differ from the workload's"
    if not all(r.completed or r.terminated
               for r in collector.records.values()):
        return "a flow is neither completed nor terminated"
    return None


def check_cells(specs, cold, warm, missed, seed, pinned, run_scenario):
    """Per-cell failure reasons; a cell with any reason counts as failed.

    ``warm`` is the last warm pass; ``missed`` the cells any warm pass
    found missing from the store."""
    failures: dict[int, list[str]] = {}
    digests: list[str | None] = []
    for i, (spec, c, w) in enumerate(zip(specs, cold, warm, strict=True)):
        reasons = failures.setdefault(i, [])
        if not c.ok:
            reasons.append(f"cold: {c.error}")
            digests.append(None)
            continue
        digest = outcome_digest(c.collector)
        digests.append(digest)
        problem = resolve_problem(spec, c.collector)
        if problem:
            reasons.append(problem)
        if i in missed:
            reasons.append("warm pass missed the store")
        elif payload_json(w.collector) != payload_json(c.collector):
            reasons.append("warm payload differs from cold payload")
        if seed == DEFAULT_SEED and spec.key in pinned:
            if pinned[spec.key] != digest:
                reasons.append("digest differs from the pinned one")
    # a second execution of a few cells must reproduce their digests
    for i in sorted({0, len(specs) // 2, len(specs) - 1}):
        if digests[i] is not None:
            again = outcome_digest(run_scenario(specs[i]))
            if again != digests[i]:
                failures[i].append("re-execution changed the digest")
    return {i: r for i, r in failures.items() if r}, digests


# -- per-layer numbers --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, specs, tracer, cold, warm, warm_from, wall_s,
              traced_wall_s, expand_s):
    """The per-layer metrics of a traced run, and the checks on them."""
    from bench_trace import SIMULATE_SPANS, self_time_by_layer

    inclusive, own = tracer.span_times()
    warm_inclusive, _ = tracer.span_times(start=warm_from)
    layers, other = self_time_by_layer(tracer.profile)
    stats: Counter = Counter()
    packet: Counter = Counter()
    for spec, outcome in zip(specs, cold, strict=True):
        if outcome.ok:
            stats.update(outcome.collector.stats)
            if spec.engine == "packet":
                packet.update(outcome.collector.stats)
    counts = tracer.counts
    simulate = sum(inclusive[name] for name in SIMULATE_SPANS)
    pool = stats["net.pool_hits"] + stats["net.pool_misses"]
    comparator = (stats["fluid.comparator_cache_hits"]
                  + stats["fluid.comparator_cache_misses"])
    metrics = {f"{layer}.self_s": seconds
               for layer, seconds in layers.items()}
    metrics.update({
        "campaign.expand_s": expand_s,
        "campaign.serialize_s": inclusive["campaign.serialize"],
        "campaign.store.put_s": own["campaign.store.put"],
        "campaign.store.put_bytes": counts["campaign.store.put_bytes"],
        "campaign.store.get_s": warm_inclusive["campaign.store.get"],
        "campaign.hit_ratio": _ratio(sum(1 for o in warm if o.cached),
                                     len(warm)),
        "campaign.retries": sum(max(0, o.attempts - 1) for o in cold),
        "topology.build_s": inclusive["topology.build"],
        "workload.build_s": inclusive["workload.build"],
        "engine.construct_s": inclusive["engine.construct"],
        "events.count": stats["sim.events"],
        "events.cancelled_ratio": _ratio(
            counts["events.cancelled"],
            counts["events.cancelled"] + stats["sim.events"]),
        "events.compactions": stats["sim.compactions"],
        "net.self_s_per_packet": _ratio(layers["net"],
                                        stats["net.packets_sent"]),
        "net.packets_forwarded": stats["net.packets_forwarded"],
        "net.packets_dropped": stats["net.packets_dropped"],
        "net.wire_losses": stats["net.wire_losses"],
        "net.pool_hit_ratio": _ratio(stats["net.pool_hits"], pool),
        "net.stream_batches": stats["net.stream_batches"],
        "core.pauses": packet["flows.pauses"],
        "core.resumes": packet["flows.resumes"],
        "flowsim.allocate_calls": stats["fluid.allocate_calls"],
        "flowsim.active_per_allocate": _ratio(
            counts["flowsim.active_flows"],
            counts["flowsim.allocate_calls"]),
        "flowsim.allocate_s": inclusive["flowsim.allocate"],
        "flowsim.comparator_hit_ratio": _ratio(
            stats["fluid.comparator_cache_hits"], comparator),
        "obs.harvest_s": inclusive["obs.harvest"],
        "other.self_s": other,
        "simulate_s": simulate,
        "trace.overhead_ratio": _ratio(traced_wall_s, wall_s),
    })

    unattributed = _ratio(simulate - sum(layers.values()) - other, simulate)
    metrics["trace.unattributed_ratio"] = unattributed
    problems = tracer.check_spans()
    if abs(unattributed) > ATTRIBUTION_SLACK:
        problems.append(
            f"attribution does not close: layers + other leave "
            f"{unattributed:.1%} of the simulate spans unexplained")
    for layer in workload.bypassed:
        if metrics[f"{layer}.self_s"] > 0:
            problems.append(f"bypassed layer {layer} recorded "
                            f"{metrics[f'{layer}.self_s']:.6f} s")
    work_counters = {
        "events": ("events.count",),
        "net": ("net.packets_forwarded",),
        "core.switch": ("core.pauses", "core.resumes"),
    }
    for layer in workload.bypassed:
        for name in work_counters.get(layer, ()):
            if metrics[name]:
                problems.append(f"bypassed layer {layer} counted "
                                f"{name} = {metrics[name]}")
    return metrics, problems


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]

    from repro import CampaignRunner, ResultStore
    from repro.campaign import run_scenario, workload_kinds

    workload_kinds()  # import every experiment registry
    started = perf_counter()
    specs = workload.specs(args.seed, args.seconds)
    for spec in specs:
        spec.key  # noqa: B018 - hashing is part of set-up
    expand_s = perf_counter() - started
    store = ResultStore(args.store / "cold")
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = CampaignRunner(max_workers=1, store=store, timeout=CELL_TIMEOUT)
    probe = SpeedProbe()
    cells, cold = closed_loop(runner, specs, probe)
    cell_times = probe.scaled(cells)
    warm_times, warm_wall, missed = [], [], set()
    while (len(warm_times) < WARM_PASSES
           or (sum(warm_wall) < WARM_FILL_S
               and len(warm_times) < WARM_PASSES_MAX)):
        probe = SpeedProbe()
        intervals, warm = closed_loop(runner, specs, probe)
        warm_times.append(sum(probe.scaled(intervals)))
        warm_wall.append(wall(intervals))
        missed.update(i for i, o in enumerate(warm) if not o.cached)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    pinned_path = HERE / "pinned" / f"{workload.name}.json"
    pinned = (json.loads(pinned_path.read_text())["cells"]
              if pinned_path.exists() else {})
    failures, digests = check_cells(specs, cold, warm, missed, args.seed,
                                    pinned, run_scenario)
    result = {
        "cells": len(specs),
        "flows": sum(resolved_flows(o.collector) for o in cold if o.ok),
        "run_s": sum(cell_times),
        "run_wall_s": wall(cells),
        "warm_s": statistics.median(warm_times),
        "warm_wall_s": statistics.median(warm_wall),
        "cell_times": cell_times,
        "peak_rss_mb": peak_rss_mb,
        "failures": {str(i): r for i, r in failures.items()},
        "digests": dict(zip((s.key for s in specs), digests, strict=True)),
        "problems": [],
    }
    if args.mode == "trace":
        from bench_trace import Tracer

        traced_runner = CampaignRunner(
            max_workers=1, store=ResultStore(args.store / "traced"),
            timeout=CELL_TIMEOUT)
        with Tracer() as tracer:
            traced_cells, traced = closed_loop(traced_runner, specs,
                                               tracer=tracer)
            warm_from = len(tracer.spans)
            _, traced_warm = closed_loop(traced_runner, specs, tracer=tracer,
                                         root="cell.warm")
        for i, (outcome, digest) in enumerate(zip(traced, digests,
                                                  strict=True)):
            if not outcome.ok or outcome_digest(outcome.collector) != digest:
                result["failures"].setdefault(str(i), []).append(
                    "traced execution changed the digest")
        metrics, problems = per_layer(
            workload, specs, tracer, traced, traced_warm, warm_from,
            wall(cells), wall(traced_cells), expand_s)
        result["per_layer"] = metrics
        result["problems"] = problems
        if args.spans is not None:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
