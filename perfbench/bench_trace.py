"""Spans and per-package self time for the benchmark's traced run.

The program is not edited: :class:`Tracer` wraps public entry points of
each layer (class methods and module functions the campaign path calls)
with spans, and runs a deterministic profiler (cProfile) only inside the
simulate spans. Each span records its name, cell id, parent span, start
and end; spans stay in memory until :meth:`Tracer.write_spans`.

Profiler self time is grouped by this repository's module names
(:func:`layer_of`). Time in code outside ``repro`` (builtins, the
standard library, generated dataclass methods) goes to the layer that
called it directly, and to ``other`` when that caller is outside
``repro`` too, so that e.g. ``heapq`` work lands in ``events``. The span
wrappers themselves run inside the simulate spans and form the ``trace``
layer.
"""

from __future__ import annotations

import cProfile
import functools
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

#: span names whose time the profiler splits by package
SIMULATE_SPANS = ("net.launch", "net.run_until_quiet", "flowsim.run")
#: the root span of one cell in the cold and in the warm pass
CELL_SPANS = ("cell", "cell.warm")

#: modules that form a layer of their own; keys are (package, module)
_MODULE_LAYERS = {
    ("net", "routing"): "net.routing",
    ("core", "switch"): "core.switch",
    ("core", "flowlist"): "core.flowlist",
    ("core", "sender"): "core.sender",
    ("core", "comparator"): "core.comparator",
    ("core", "config"): "core.comparator",
    ("transport", "__init__"): "transport.base",
    ("transport", "base"): "transport.base",
    ("transport", "tcp"): "transport.tcp",
    ("transport", "rcp"): "transport.rcp",
    ("transport", "d3"): "transport.d3",
    ("flowsim", "engine"): "flowsim.engine",
    ("flowsim", "progress"): "flowsim.engine",
    ("flowsim", "paths"): "flowsim.paths",
    ("flowsim", "rcp_model"): "flowsim.rcp_model",
    ("flowsim", "pdq_model"): "flowsim.pdq_model",
    ("flowsim", "d3_model"): "flowsim.d3_model",
    ("workload", "flow"): "workload.flow",
}
#: the layer of every other module of a package
_PACKAGE_LAYERS = {
    "events": "events",
    "net": "net",
    "core": "core.rest",
    "transport": "transport.base",
    "faults": "faults",
    "flowsim": "flowsim.rest",
    "workload": "workload.stream",
    "metrics": "metrics",
    "obs": "obs",
    "utils": "utils",
}
#: every layer the profiler reports, in report order
LAYERS = (
    "events", "net", "net.routing",
    "core.switch", "core.flowlist", "core.sender", "core.comparator",
    "core.rest",
    "transport.base", "transport.tcp", "transport.rcp", "transport.d3",
    "faults",
    "flowsim.engine", "flowsim.paths", "flowsim.rcp_model",
    "flowsim.pdq_model", "flowsim.d3_model", "flowsim.rest",
    "workload.stream", "workload.flow", "metrics", "obs", "utils",
    "repro.rest", "trace",
)
_HERE = str(Path(__file__).resolve().parent)


def layer_of(filename: str) -> str | None:
    """The layer of a source file, or None for code outside ``repro``.
    The benchmark's own wrappers form the ``trace`` layer."""
    if filename.startswith(_HERE):
        return "trace"
    path = filename.replace("\\", "/")
    at = path.rfind("/src/repro/")
    if at < 0:
        return None
    parts = path[at + len("/src/repro/"):].split("/")
    if len(parts) == 1:
        return "repro.rest"
    module = parts[-1].removesuffix(".py")
    return _MODULE_LAYERS.get((parts[0], module),
                              _PACKAGE_LAYERS.get(parts[0], "repro.rest"))


def _code_layer(code) -> str | None:
    # builtins appear as plain strings in cProfile's raw entries
    return layer_of(code.co_filename) if hasattr(code, "co_filename") else None


def self_time_by_layer(profile: cProfile.Profile) -> tuple[dict, float]:
    """Profiler self seconds per layer, plus the ``other`` remainder."""
    by_layer = Counter({layer: 0.0 for layer in LAYERS})
    other = 0.0
    for entry in profile.getstats():
        layer = _code_layer(entry.code)
        if layer is None:
            other += entry.inlinetime
            continue
        by_layer[layer] += entry.inlinetime
        for call in entry.calls or ():
            if _code_layer(call.code) is None:
                by_layer[layer] += call.inlinetime
                other -= call.inlinetime
    return dict(by_layer), other


class Tracer:
    """Installs span wrappers, records spans, and restores on exit."""

    def __init__(self) -> None:
        #: [name, cell, parent index, start, end] per span
        self.spans: list[list] = []
        self.cell: str | None = None
        self.counts: Counter = Counter()
        self.profile = cProfile.Profile()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.cell, parent, perf_counter(), None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed "
                               "out of order")

    def wrap(self, owner, attr: str, name: str, *,
             profiled: bool = False, after=None) -> None:
        """Replace ``owner.attr`` with a spanned call of the original.

        ``after(args, result)`` sees each call's arguments and result, for
        counts taken at the same boundary as the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            index = tracer.open(name)
            if profiled:
                tracer.profile.enable()
            try:
                result = original(*args, **kwargs)
            finally:
                if profiled:
                    tracer.profile.disable()
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, spanned)

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        import repro.obs
        from repro.campaign.spec import TopologySpec, WorkloadSpec
        from repro.campaign.store import ResultStore
        from repro.events.event import Event
        from repro.flowsim.d3_model import D3Model
        from repro.flowsim.engine import FlowLevelSimulation
        from repro.flowsim.pdq_model import PdqModel
        from repro.flowsim.rcp_model import RcpModel
        from repro.metrics.collector import MetricsCollector
        from repro.metrics.streaming import StreamingMetricsCollector
        from repro.net.network import Network
        from repro.workload.stream import FlowStream

        counts = self.counts

        def count_active(args, _result):
            counts["flowsim.allocate_calls"] += 1
            counts["flowsim.active_flows"] += len(args[1])

        def count_put(_args, path):
            counts["campaign.store.put_bytes"] += Path(path).stat().st_size

        self.wrap(TopologySpec, "build", "topology.build")
        self.wrap(WorkloadSpec, "build", "workload.build")
        self.wrap(FlowStream, "take_until", "workload.stream")
        self.wrap(Network, "__init__", "engine.construct")
        self.wrap(FlowLevelSimulation, "__init__", "engine.construct")
        self.wrap(Network, "launch", "net.launch", profiled=True)
        self.wrap(Network, "run_until_quiet", "net.run_until_quiet",
                  profiled=True)
        self.wrap(FlowLevelSimulation, "run", "flowsim.run", profiled=True)
        for model in (RcpModel, PdqModel, D3Model):
            self.wrap(model, "allocate", "flowsim.allocate",
                      after=count_active)
        self.wrap(repro.obs, "harvest_packet_run", "obs.harvest")
        self.wrap(repro.obs, "harvest_fluid_run", "obs.harvest")
        self.wrap(MetricsCollector, "to_dict", "campaign.serialize")
        self.wrap(StreamingMetricsCollector, "to_dict", "campaign.serialize")
        self.wrap(ResultStore, "put", "campaign.store.put", after=count_put)
        self.wrap(ResultStore, "get", "campaign.store.get")

        cancel = Event.__dict__["cancel"]

        def counted_cancel(event):
            if not event.cancelled:
                counts["events.cancelled"] += 1
            cancel(event)

        self._patches.append((Event, "cancel", cancel))
        Event.cancel = counted_cancel
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def check_spans(self) -> list[str]:
        """Every span closed, and every non-root span nested in a parent
        of the same cell."""
        problems = []
        for name, cell, parent, start, end in self.spans:
            if end is None or cell is None:
                problems.append(f"span {name} unclosed or outside a cell")
            elif parent is None:
                if name not in CELL_SPANS:
                    problems.append(f"span {name} has no parent")
            else:
                p_name, p_cell, _, p_start, p_end = self.spans[parent]
                if p_cell != cell:
                    problems.append(f"span {name} parent {p_name} is in "
                                    "another cell")
                elif not (p_start <= start <= end <= p_end):
                    problems.append(f"span {name} outside parent {p_name}")
        return problems

    def span_times(self, start: int = 0) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name, over the spans
        recorded from index ``start`` on."""
        spans = self.spans[start:]
        inclusive: Counter = Counter()
        children: Counter = Counter()
        for name, _cell, parent, begin, end in spans:
            inclusive[name] += end - begin
            if parent is not None:
                children[parent] += end - begin
        own: Counter = Counter()
        for index, (name, _cell, _parent, begin, end) in enumerate(
                spans, start):
            own[name] += (end - begin) - children[index]
        return inclusive, own

    def write_spans(self, path: Path) -> None:
        """Write the spans as JSON lines (name, cell, parent, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, (name, cell, parent, start, end) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "name": name, "cell": cell,
                    "parent": parent, "start": start, "end": end,
                }) + "\n")
