"""Event-driven fluid simulation engine (optimized hot path).

Rates are recomputed at every arrival, transfer start, completion and
termination, plus at a periodic refresh (needed when criticality drifts
over time, e.g. flow aging); between recomputations rates are constant and
progress is linear, so completions are located exactly.

Protocol inefficiencies modeled (paper §5.5): per-packet header overhead
(flows carry wire bytes) and flow-initialization latency (data starts
flowing ``init_rtts`` round-trips after arrival).

Hot-path structure (PR 2): paths are tuples of dense edge ids indexing a
flat capacity list (no name-tuple hashing); the waiting set is a heap
keyed on ``transfer_start``; completion ETAs live in a lazy min-heap
(entries invalidated by a per-flow version bump on rate change — an
unchanged rate means an unchanged absolute ETA) and deadline boundaries
in a second lazy heap, so locating the next event no longer scans every
flow. One main loop serves closed batches and open-system streams alike
(see :meth:`FlowLevelSimulation.run`). The frozen pre-optimization engine
is :class:`~repro.flowsim.naive.NaiveFlowLevelSimulation`; parity tests
pin bit-identical metrics between the two.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.errors import ExperimentError, FaultError, RoutingError
from repro.flowsim.paths import GraphRouter
from repro.flowsim.progress import FlowProgress
from repro.metrics.collector import MetricsCollector
from repro.topology.base import Topology
from repro.units import USEC, tx_time
from repro.workload.flow import FlowSpec
from repro.workload.stream import FlowStream

#: per-hop one-way latency components used for the RTT estimate, matching
#: the packet-level defaults (processing dominates)
_PER_HOP_DELAY = 25 * USEC + 0.1 * USEC

_INF = float("inf")


def _name_pair(a: str, b: str) -> tuple[str, str]:
    """Order-free undirected edge key (matches the FaultController's)."""
    return (a, b) if a <= b else (b, a)


class FlowLevelSimulation:
    """Runs a workload through a rate model over a topology."""

    def __init__(
        self,
        topology: Topology,
        model,
        mtu: int = 1500,
        header_bytes: int = 56,
        init_rtts: float = 2.0,
        refresh_interval: float = 1e-3,
        metrics: MetricsCollector | None = None,
        faults: Sequence | None = None,
    ):
        if mtu <= header_bytes:
            raise ExperimentError("mtu must exceed header size")
        self.topology = topology
        self.model = model
        self.mtu = mtu
        self.header_bytes = header_bytes
        self.payload = mtu - header_bytes
        self.init_rtts = init_rtts
        self.refresh_interval = refresh_interval
        # explicit None test: an injected-but-empty collector is falsy
        self.metrics = MetricsCollector() if metrics is None else metrics
        self.router = GraphRouter(topology)
        #: flat list indexed by dense directed-edge id (FlowProgress.path
        #: holds the matching ids); rate models copy and index it directly
        self.capacities: list[float] = self.router.capacity_vector()
        self.now = 0.0
        self.recomputations = 0  # allocate() calls
        self.iterations = 0      # main-loop passes (event boundaries)
        self.pauses = 0          # flows preempted (rate driven to zero)
        self.resumes = 0         # paused flows granted rate again
        self.stream_batches = 0  # non-empty streaming admission pulls
        self._stream_admitted = 0  # flows admitted from a FlowStream
        #: per-event-boundary samplers (repro.obs.probes); empty unless a
        #: scenario requested probes, so the default run pays one truth
        #: test per iteration
        self.samplers: list = []
        #: fault injection (repro.faults.spec.FaultEvent schedule): fault
        #: epochs splice into the streaming loop exactly like unadmitted
        #: arrivals — the advance horizon never crosses the next event,
        #: and due events reroute (or reject) flows before rates are
        #: recomputed. Mirrors the packet engine's FaultController.
        self.fault_events: tuple = tuple(
            sorted(faults, key=lambda e: e.time)
        ) if faults else ()
        self._fault_idx = 0
        self.fault_events_applied = 0
        self.fault_reroutes = 0
        self.flows_rejected = 0
        #: name-level down state (mirrors FaultController's sets)
        self._down_pairs: set[tuple[str, str]] = set()
        self._down_switches: set[str] = set()
        self._base_capacities: list[float] | None = (
            list(self.capacities) if self.fault_events else None
        )
        if self.fault_events:
            self._validate_fault_events()

    def _validate_fault_events(self) -> None:
        graph = self.topology.graph
        for event in self.fault_events:
            if event.is_link:
                if not graph.has_edge(event.a, event.b):
                    raise FaultError(
                        f"{event.action} at t={event.time}: no link "
                        f"{event.a!r} -- {event.b!r} in the topology"
                    )
            elif event.a not in graph.nodes:
                raise FaultError(
                    f"{event.action} at t={event.time}: no node "
                    f"{event.a!r} in the topology"
                )

    # -- setup helpers --------------------------------------------------------------

    def _wire_size(self, size_bytes: int) -> float:
        packets = -(-size_bytes // self.payload)
        return size_bytes + packets * self.header_bytes

    def _estimate_rtt(self, path: Sequence[int]) -> float:
        rtt = 0.0
        capacities = self.capacities
        for eid in path:
            rate = capacities[eid]
            rtt += 2.0 * (_PER_HOP_DELAY + tx_time(self.header_bytes, rate))
        return rtt

    def _make_progress(self, spec: FlowSpec) -> FlowProgress:
        path = self.router.flow_path_ids(spec.fid, spec.src, spec.dst)
        capacities = self.capacities
        max_rate = min(capacities[eid] for eid in path)
        rtt = self._estimate_rtt(path)
        return FlowProgress(
            spec=spec,
            path=path,
            max_rate=max_rate,
            rtt=rtt,
            wire_size=self._wire_size(spec.size_bytes),
            transfer_start=spec.arrival + self.init_rtts * rtt,
        )

    # -- main loop -------------------------------------------------------------------

    def run(self, flows: Sequence[FlowSpec] | FlowStream,
            deadline: float = 60.0,
            max_recomputations: int = 2_000_000) -> MetricsCollector:
        """Run a closed batch or an open-system stream through :meth:`_loop`.

        A stream is admitted as is. A faulted closed batch becomes an
        arrival-sorted stream, so each flow is routed at arrival under
        that moment's fault state. An unfaulted closed batch pre-fills
        the waiting heap and leaves the loop an exhausted stream, so
        every admission and fault branch is a no-op and its trajectories
        (pinned bit-identical against the naive engine) cannot move.
        """
        begin_run = getattr(self.model, "begin_run", None)
        if begin_run is not None:
            # the engine honors the begin_run contract the models' kept
            # state relies on: the active list only gains flows at its
            # tail and sheds departed flows
            begin_run()
        waiting: list[tuple[float, int, FlowProgress]] = []
        if isinstance(flows, FlowStream):
            stream = flows
        elif self.fault_events:
            stream = FlowStream(sorted(flows, key=lambda s: s.arrival))
        else:
            pending = sorted(
                (self._make_progress(self.metrics.register(s).spec)
                 for s in flows),
                key=lambda f: f.spec.arrival,
            )
            for flow in pending:
                self.metrics.on_start(flow.fid, flow.spec.arrival)
            # waiting flows keyed on transfer_start; seq is the
            # arrival-sorted position so promoted batches can be
            # re-ordered to match the reference engine's arrival-order
            # promotion exactly
            waiting = [
                (flow.transfer_start, seq, flow)
                for seq, flow in enumerate(pending)
            ]
            heapq.heapify(waiting)
            stream = FlowStream(())
        self._loop(stream, waiting, deadline, max_recomputations)
        # the loop never admits a flow arriving after ``deadline``;
        # register it unfinished, as a pre-filled batch already has it
        for spec in stream.materialize():
            self.metrics.register(spec)
            self.metrics.on_start(spec.fid, spec.arrival)
        return self.metrics

    def _loop(self, stream: FlowStream,
              waiting: list[tuple[float, int, FlowProgress]],
              deadline: float, max_recomputations: int) -> None:
        """The main loop (``begin_run`` was already called by :meth:`run`).

        Each pass first pulls arrivals into ``waiting`` and applies due
        fault epochs, then promotes started transfers into ``active``,
        allocates rates and advances to the next event. Flows are pulled
        from the stream in ``refresh_interval``-sized windows, and the
        advance horizon never crosses the next unadmitted arrival or
        fault epoch, so an admitted flow always enters the waiting heap
        before simulated time reaches it. Memory is O(concurrent flows):
        the engine never sees a streamed workload whole. Flows arriving
        after ``deadline`` are never admitted.
        """
        active: list[FlowProgress] = []
        eta_heap: list[tuple[float, int, int, FlowProgress]] = []
        deadline_heap: list[tuple[float, int, FlowProgress]] = []

        while waiting or active or not stream.exhausted:
            if self.now > deadline:
                break
            self.iterations += 1
            self._apply_due_faults(waiting, active)
            if not stream.exhausted:
                if not active and not waiting:
                    # idle gap: jump straight to the next arrival (due
                    # faults are applied after the jump, before the
                    # admitted flows compute their paths)
                    next_arrival = stream.peek_arrival()
                    if next_arrival is None:
                        continue
                    if next_arrival > deadline:
                        break
                    if next_arrival > self.now:
                        self.now = next_arrival
                        self._apply_due_faults(waiting, active)
                self._admit_from_stream(stream, waiting)
            if not active and waiting:
                # jump to the next transfer start, but never past an
                # unadmitted arrival (its transfer start could precede
                # it) or a fault epoch (waiting flows may need rerouting
                # or rejecting before they are promoted)
                jump = waiting[0][0]
                next_arrival = stream.peek_arrival()
                if next_arrival is not None and next_arrival < jump:
                    jump = next_arrival
                if self._fault_idx < len(self.fault_events):
                    fault_time = self.fault_events[self._fault_idx].time
                    if fault_time < jump:
                        jump = fault_time
                if jump > self.now:
                    self.now = jump
                self._apply_due_faults(waiting, active)
                if not stream.exhausted:
                    self._admit_from_stream(stream, waiting)
            self._promote(waiting, active, deadline_heap)
            if not active:
                continue

            rates = self.model.allocate(active, self.capacities, self.now)
            self.recomputations += 1
            if self.recomputations > max_recomputations:
                # open-ended runs admit without bound, so a stream's
                # convergence budget tracks admissions instead of
                # staying a flat constant; a pre-filled batch admits
                # nothing and keeps the flat budget
                budget = max_recomputations
                if self._stream_admitted:
                    budget = max(budget, 64 * self._stream_admitted + 1024)
                if self.recomputations > budget:
                    raise ExperimentError(
                        "flow-level simulation did not converge "
                        f"({budget} recomputations)"
                    )
            sending = self._apply_rates(active, rates, eta_heap)
            if len(eta_heap) > 64 and len(eta_heap) > 4 * len(active):
                # models that reshuffle most rates per recomputation (RCP
                # max-min) strand stale entries below the heap top; compact
                # so the heap stays O(active). Dropping invalid entries
                # cannot change the surviving minimum.
                eta_heap = [
                    entry for entry in eta_heap
                    if not entry[3].departed
                    and entry[1] == entry[3].eta_version
                ]
                heapq.heapify(eta_heap)
            if self._terminate_flows(active, rates):
                continue  # rates changed; recompute immediately

            horizon = self._next_event_time(waiting, eta_heap, deadline_heap,
                                            deadline)
            if not stream.exhausted:
                next_arrival = stream.peek_arrival()
                if next_arrival is not None and next_arrival < horizon:
                    horizon = next_arrival
            if self._fault_idx < len(self.fault_events):
                # never advance past a fault epoch: rates computed under
                # the pre-fault topology must not integrate across it
                fault_time = self.fault_events[self._fault_idx].time
                if fault_time < horizon:
                    horizon = fault_time
            dt = horizon - self.now
            if dt < 0:
                if self.now > deadline:
                    # only a jump to a transfer start past ``deadline +
                    # refresh_interval`` lands here: the run is over, and
                    # the flows it promoted stay registered and
                    # unfinished, as in the packet engine
                    break
                raise ExperimentError("fluid engine time went backwards")
            for flow in active:
                # inlined FlowProgress.advance (same arithmetic)
                if flow.rate > 0:
                    flow.remaining_wire = max(
                        0.0, flow.remaining_wire - flow.rate * dt / 8.0
                    )
                else:
                    flow.waited += dt
            self.now = horizon
            self._complete_finished(sending, active)
            if self.samplers:
                for sampler in self.samplers:
                    sampler.on_step(self, active)

    # repro: hot
    def _admit_from_stream(self, stream: FlowStream,
                           waiting: list) -> None:
        """Admission step: pull every arrival inside the next refresh
        window into the waiting heap (register + on_start per flow, what
        :meth:`run` does up front for a pre-filled batch). Runs once per
        main-loop pass while the stream has flows left.

        Under fault injection an arrival may find its endpoints
        partitioned; it is rejected (terminated on arrival) instead of
        crashing the run, matching the packet engine."""
        batch = stream.take_until(self.now + self.refresh_interval)
        if not batch:
            return
        self.stream_batches += 1
        register = self.metrics.register
        on_start = self.metrics.on_start
        make_progress = self._make_progress
        push = heapq.heappush
        seq = self._stream_admitted
        faulted = bool(self.fault_events)
        for spec in batch:
            record = register(spec)
            on_start(spec.fid, spec.arrival)
            if faulted:
                try:
                    flow = make_progress(record.spec)
                except RoutingError:
                    self.flows_rejected += 1
                    self.metrics.on_terminated(
                        spec.fid, self.now, "fault: unroutable at arrival"
                    )
                    seq += 1
                    continue
            else:
                flow = make_progress(record.spec)
            push(waiting, (flow.transfer_start, seq, flow))
            seq += 1
        self._stream_admitted = seq

    # -- fault epochs (repro.faults) ---------------------------------------------------

    def _apply_due_faults(self, waiting: list, active: list) -> None:
        """Apply every fault event scheduled at or before ``now``.

        Updates the down sets, rebuilds the router's excluded-edge set
        and the capacity vector, then re-pins the path of every admitted
        flow that lost an edge — or terminates it when no route remains
        (the fluid analogue of the packet FaultController's reroute
        sweep; both use the same fid-keyed ECMP hash, so surviving flows
        land on the same repaired paths).
        """
        events = self.fault_events
        idx = self._fault_idx
        if idx >= len(events) or events[idx].time > self.now:
            return
        while idx < len(events) and events[idx].time <= self.now:
            event = events[idx]
            idx += 1
            if event.action == "link_down":
                self._down_pairs.add(_name_pair(event.a, event.b))
            elif event.action == "link_up":
                self._down_pairs.discard(_name_pair(event.a, event.b))
            elif event.action == "switch_down":
                self._down_switches.add(event.a)
            else:  # switch_up
                self._down_switches.discard(event.a)
        self.fault_events_applied += idx - self._fault_idx
        self._fault_idx = idx

        down_ids = set()
        down_pairs = self._down_pairs
        down_switches = self._down_switches
        for (a, b), eid in self.router.edge_index.items():
            if a in down_switches or b in down_switches \
                    or _name_pair(a, b) in down_pairs:
                down_ids.add(eid)
        self.router.set_down_edges(down_ids)
        base = self._base_capacities
        capacities = self.capacities
        for eid in range(len(capacities)):
            capacities[eid] = 0.0 if eid in down_ids else base[eid]
        self._reroute_fluid_flows(waiting, active, down_ids)

    def _reroute_fluid_flows(self, waiting: list, active: list,
                             down_ids: set[int]) -> None:
        rerouted = 0
        rejected = 0
        for flow in active:
            if any(eid in down_ids for eid in flow.path):
                rerouted, rejected = self._repath_flow(
                    flow, rerouted, rejected
                )
        for _, _, flow in waiting:
            if any(eid in down_ids for eid in flow.path):
                rerouted, rejected = self._repath_flow(
                    flow, rerouted, rejected
                )
        if not rerouted and not rejected:
            return
        self.fault_reroutes += rerouted
        self.flows_rejected += rejected
        if rejected:
            active[:] = [f for f in active if not f.departed]
            waiting[:] = [entry for entry in waiting
                          if not entry[2].departed]
            heapq.heapify(waiting)
        # a rerouted flow has a new path and max_rate: models that keep
        # state across allocate calls rebuild it (PDQ's comparator keys
        # embed expected_tx, RCP's link membership follows the paths)
        invalidate = getattr(self.model, "invalidate_keys", None)
        if invalidate is not None:
            invalidate()

    def _repath_flow(self, flow: FlowProgress, rerouted: int,
                     rejected: int) -> tuple[int, int]:
        spec = flow.spec
        try:
            path = self.router.flow_path_ids(spec.fid, spec.src, spec.dst)
        except RoutingError:
            flow.departed = True
            self.metrics.on_terminated(
                spec.fid, self.now, "fault: no route after failure"
            )
            return rerouted, rejected + 1
        capacities = self.capacities
        flow.path = path
        flow.max_rate = min(capacities[eid] for eid in path)
        flow.rtt = self._estimate_rtt(path)
        return rerouted + 1, rejected

    # -- helpers ---------------------------------------------------------------------------

    def _promote(self, waiting: list[tuple[float, int, FlowProgress]],
                 active: list[FlowProgress],
                 deadline_heap: list[tuple[float, int, FlowProgress]]) -> None:
        cutoff = self.now + 1e-12
        if not waiting or waiting[0][0] > cutoff:
            return
        batch: list[tuple[int, FlowProgress]] = []
        while waiting and waiting[0][0] <= cutoff:
            _, seq, flow = heapq.heappop(waiting)
            batch.append((seq, flow))
        # arrival order within the batch, matching the reference engine
        batch.sort()
        for seq, flow in batch:
            active.append(flow)
            if flow.abs_deadline is not None:
                heapq.heappush(deadline_heap, (flow.abs_deadline, seq, flow))

    def _apply_rates(self, active: list[FlowProgress], rates: dict[int, float],
                     eta_heap: list[tuple[float, int, int, FlowProgress]],
                     ) -> list[FlowProgress]:
        """Set per-flow rates, track pause spans, and return the sending
        flows (rate > 0) in active order; flows whose rate changed get a
        fresh ETA entry (a constant rate keeps its absolute ETA, so stale
        entries stay valid until the next rate change bumps the version)."""
        now = self.now
        rates_get = rates.get
        tracer = self.metrics.tracer
        sending: list[FlowProgress] = []
        for flow in active:
            rate = rates_get(flow.fid, 0.0)
            if rate <= 0 and flow.paused_since is None:
                flow.paused_since = now
                self.pauses += 1
            elif rate > 0 and flow.paused_since is not None:
                flow.waited += now - flow.paused_since
                flow.paused_since = None
                self.resumes += 1
            if rate != flow.rate:
                if tracer is not None:
                    tracer.on_rate(flow.fid, now, rate)
                flow.rate = rate
                flow.eta_version += 1
                if rate > 0:
                    heapq.heappush(eta_heap, (
                        flow.completion_eta(now), flow.eta_version,
                        flow.fid, flow,
                    ))
            if rate > 0:
                sending.append(flow)
        return sending

    def _terminate_flows(self, active: list[FlowProgress],
                         rates: dict[int, float]) -> bool:
        doomed = self.model.terminations(active, rates, self.now)
        if not doomed:
            return False
        doomed_fids = set()
        for fid, reason in doomed:
            doomed_fids.add(fid)
            self.metrics.on_terminated(fid, self.now, reason)
        still = []
        for flow in active:
            if flow.fid in doomed_fids:
                flow.departed = True
            else:
                still.append(flow)
        active[:] = still
        return True

    def _next_event_time(self, waiting: list[tuple[float, int, FlowProgress]],
                         eta_heap: list[tuple[float, int, int, FlowProgress]],
                         deadline_heap: list[tuple[float, int, FlowProgress]],
                         deadline: float) -> float:
        now = self.now
        horizon = now + self.refresh_interval
        if waiting:
            start = waiting[0][0]
            if start < horizon:
                horizon = start
        while eta_heap:
            _, version, _, flow = eta_heap[0]
            if flow.departed or version != flow.eta_version:
                heapq.heappop(eta_heap)  # stale: rate changed or flow gone
                continue
            # recompute at current time: FP-identical to the reference
            # engine's per-iteration scan value
            eta = flow.completion_eta(now)
            if eta < horizon:
                horizon = eta
            break
        while deadline_heap:
            dl, _, flow = deadline_heap[0]
            if flow.departed or dl <= now:
                heapq.heappop(deadline_heap)  # boundary passed for good
                continue
            # ET condition boundaries also warrant a recomputation
            if dl < horizon:
                horizon = dl
            break
        end = deadline + self.refresh_interval
        return horizon if horizon < end else end

    def _complete_finished(self, sending: list[FlowProgress],
                           active: list[FlowProgress]) -> None:
        # only flows that advanced with rate > 0 can cross the threshold
        finished = [f for f in sending if f.remaining_wire <= 1e-6]
        if not finished:
            return
        done_fids = set()
        for flow in finished:
            done_fids.add(flow.fid)
            flow.departed = True
            self.metrics.on_bytes(flow.fid, flow.spec.size_bytes)
            self.metrics.on_complete(flow.fid, self.now)
        active[:] = [f for f in active if f.fid not in done_fids]
