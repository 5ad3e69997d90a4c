"""RCP equilibrium rate model: max-min fair sharing.

RCP's fixed point is max-min fairness over the network (every flow gets the
fair share of its bottleneck link), computed here by standard progressive
water-filling with per-flow rate caps.

``capacities`` may be a dict keyed by ``(src, dst)`` name tuples or a flat
list indexed by dense edge ids; flow paths hold the matching edge tokens.

Both entry points feed one round loop (:func:`_water_fill`) with the same
link membership: ``members[edge]`` lists the flows crossing ``edge`` and
``links[flow]`` holds each flow's distinct edges.
:func:`max_min_rates` builds that membership per call.
:class:`RcpModel`, once the engine has called ``begin_run``, keeps it
across ``allocate`` calls instead, under the contract
:meth:`repro.flowsim.pdq_model.PdqModel.begin_run` describes: between
calls the flow list only gains flows at its tail and sheds flows whose
``departed`` flag is set. So a call joins the new tail flows and removes
the departed ones, where successive calls differ by about one flow. A
flow's path changes only at a fault reroute, after which the engine calls
``invalidate_keys`` and the next call rebuilds the membership. Capacities
and ``max_rate`` are read fresh on every call.

An incrementally kept membership lists edges and member flows in another
order than a fresh build, and that order cannot reach the float bits:
the bottleneck share is a minimum, each link's ``residual -= share *
count`` touches only its own residual, and counts are integers. The one
order that does reach them, capped flows subtracting from a shared
residual, is taken from the fids, not from the membership (see
:func:`_water_fill`).
"""

from __future__ import annotations


from repro.flowsim.progress import FlowProgress

_INF = float("inf")


def _no_members(capacities):
    """A zero member count per edge, shaped like ``capacities``: a list
    for dense edge ids (faster to index and copy than a dict)."""
    if isinstance(capacities, list):
        return [0] * len(capacities)
    return dict.fromkeys(capacities, 0)


def _join(flows, count, members: dict, links: dict) -> None:
    """Add ``flows`` to the link membership (a repeated hop counts once)."""
    for flow in flows:
        distinct = tuple(dict.fromkeys(flow.path))
        links[flow] = distinct
        for edge in distinct:
            count[edge] += 1
            on = members.get(edge)
            if on is None:
                members[edge] = [flow]
            else:
                on.append(flow)


def _water_fill(flows, capacities, count, members: dict,
                links: dict) -> dict[int, float]:
    """Progressive-filling max-min allocation honoring per-flow max rates.

    Each round raises every unfrozen flow by the bottleneck share -- the
    least ``residual / count`` over the links still carrying unfrozen
    flows -- unless some flow would reach its cap first: then the capped
    flows freeze at their caps instead, and the round ends. Flows on a
    link whose residual drops to ~0 freeze with it. When every unfrozen
    flow is capped, the rest of the rounds cannot change a rate, so the
    loop stops there; in round one that is the contention-free exit,
    taken before any per-call state is built.

    Counting, not set algebra: every live link keeps the number of its
    unfrozen member flows, decremented once per link when a member
    freezes. A round therefore costs O(live links + unfrozen flows),
    where the frozen reference
    (:func:`repro.flowsim.naive.naive_max_min_rates`) intersects every
    link's member set with the unfrozen set three times per round.

    The float operations are the reference's, so rates are
    bit-identical: the same ``residual / count`` minimum, the same
    ``residual -= share * count`` per link, and capped flows subtracted
    from their links' residuals in the iteration order of the
    reference's ``unfrozen`` set. That last order reaches the float bits
    -- two capped flows on one link subtract from the same residual --
    so when a round caps two or more flows they are sorted by their
    place in a set built exactly as the reference builds it, ``{f.fid
    for f in flows}`` (a set of the same fids built another way may size
    its table differently and iterate in another order); a set never
    reorders on removal, so that is also their order in the reference's
    shrunken set. Fids must be unique.
    """
    share = _INF
    for edge in members:
        fair = capacities[edge] / count[edge]
        if fair < share:
            share = fair
    if share == _INF:
        return {f.fid: 0.0 for f in flows}
    limit = share + 1e-9
    for flow in flows:
        if flow.max_rate > limit:
            break
    else:
        return {f.fid: f.max_rate for f in flows}

    residual = capacities.copy()
    count = count.copy()
    live = list(members)
    # every unfrozen flow has gained the same shares in the same order,
    # so ``level`` is each one's rate, bit for bit; ``rate`` holds the
    # frozen flows
    level = 0.0
    rate: dict = {}
    unfrozen = list(flows)
    rank = None
    for _ in range(len(flows) + len(live) + 1):
        if not unfrozen or share == _INF:
            break
        # flows capped below the share freeze at their cap first
        limit = share + 1e-9
        capped = [f for f in unfrozen if f.max_rate - level <= limit]
        if len(capped) == len(unfrozen):
            for flow in capped:
                rate[flow] = flow.max_rate
            break
        if capped:
            if len(capped) > 1:
                if rank is None:
                    rank = {fid: place for place, fid
                            in enumerate({f.fid for f in flows})}
                capped.sort(key=lambda f: rank[f.fid])
            for flow in capped:
                increment = flow.max_rate - level
                rate[flow] = flow.max_rate
                for edge in flow.path:
                    residual[edge] -= increment
                for edge in links[flow]:
                    count[edge] -= 1
        else:
            # otherwise saturate the bottleneck link(s)
            level += share
            saturated = []
            for edge in live:
                left = residual[edge] - share * count[edge]
                residual[edge] = left
                if left <= 1e-6:
                    saturated.append(edge)
            for edge in saturated:
                for flow in members[edge]:
                    if flow not in rate:
                        rate[flow] = level
                        for other in links[flow]:
                            count[other] -= 1
        unfrozen = [f for f in unfrozen if f not in rate]
        # the tightest link still carrying unfrozen flows sets the next
        # increment
        share = _INF
        still = []
        for edge in live:
            n = count[edge]
            if n:
                still.append(edge)
                fair = residual[edge] / n
                if fair < share:
                    share = fair
        live = still
    return {f.fid: rate.get(f, level) for f in flows}


def max_min_rates(flows: list[FlowProgress],
                  capacities) -> dict[int, float]:
    """Max-min rates with the link membership built for this call alone
    (D3's leftover phase, and any caller without a run)."""
    count = _no_members(capacities)
    members: dict = {}
    links: dict = {}
    _join(flows, count, members, links)
    return _water_fill(flows, capacities, count, members, links)


class RcpModel:
    """Max-min fair rates; no deadline awareness, no termination."""

    name = "RCP"

    def __init__(self):
        # link membership kept across calls, only under begin_run(): the
        # previous call's flows (a copy: the engine edits its list in
        # place; None until the next call rebuilds), the member count
        # per edge, the member flows per live edge, and each flow's
        # distinct edges
        self._incremental = False
        self._flows: list[FlowProgress] | None = None
        self._count = None
        self._members: dict = {}
        self._links: dict = {}

    def begin_run(self) -> None:
        """Keep link membership across ``allocate`` calls (called by the
        engine, which honors the contract in the module docstring).
        Direct ``allocate`` calls without ``begin_run`` always rebuild."""
        self._incremental = True
        self._flows = None

    def invalidate_keys(self) -> None:
        """Drop the link membership; the next call rebuilds it. The engine
        calls this after fault reroutes, which change flow paths."""
        self._flows = None

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        if not self._incremental:
            return max_min_rates(flows, capacities)
        prev = self._flows
        if prev is not None and flows[:len(prev)] != prev:
            prev = self._depart(prev)
            if flows[:len(prev)] != prev:
                prev = None  # not the begin_run contract: rebuild
        if prev is None:
            prev = []
            self._count = _no_members(capacities)
            self._members = {}
            self._links = {}
        if len(flows) > len(prev):
            _join(flows[len(prev):], self._count, self._members, self._links)
            prev = flows.copy()
        self._flows = prev
        return _water_fill(flows, capacities, self._count, self._members,
                           self._links)

    def _depart(self, prev: list[FlowProgress]) -> list[FlowProgress]:
        """Remove departed flows from the membership; return the rest."""
        count = self._count
        members = self._members
        links = self._links
        kept = []
        for flow in prev:
            if not flow.departed:
                kept.append(flow)
                continue
            for edge in links.pop(flow):
                count[edge] -= 1
                if count[edge]:
                    members[edge].remove(flow)
                else:
                    del members[edge]
        return kept

    def terminations(self, flows, rates, now) -> list[tuple[int, str]]:
        return []
