"""RCP equilibrium rate model: max-min fair sharing.

RCP's fixed point is max-min fairness over the network (every flow gets the
fair share of its bottleneck link), computed here by standard progressive
water-filling with per-flow rate caps.

``capacities`` may be a dict keyed by ``(src, dst)`` name tuples or a flat
list indexed by dense edge ids; flow paths hold the matching edge tokens.
"""

from __future__ import annotations


from repro.flowsim.progress import FlowProgress


def max_min_rates(flows: list[FlowProgress],
                  capacities) -> dict[int, float]:
    """Progressive-filling max-min allocation honoring per-flow max rates.

    Each round raises every unfrozen flow by the bottleneck share -- the
    least ``residual / count`` over the links still carrying unfrozen
    flows -- unless some flow would reach its cap first: then the capped
    flows freeze at their caps instead, and the round ends. Flows on a
    link whose residual drops to ~0 freeze with it.

    Counting, not set algebra: every touched link keeps the number of its
    unfrozen member flows, decremented once per link when a member
    freezes, and ``live`` lists the links whose count is still > 0 in
    first-use order. A round therefore costs O(live links + unfrozen
    flows), where the frozen reference
    (:func:`repro.flowsim.naive.naive_max_min_rates`) intersects every
    link's member set with the unfrozen set three times per round.

    The float operations are the reference's, in its order, so rates are
    bit-identical: the same ``residual / count`` minimum, the same
    ``residual -= share * count`` per link, and capped flows subtracted
    from their links' residuals in the iteration order of the
    reference's ``unfrozen`` set. That last order reaches the float bits
    -- two capped flows on one link subtract from the same residual -- so
    ``unfrozen`` here is the order of a set built exactly as the
    reference builds it, ``{f.fid for f in flows}`` (a set of the same
    fids built another way may size its table differently and iterate
    in another order), then filtered as flows freeze: a set never
    reorders on removal. Fids must be unique.
    """
    n = len(flows)
    rate = [0.0] * n
    cap = [f.max_rate for f in flows]
    frozen = [False] * n
    # touched links get slots in first-use order, the reference's order
    slot_of: dict = {}
    members: list[list[int]] = []
    # per flow: its path as slots (the capped step subtracts once per
    # hop) and its distinct slots (a freeze decrements each count once)
    hops: list[list[int]] = []
    links: list[list[int]] = []
    for i, flow in enumerate(flows):
        path = []
        repeats = False
        for edge in flow.path:
            slot = slot_of.get(edge)
            if slot is None:
                slot = slot_of[edge] = len(members)
                members.append([i])
            elif members[slot][-1] != i:
                members[slot].append(i)
            else:
                repeats = True
            path.append(slot)
        hops.append(path)
        links.append(list(dict.fromkeys(path)) if repeats else path)
    residual = [capacities[edge] for edge in slot_of]
    count = [len(flows_on) for flows_on in members]

    index = {f.fid: i for i, f in enumerate(flows)}
    unfrozen = [index[fid] for fid in {f.fid for f in flows}]
    live = list(range(len(residual)))
    inf = float("inf")
    for _ in range(n + len(residual) + 1):
        if not unfrozen:
            break
        # the tightest link determines the next increment
        share = inf
        for slot in live:
            fair = residual[slot] / count[slot]
            if fair < share:
                share = fair
        if share == inf:
            break
        # flows capped below the share freeze at their cap first
        limit = share + 1e-9
        capped = [i for i in unfrozen if cap[i] - rate[i] <= limit]
        if capped:
            for i in capped:
                increment = cap[i] - rate[i]
                rate[i] = cap[i]
                for slot in hops[i]:
                    residual[slot] -= increment
                frozen[i] = True
                for slot in links[i]:
                    count[slot] -= 1
        else:
            # otherwise saturate the bottleneck link(s)
            for i in unfrozen:
                rate[i] += share
            saturated = []
            for slot in live:
                left = residual[slot] - share * count[slot]
                residual[slot] = left
                if left <= 1e-6:
                    saturated.append(slot)
            for slot in saturated:
                for i in members[slot]:
                    if not frozen[i]:
                        frozen[i] = True
                        for other in links[i]:
                            count[other] -= 1
        unfrozen = [i for i in unfrozen if not frozen[i]]
        live = [slot for slot in live if count[slot]]
    return {f.fid: r for f, r in zip(flows, rate)}


class RcpModel:
    """Max-min fair rates; no deadline awareness, no termination."""

    name = "RCP"

    def allocate(self, flows: list[FlowProgress], capacities,
                 now: float) -> dict[int, float]:
        return max_min_rates(flows, capacities)

    def terminations(self, flows, rates, now) -> list[tuple[int, str]]:
        return []
