"""The benchmark's four workloads: deterministic spec lists from a seed.

Each workload is a fixed grid of cell shapes (protocol, size, load...)
that the benchmark cycles through. Cell ``i`` takes grid shape
``i % len(grid)`` and scenario seed ``seed * SEED_STRIDE + i``, so the
workload seed changes every cell's random draws (flow sizes, deadlines,
arrivals, permutations) but never the mix of shapes. That keeps the total
work of a run nearly the same across seeds, and makes a shorter run a
prefix of a longer one, so digests pinned for the full run also cover a
reduced run.

``repro`` is imported lazily: the orchestrating process never imports
it, so importing the program is part of what ``setup_s`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass

#: distance between the scenario seeds of two benchmark seeds
SEED_STRIDE = 100_000
#: the seed whose per-cell digests are pinned in ``pinned/``
DEFAULT_SEED = 1
#: fewest cells in a run, so ``cell_s.tail`` keeps ten cells beyond it
MIN_CELLS = 12

MSEC = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a grid of cell shapes and what it isolates."""

    name: str
    #: cells per second of ``--seconds``: sizes the cold pass so that it
    #: lasts about ``--seconds`` on a 2-core x86 container
    cells_per_second: float
    #: layers that must record zero work in the traced run
    bypassed: tuple[str, ...]

    def n_cells(self, seconds: float) -> int:
        return max(MIN_CELLS, round(seconds * self.cells_per_second))

    def grid(self) -> list:
        """The cell shapes, as ScenarioSpecs with the placeholder seed."""
        return _GRIDS[self.name]()

    def specs(self, seed: int, seconds: float) -> list:
        """The run's spec list: grid shapes cycled, one seed per cell."""
        grid = self.grid()
        return [
            grid[i % len(grid)].with_(seed=seed * SEED_STRIDE + i)
            for i in range(self.n_cells(seconds))
        ]


def _pdq_fanin() -> list:
    from repro import ScenarioSpec, TopologySpec, WorkloadSpec, expand_grid

    base = ScenarioSpec(
        protocol="PDQ(Full)",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("fig3.aggregation", {
            "n_flows": 3, "mean_size": 10_000,
            "mean_deadline": 2 * MSEC, "deadline_floor": 0.5 * MSEC,
        }),
        engine="packet",
        sim_deadline=2.0,
    )
    return expand_grid(
        base,
        **{"workload.n_flows": (3, 5, 8, 12, 16, 20, 25, 30, 35, 40),
           "workload.mean_deadline": (2 * MSEC, 5 * MSEC, 20 * MSEC)},
    )


def _baseline_stream() -> list:
    from repro import ScenarioSpec, TopologySpec, WorkloadSpec, expand_grid

    base = ScenarioSpec(
        protocol="TCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("open_system", {
            "duration": 0.02, "rate_per_sec": 5000.0,
            "size_scale": 0.005, "drain": 0.5,
        }),
        engine="packet",
        options={"streaming_metrics": True},
    )
    loss = {"loss": [{"src": "*", "dst": "*", "rate": 0.005}]}
    return expand_grid(
        base,
        protocol=("TCP", "RCP", "D3"),
        faults=(None, loss),
    )


def _fluid_stream() -> list:
    from repro import ScenarioSpec, TopologySpec, WorkloadSpec, expand_grid

    base = ScenarioSpec(
        protocol="RCP",
        topology=TopologySpec("single_rooted"),
        workload=WorkloadSpec("open_system", {
            "duration": 0.01, "target_load": 0.1,
            "size_scale": 0.01, "drain": 1.0,
        }),
        engine="flow",
        options={"streaming_metrics": True},
    )
    return expand_grid(
        base, **{"workload.target_load": (0.05, 0.1, 0.15)},
    )


def _fluid_fabric() -> list:
    from repro import ScenarioSpec, TopologySpec, WorkloadSpec, expand_grid

    base = ScenarioSpec(
        protocol="PDQ(Full)",
        topology=TopologySpec("fattree", {"n_servers": 54}),
        workload=WorkloadSpec("fig8.permutation", {
            "flows_per_server": 1, "mean_deadline": 20 * MSEC,
        }),
        engine="flow",
        sim_deadline=10.0,
    )
    # RCP on 54 servers is left out: five shapes of distinct cost put the
    # median cell inside one shape's group (D3, 54) instead of on the
    # gap between two, where cell_s.p50 would jump with the seed
    return expand_grid(
        base,
        **{"protocol,topology.n_servers": (
            ("PDQ(Full)", 54), ("D3", 54),
            ("PDQ(Full)", 128), ("RCP", 128), ("D3", 128))},
    )


_GRIDS = {
    "pdq-fanin": _pdq_fanin,
    "baseline-stream": _baseline_stream,
    "fluid-stream": _fluid_stream,
    "fluid-fabric": _fluid_fabric,
}

#: layers a packet run without PDQ never enters
_PDQ_SWITCHING = ("core.switch", "core.flowlist", "core.sender", "core.rest")
#: layers of the packet engine; fluid runs must leave them idle
_PACKET_ONLY = (
    ("events", "net") + _PDQ_SWITCHING
    + ("transport.base", "transport.tcp", "transport.rcp", "transport.d3")
)

#: why each workload was chosen is recorded in manifest.json
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pdq-fanin",
            cells_per_second=30.0,
            bypassed=("faults",),
        ),
        Workload(
            name="baseline-stream",
            cells_per_second=22.0,
            bypassed=_PDQ_SWITCHING,
        ),
        Workload(
            name="fluid-stream",
            cells_per_second=11.0,
            bypassed=_PACKET_ONLY,
        ),
        Workload(
            name="fluid-fabric",
            cells_per_second=6.0,
            bypassed=_PACKET_ONLY,
        ),
    )
}
