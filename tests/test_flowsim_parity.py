"""Golden parity: the optimized flow-level engine must produce
bit-identical MetricsCollector output to the frozen pre-optimization code
(engine *and* rate models) on small fig3/fig5/fig8-style grids.

``to_dict()`` equality compares every per-flow float exactly, so any
drift in the allocation arithmetic, event ordering, or completion-time
location fails these tests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PdqConfig
from repro.flowsim.d3_model import D3Model
from repro.flowsim.engine import FlowLevelSimulation
from repro.flowsim.naive import (
    NaiveD3Model,
    NaiveFlowLevelSimulation,
    naive_max_min_rates,
    naive_model_for,
)
from repro.flowsim.pdq_model import PdqModel
from repro.flowsim.progress import FlowProgress
from repro.flowsim.rcp_model import RcpModel, max_min_rates
from repro.units import KBYTE, MSEC
from repro.workload.flow import FlowSpec

# importing the figure modules registers their workload kinds
import repro.experiments.fig3  # noqa: F401
import repro.experiments.fig5  # noqa: F401
import repro.experiments.fig8  # noqa: F401
from repro.campaign.registry import build_topology, build_workload


def _run_both(topology_kind, topology_params, workload_kind, workload_params,
              model_factory, seed=1, sim_deadline=4.0, **engine_kwargs):
    """Run optimized and naive engines on the same scenario; return the
    two metrics dicts."""
    results = []
    for engine_cls, wrap in (
        (FlowLevelSimulation, lambda m: m),
        (NaiveFlowLevelSimulation, naive_model_for),
    ):
        topology = build_topology(topology_kind, topology_params)
        flows = build_workload(workload_kind, topology, seed,
                               workload_params)
        sim = engine_cls(topology, wrap(model_factory()), **engine_kwargs)
        results.append(sim.run(flows, deadline=sim_deadline).to_dict())
    return results


FIG3_GRID = [
    # (model factory, n_flows, mean_deadline)
    (lambda: PdqModel(PdqConfig.full()), 6, 30 * MSEC),
    (lambda: PdqModel(PdqConfig.basic()), 6, 30 * MSEC),
    (lambda: PdqModel(PdqConfig.es_et()), 4, 20 * MSEC),
    (RcpModel, 5, None),
    (D3Model, 5, 25 * MSEC),
]


class TestFig3Parity:
    """Query aggregation on the 12-server single-rooted tree."""

    @pytest.mark.parametrize("idx", range(len(FIG3_GRID)))
    def test_bit_identical(self, idx):
        model_factory, n_flows, mean_deadline = FIG3_GRID[idx]
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": n_flows, "mean_size": 150 * KBYTE,
             "mean_deadline": mean_deadline},
            model_factory,
        )
        assert opt == naive


class TestFig5Parity:
    """Realistic VL2-style workload (poisson arrivals, mixed sizes)."""

    @pytest.mark.parametrize("protocol", ["pdq", "rcp", "d3"])
    def test_bit_identical(self, protocol):
        factory = {
            "pdq": lambda: PdqModel(PdqConfig.full()),
            "rcp": RcpModel,
            "d3": D3Model,
        }[protocol]
        opt, naive = _run_both(
            "single_rooted", {},
            "fig5.vl2",
            {"rate_per_sec": 120.0, "duration": 0.1,
             "mean_deadline": 20 * MSEC},
            factory,
            seed=2,
        )
        assert opt == naive


class TestFig8Parity:
    """Scale-sweep cells: permutation traffic on small fat-trees."""

    @pytest.mark.parametrize("protocol,seed", [
        ("pdq", 1), ("pdq", 3), ("rcp", 1),
    ])
    def test_permutation_bit_identical(self, protocol, seed):
        factory = {"pdq": lambda: PdqModel(PdqConfig.full()),
                   "rcp": RcpModel}[protocol]
        opt, naive = _run_both(
            "fattree", {"n_servers": 16},
            "fig8.permutation", {"flows_per_server": 2},
            factory,
            seed=seed,
        )
        assert opt == naive

    @pytest.mark.parametrize("protocol", ["rcp", "d3"])
    def test_54_server_permutation_bit_identical(self, protocol):
        # dozens of flows per allocation: water-filling runs many rounds
        # with ties and capped flows, unlike the 16-server grid above
        factory = {"rcp": RcpModel, "d3": D3Model}[protocol]
        opt, naive = _run_both(
            "fattree", {"n_servers": 54},
            "fig8.permutation",
            {"flows_per_server": 2, "mean_deadline": 20 * MSEC},
            factory,
        )
        assert opt == naive

    def test_random_pairs_deadlines_bit_identical(self):
        opt, naive = _run_both(
            "fattree", {"n_servers": 16},
            "fig8.random_pairs",
            {"n_flows": 24, "mean_deadline": 20 * MSEC},
            lambda: PdqModel(PdqConfig.full()),
        )
        assert opt == naive


class TestAgingAndEstimateParity:
    """Time-varying keys (aging) and progress-derived criticality
    (estimate mode) force per-call key recomputation — the cache must
    not leak stale keys into either path."""

    def test_aging_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE, "mean_deadline": None},
            lambda: PdqModel(PdqConfig.full(aging_rate=2.0)),
        )
        assert opt == naive

    def test_estimate_mode_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE, "mean_deadline": None},
            lambda: PdqModel(PdqConfig.full(criticality_mode="estimate")),
        )
        assert opt == naive

    def test_random_mode_bit_identical(self):
        opt, naive = _run_both(
            "single_rooted", {},
            "fig3.aggregation",
            {"n_flows": 5, "mean_size": 200 * KBYTE,
             "mean_deadline": 30 * MSEC},
            lambda: PdqModel(PdqConfig.full(criticality_mode="random")),
        )
        assert opt == naive


# few distinct values, so equal shares and equal caps are common; most are
# not dyadic, so the order of two subtractions reaches the float bits
_RATES = st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.0, 2.0, 10.0]) | st.floats(
    min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False,
)


@st.composite
def _allocation(draw):
    """A random water-filling input: ``(flows, capacities, now)``, flows
    as ``(spec, hops, max_rate, wire_size)`` over edges ``0..n-1``. Hops
    may repeat an edge; fids are unique but unordered, so the set order
    of ``unfrozen`` differs from flow order."""
    n_edges = draw(st.integers(min_value=1, max_value=6))
    capacities = [draw(_RATES) for _ in range(n_edges)]
    fids = draw(st.lists(st.integers(min_value=0, max_value=500),
                         min_size=1, max_size=10, unique=True))
    flows = []
    for fid in fids:
        spec = FlowSpec(
            fid=fid, src="a", dst="b", size_bytes=1000,
            arrival=draw(st.sampled_from([0.0, 0.1, 0.2])),
            deadline=draw(st.sampled_from([None, 1e-4, 0.05, 0.3])),
        )
        hops = draw(st.lists(st.integers(min_value=0, max_value=n_edges - 1),
                             max_size=4))
        # small wire sizes make D3's s/d demand fall below max_rate
        wire_size = draw(st.sampled_from([1e-4, 1e-3, 1000.0]))
        flows.append((spec, hops, draw(_RATES), wire_size))
    return flows, capacities, draw(st.sampled_from([0.0, 0.05, 0.15]))


def _progress(flows, token):
    return [
        FlowProgress(spec, [token(e) for e in hops], max_rate, rtt=1e-4,
                     wire_size=wire_size, transfer_start=0.0)
        for spec, hops, max_rate, wire_size in flows
    ]


class TestWaterFillingParity:
    """``max_min_rates`` against the frozen reference on random inputs:
    exact dict equality (no ``approx``), for both capacity shapes, and
    D3's leftover phase on the same draws."""

    @given(_allocation())
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_naive(self, drawn):
        flows, capacities, now = drawn
        by_name = {(f"s{e}", f"d{e}"): c for e, c in enumerate(capacities)}
        named = _progress(flows, lambda e: (f"s{e}", f"d{e}"))
        dense = _progress(flows, lambda e: e)

        expected = naive_max_min_rates(named, by_name)
        assert max_min_rates(named, by_name) == expected
        assert max_min_rates(dense, capacities) == expected

        expected_d3 = NaiveD3Model().allocate(named, by_name, now)
        assert D3Model().allocate(named, by_name, now) == expected_d3
        assert D3Model().allocate(dense, capacities, now) == expected_d3

    def test_capped_flows_subtract_in_set_order(self):
        # fids 1 and 2 both cap below the 1/3 share of edge 0; the set
        # {2, 1, 3} iterates 1, 2, 3, so the leftover for fid 3 is
        # (1.0 - 0.3) - 0.1 == 0.6, where flow order would give
        # (1.0 - 0.1) - 0.3 == 0.6000000000000001
        flows = _progress([
            (FlowSpec(fid=fid, src="a", dst="b", size_bytes=1000), [0],
             max_rate, 1000.0)
            for fid, max_rate in ((2, 0.1), (1, 0.3), (3, 10.0))
        ], lambda e: e)
        rates = max_min_rates(flows, [1.0])
        assert rates == {2: 0.1, 1: 0.3, 3: 0.6}
        assert rates == naive_max_min_rates(flows, {0: 1.0})


def _dense_flow(fid, hops, max_rate):
    spec = FlowSpec(fid=fid, src="a", dst="b", size_bytes=1000)
    return FlowProgress(spec, hops, max_rate, rtt=1e-4, wire_size=1000.0,
                        transfer_start=0.0)


class TestPersistentMembership:
    """``RcpModel`` after ``begin_run`` keeps its link membership across
    ``allocate`` calls. Driven through the engine's mutations -- tail
    promotions, departures, reroutes followed by ``invalidate_keys`` and
    in-place capacity changes, the flow list edited in place as the
    engine edits it -- every call must equal the frozen reference."""

    @staticmethod
    def _check(model, active, capacities):
        expected = naive_max_min_rates(active, dict(enumerate(capacities)))
        assert model.allocate(active, capacities, 0.0) == expected

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_naive_through_mutations(self, data):
        n_edges = data.draw(st.integers(min_value=1, max_value=6))
        capacities = [data.draw(_RATES) for _ in range(n_edges)]
        # unique fids in scrambled order, so set order differs from
        # list order; hops may repeat an edge
        fids = iter(data.draw(st.permutations(range(60))))
        edges = st.integers(min_value=0, max_value=n_edges - 1)
        paths = st.lists(edges, max_size=4)
        model = RcpModel()
        model.begin_run()
        active = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
            for op in data.draw(st.lists(st.sampled_from(
                    ("promote", "depart", "reroute", "capacity")),
                    min_size=1, max_size=3)):
                if op == "promote" or not active:
                    for _ in range(data.draw(st.integers(1, 3))):
                        active.append(_dense_flow(
                            next(fids), data.draw(paths), data.draw(_RATES)))
                elif op == "depart":
                    gone = data.draw(st.sets(st.sampled_from(active),
                                             min_size=1))
                    for flow in gone:
                        flow.departed = True
                    active[:] = [f for f in active if not f.departed]
                elif op == "reroute":
                    flow = data.draw(st.sampled_from(active))
                    flow.path = tuple(data.draw(paths))
                    flow.max_rate = data.draw(_RATES)
                    model.invalidate_keys()
                else:
                    capacities[data.draw(edges)] = data.draw(
                        _RATES | st.just(0.0))
            self._check(model, active, capacities)

    def test_capped_flows_subtract_in_set_order(self):
        # the set-order case of TestWaterFillingParity, reached through
        # the kept membership: fids 2 and 1 cap in the same round on
        # edge 0, and list order would leave fid 3 0.6000000000000001
        model = RcpModel()
        model.begin_run()
        active = [_dense_flow(2, [0], 0.1)]
        self._check(model, active, [1.0])
        active += [_dense_flow(1, [0], 0.3), _dense_flow(3, [0], 10.0)]
        assert model.allocate(active, [1.0], 0.0) == {2: 0.1, 1: 0.3, 3: 0.6}
        self._check(model, active, [1.0])

    def test_reroute_and_repeated_hops(self):
        model = RcpModel()
        model.begin_run()
        capacities = [1.0, 2.0, 10.0]
        a = _dense_flow(5, [0, 1, 0], 10.0)
        b = _dense_flow(7, [0, 2], 0.3)
        c = _dense_flow(4, [2], 10.0)
        active = [a, b, c]
        self._check(model, active, capacities)
        # a leaves edge 0, so c shares edge 2 with b and a
        a.path = (2, 1, 2)
        model.invalidate_keys()
        self._check(model, active, capacities)
        b.departed = True
        active[:] = [a, c]
        self._check(model, active, capacities)
