"""Tests for ECMP routing, path pinning, and packet/flow-level agreement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stack import PdqStack
from repro.errors import RoutingError
from repro.flowsim.paths import GraphRouter
from repro.net.network import Network
from repro.net.routing import ecmp_hash
from repro.topology import BCube, FatTree, SingleRootedTree
from repro.topology.random_graph import RandomGraph

#: topologies the routing-agreement property test draws from
AGREEMENT_TOPOLOGIES = {
    "fattree4": lambda: FatTree(4),
    "bcube22": lambda: BCube(2, 2),
    "single_rooted": lambda: SingleRootedTree(),
    "random8": lambda: RandomGraph(8, mean_degree=2.5, seed=7),
}


@pytest.fixture(scope="module")
def fattree_net():
    return Network(FatTree(4), PdqStack())


class TestEcmpHash:
    def test_deterministic(self):
        assert ecmp_hash(42, 7) == ecmp_hash(42, 7)

    def test_varies_with_flow(self):
        values = {ecmp_hash(fid, 3) % 4 for fid in range(64)}
        assert len(values) > 1

    def test_nonnegative(self):
        for fid in range(100):
            assert ecmp_hash(fid, fid * 3) >= 0


class TestRouter:
    def test_path_connects_endpoints(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        path = net.router.flow_path(1, src.id, dst.id)
        assert path[0].src is src
        assert path[-1].dst is dst
        for a, b in zip(path, path[1:], strict=False):
            assert a.dst is b.src

    def test_path_is_shortest(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        # inter-pod in a fat-tree: host-edge-agg-core-agg-edge-host = 6 links
        assert len(net.router.flow_path(1, src.id, dst.id)) == 6

    def test_path_pinned_per_flow(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        assert net.router.flow_path(5, src.id, dst.id) is net.router.flow_path(
            5, src.id, dst.id
        )

    def test_different_flows_spread_over_paths(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        cores = set()
        for fid in range(64):
            path = net.router.flow_path(fid, src.id, dst.id)
            cores.add(path[2].dst.name)  # the core switch
        assert len(cores) > 1  # ECMP actually uses the path diversity

    def test_reverse_path_is_exact_mirror(self, fattree_net):
        net = fattree_net
        src, dst = net.node("h0"), net.node("h15")
        fwd = net.router.flow_path(9, src.id, dst.id)
        rev = net.router.reverse_path(fwd)
        assert [lk.reverse for lk in rev] == list(reversed(fwd))

    def test_no_route_to_self(self, fattree_net):
        net = fattree_net
        h0 = net.node("h0")
        with pytest.raises(RoutingError):
            net.router.flow_path(1, h0.id, h0.id)

    def test_bcube_paths_may_relay_through_hosts(self):
        net = Network(BCube(2, 3), PdqStack())
        src, dst = net.node("h0"), net.node("h3")
        # h0 (0000) to h3 (0011) differ in two digits: 4-link path via a
        # relay server
        path = net.router.flow_path(1, src.id, dst.id)
        assert len(path) == 4
        relay_names = {link.dst.name for link in path[:-1]}
        assert any(name.startswith("h") for name in relay_names)


class TestGraphRouterAgreement:
    """The flow-level GraphRouter must pick the same paths as the
    packet-level Router (Fig 8's cross-validation relies on it)."""

    @pytest.mark.parametrize("topo_factory", [
        lambda: FatTree(4),
        lambda: SingleRootedTree(),
        lambda: BCube(2, 2),
    ])
    def test_same_paths_both_levels(self, topo_factory):
        topo = topo_factory()
        net = Network(topo, PdqStack())
        graph_router = GraphRouter(topo)
        hosts = topo.hosts
        for fid, (src, dst) in enumerate(
            [(hosts[0], hosts[-1]), (hosts[1], hosts[2]),
             (hosts[0], hosts[len(hosts) // 2])]
        ):
            if src == dst:
                continue
            pkt_path = net.router.flow_path(
                fid, net.node(src).id, net.node(dst).id
            )
            pkt_names = [(lk.src.name, lk.dst.name) for lk in pkt_path]
            flow_path = graph_router.flow_path(fid, src, dst)
            assert pkt_names == list(flow_path)

    @settings(max_examples=80, deadline=None)
    @given(
        topo_name=st.sampled_from(sorted(AGREEMENT_TOPOLOGIES)),
        queries=st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 63),
                      st.integers(0, 63)),
            min_size=1, max_size=12,
        ),
        cut=st.lists(st.integers(0, 255), min_size=1, max_size=4),
    )
    def test_same_paths_and_errors_with_and_without_faults(
            self, topo_name, queries, cut):
        topo = AGREEMENT_TOPOLOGIES[topo_name]()
        net = Network(topo, PdqStack())
        router = GraphRouter(topo)
        hosts = topo.hosts
        cases = [(fid, hosts[a % len(hosts)], hosts[b % len(hosts)])
                 for fid, a, b in queries]
        cables = sorted(topo.graph.edges())
        down = {cables[i % len(cables)] for i in cut}

        def outcomes():
            rows = []
            for fid, src, dst in cases:
                try:
                    links = net.router.flow_path(
                        fid, net.node(src).id, net.node(dst).id
                    )
                    packet = [(lk.src.name, lk.dst.name) for lk in links]
                except RoutingError as exc:
                    packet = ("error", str(exc).split(" ")[:2])
                try:
                    fluid = list(router.flow_path(fid, src, dst))
                    ids = router.flow_path_ids(fid, src, dst)
                    assert list(ids) == [router.edge_index[e] for e in fluid]
                except RoutingError as exc:
                    fluid = ("error", str(exc).split(" ")[:2])
                    with pytest.raises(RoutingError):
                        router.flow_path_ids(fid, src, dst)
                assert packet == fluid, (fid, src, dst)
                rows.append(fluid)
            return rows

        def fail(cables_down):
            down_ids = set()
            for a, b in cables_down:
                for x, y in ((a, b), (b, a)):
                    net.link_between(x, y).up = False
                    down_ids.add(router.edge_index[(x, y)])
            net.router.invalidate_routes()
            router.set_down_edges(down_ids)

        healthy = outcomes()
        fail(down)
        outcomes()
        # restoring every cable must forget the faulted next hops
        for link in net.links:
            link.up = True
        net.router.invalidate_routes()
        router.set_down_edges(())
        assert outcomes() == healthy

    def test_capacities_cover_all_directed_edges(self):
        topo = SingleRootedTree()
        caps = GraphRouter(topo).capacities()
        assert len(caps) == 2 * topo.graph.number_of_edges()
        assert all(v > 0 for v in caps.values())


class TestEdgeIndex:
    """The dense directed-edge index contract (see
    Topology.directed_edge_index)."""

    def test_ids_are_dense_and_paired(self):
        topo = FatTree(4)
        index = topo.directed_edge_index()
        n = 2 * topo.graph.number_of_edges()
        assert sorted(index.values()) == list(range(n))
        for (a, b), eid in index.items():
            reverse = index[(b, a)]
            # forward/reverse ids differ only in the low bit
            assert reverse // 2 == eid // 2
            assert reverse != eid

    def test_index_is_cached_and_invalidated_on_add_link(self):
        topo = SingleRootedTree()
        first = topo.directed_edge_index()
        assert topo.directed_edge_index() is first
        topo.add_switch("extra_sw")
        topo.add_link("h0", "extra_sw")
        second = topo.directed_edge_index()
        assert second is not first
        assert len(second) == len(first) + 2

    def test_flow_path_ids_match_named_paths(self):
        topo = FatTree(4)
        router = GraphRouter(topo)
        index = router.edge_index
        hosts = topo.hosts
        for fid in range(6):
            named = router.flow_path(fid, hosts[0], hosts[-1])
            ids = router.flow_path_ids(fid, hosts[0], hosts[-1])
            assert ids == tuple(index[edge] for edge in named)

    def test_capacity_vector_matches_capacity_dict(self):
        topo = FatTree(4)
        router = GraphRouter(topo)
        vector = router.capacity_vector()
        caps = router.capacities()
        assert len(vector) == len(caps)
        for edge, eid in router.edge_index.items():
            assert vector[eid] == caps[edge]
