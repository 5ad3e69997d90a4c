"""Pinned ECMP paths over the bare topology graph.

Mirrors :mod:`repro.net.routing` exactly -- same node-id assignment (sorted
node names), same link ordering, same hash -- so a flow takes the *same*
path in the flow-level and packet-level simulators. Fig 8's
packet-vs-flow-level comparison depends on that correspondence.

Paths are not cached per flow: each flow asks for its path once, so a
fid-keyed cache only earns hits on re-launched fids. What repeats across
flows is the ECMP candidate set at a node toward a destination, so that
is what the router keeps, filled lazily as walks reach each node.
"""

from __future__ import annotations

from collections import deque

from repro.errors import RoutingError
from repro.net.routing import ecmp_hash
from repro.topology.base import Topology

#: a directed edge between named nodes
Edge = tuple[str, str]

#: one ECMP candidate: (directed edge id, neighbor it leads to)
Hop = tuple[int, str]


class GraphRouter:
    """ECMP path pinning on a topology graph (no Link objects needed).

    Keeps two per-destination caches, both cleared by
    :meth:`set_down_edges`: BFS hop distances, and the next-hop table
    ``dst -> {node -> [(edge_id, neighbor), ...]}`` holding each node's
    shortest-path candidates in link-id order.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        graph = topology.graph
        self._node_id: dict[str, int] = {
            name: i for i, name in enumerate(sorted(graph.nodes()))
        }
        #: dense directed-edge ids (see Topology.directed_edge_index for the
        #: assignment contract); these double as the packet-level link ids
        self.edge_index: dict[Edge, int] = topology.directed_edge_index()
        # out-adjacency with deterministic link ids matching Network's
        self._out: dict[str, list[tuple[int, str]]] = {
            name: [] for name in graph.nodes()
        }
        for (a, b), eid in self.edge_index.items():
            self._out[a].append((eid, b))
        for neighbors in self._out.values():
            neighbors.sort()
        #: directed edge by dense id (inverse of edge_index)
        self._edges: list[Edge] = sorted(
            self.edge_index, key=self.edge_index.__getitem__
        )
        self._dist_cache: dict[str, dict[str, int]] = {}
        self._next_hops: dict[str, dict[str, list[Hop]]] = {}
        #: directed edge ids excluded from routing (fault injection);
        #: always populated in symmetric pairs — both directions of a
        #: failed cable — so the reversed-adjacency BFS stays correct
        self._down_edges: frozenset[int] = frozenset()

    # -- public ---------------------------------------------------------------

    def set_down_edges(self, edge_ids) -> None:
        """Replace the failed-edge set and invalidate every cache.

        Mirrors :meth:`repro.net.routing.Router.invalidate_routes` plus
        the packet links' ``up`` flags in one call: the fluid engine has
        no Link objects, so the router itself carries the down set.
        """
        down = frozenset(edge_ids)
        if down == self._down_edges:
            return
        self._down_edges = down
        self._dist_cache.clear()
        self._next_hops.clear()

    def flow_path(self, fid: int, src: str, dst: str) -> tuple[Edge, ...]:
        """Pinned path of flow ``fid`` as directed (node, node) edges."""
        edges = self._edges
        return tuple(edges[eid] for eid in self.flow_path_ids(fid, src, dst))

    def flow_path_ids(self, fid: int, src: str, dst: str) -> tuple[int, ...]:
        """Pinned path of flow ``fid`` as dense directed-edge ids.

        The optimized flow-level engine stores these on
        :class:`~repro.flowsim.progress.FlowProgress` so rate models index
        flat residual-capacity lists instead of hashing name tuples.
        """
        if src == dst:
            raise RoutingError("flow src equals dst")
        hops = self._next_hops.get(dst)
        if hops is None:
            hops = self._next_hops[dst] = {}
        node_id = self._node_id
        ids: list[int] = []
        node = src
        while node != dst:
            candidates = hops.get(node)
            if candidates is None:
                candidates = hops[node] = self._candidates(node, dst)
            if len(candidates) == 1:
                eid, node = candidates[0]
            else:
                eid, node = candidates[
                    ecmp_hash(fid, node_id[node]) % len(candidates)
                ]
            ids.append(eid)
        return tuple(ids)

    def capacities(self) -> dict[Edge, float]:
        """Directed capacity map for every link in the topology."""
        caps: dict[Edge, float] = {}
        for a, b, data in self.topology.graph.edges(data=True):
            caps[(a, b)] = data["rate_bps"]
            caps[(b, a)] = data["rate_bps"]
        return caps

    def capacity_vector(self) -> list[float]:
        """Flat capacity list indexed by dense directed-edge id."""
        edges = self.topology.graph.edges
        caps = [0.0] * len(self.edge_index)
        for (a, b), eid in self.edge_index.items():
            caps[eid] = edges[a, b]["rate_bps"]
        return caps

    # -- internals ----------------------------------------------------------------

    def _distances(self, dst: str) -> dict[str, int]:
        dist = self._dist_cache.get(dst)
        if dist is not None:
            return dist
        down = self._down_edges
        dist = {dst: 0}
        frontier = deque([dst])
        while frontier:
            node = frontier.popleft()
            for eid, neighbor in self._out[node]:
                if eid in down:
                    # down sets are symmetric, so skipping the forward
                    # id here equals skipping the reversed traversal
                    continue
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    frontier.append(neighbor)
        self._dist_cache[dst] = dist
        return dist

    def _candidates(self, node: str, dst: str) -> list[Hop]:
        """Shortest-path next hops from ``node`` toward ``dst``.

        A walk starts at the source and only moves to nodes one hop
        closer, so a node missing from the distance map is the source.
        """
        dist = self._distances(dst)
        here = dist.get(node)
        if here is None:
            raise RoutingError(f"no route {node} -> {dst}")
        down = self._down_edges
        candidates = [
            (lid, nb) for lid, nb in self._out[node]
            if lid not in down and dist.get(nb, here) == here - 1
        ]
        if not candidates:
            raise RoutingError(f"routing dead-end at {node} toward {dst}")
        return candidates
