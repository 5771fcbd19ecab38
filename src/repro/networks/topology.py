"""Topology base class.

A topology is an undirected graph plus (a) a designated subset of *host*
nodes that carry processors and (b) a deterministic oblivious route
between any pair of nodes.  Everything the packet simulator and the
Table 1 experiment need is expressed against this interface.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from repro.errors import TopologyError

__all__ = ["Topology"]


class Topology:
    """Base class; subclasses populate adjacency and implement routing.

    Attributes
    ----------
    name:
        Human-readable identifier (matches the Table 1 row names).
    adj:
        ``adj[u]`` lists the neighbors of node ``u`` (undirected graph;
        every listed pair is usable in both directions by the router).
    hosts:
        Node indices carrying processors, in processor-rank order.
    """

    name: str = "abstract"

    def __init__(self, num_nodes: int, hosts: Sequence[int] | None = None) -> None:
        if num_nodes < 1:
            raise TopologyError(f"need at least one node, got {num_nodes}")
        self.num_nodes = num_nodes
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]
        self._edge_set: set[tuple[int, int]] = set()
        self.hosts: list[int] = list(hosts) if hosts is not None else list(range(num_nodes))
        self._diameter: int | None = None

    # -- construction helpers ------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add the undirected edge ``{u, v}`` (idempotent; no self-loops)."""
        if u == v:
            return
        key = (min(u, v), max(u, v))
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.adj[u].append(v)
        self.adj[v].append(u)
        self._diameter = None

    # -- interface -----------------------------------------------------------

    @property
    def p(self) -> int:
        """Number of processors (hosts)."""
        return len(self.hosts)

    @property
    def num_edges(self) -> int:
        return len(self._edge_set)

    def route(self, u: int, v: int) -> list[int]:
        """Deterministic oblivious path from node ``u`` to node ``v``
        (inclusive of both endpoints).  Subclasses override."""
        raise NotImplementedError

    # -- generic graph utilities ----------------------------------------------

    def check_route(self, path: list[int], u: int, v: int) -> None:
        """Raise :class:`~repro.errors.TopologyError` unless ``path`` is a
        valid walk from ``u`` to ``v`` along existing edges."""
        if not path or path[0] != u or path[-1] != v:
            raise TopologyError(f"route {u}->{v} has bad endpoints: {path[:4]}...")
        for a, b in zip(path, path[1:]):
            key = (min(a, b), max(a, b))
            if key not in self._edge_set:
                raise TopologyError(f"route {u}->{v} uses non-edge ({a}, {b})")

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from ``source`` (-1 for unreachable)."""
        dist = [-1] * self.num_nodes
        dist[source] = 0
        q = deque([source])
        while q:
            u = q.popleft()
            for w in self.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def diameter(self, sample: Iterable[int] | None = None) -> int:
        """Exact diameter when ``sample`` is None (BFS from every node,
        memoized on the instance until an edge is added); otherwise the
        max eccentricity over the sampled sources."""
        if sample is None and self._diameter is not None:
            return self._diameter
        sources = list(sample) if sample is not None else range(self.num_nodes)
        best = 0
        for s in sources:
            dist = self.bfs_distances(s)
            if min(dist) < 0:
                raise TopologyError(f"{self.name}: graph is disconnected")
            best = max(best, max(dist))
        if sample is None:
            self._diameter = best
        return best

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, p={self.p}, "
            f"edges={self.num_edges})"
        )
