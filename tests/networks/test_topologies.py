"""Structural and routing correctness of the Table 1 topologies."""

import random

import pytest

from repro.errors import TopologyError
from repro.networks import (
    ArrayND,
    Butterfly,
    CubeConnectedCycles,
    Hypercube,
    MeshOfTrees,
    ShuffleExchange,
)
from repro.networks.params import TOPOLOGY_BUILDERS


def all_pairs_routes_valid(topo, trials=200, seed=0):
    rng = random.Random(seed)
    hosts = topo.hosts
    for _ in range(trials):
        u, v = rng.choice(hosts), rng.choice(hosts)
        path = topo.route(u, v)
        topo.check_route(path, u, v)
        yield path


class TestArrayND:
    def test_node_and_edge_counts(self):
        t = ArrayND((4, 4))
        assert t.num_nodes == 16
        assert t.num_edges == 2 * 4 * 3  # 2 dims x 4 lines x 3 edges

    def test_diameter_mesh(self):
        assert ArrayND((4, 4)).diameter() == 6  # (4-1)+(4-1)
        assert ArrayND((3, 3, 3)).diameter() == 6

    def test_torus_diameter_halved(self):
        assert ArrayND((6, 6), torus=True).diameter() == 6  # 3+3

    def test_routes_valid_and_shortest_on_mesh(self):
        t = ArrayND((5, 3))
        for path in all_pairs_routes_valid(t):
            u, v = path[0], path[-1]
            ux, uy = u % 5, u // 5
            vx, vy = v % 5, v // 5
            assert len(path) - 1 == abs(ux - vx) + abs(uy - vy)

    def test_torus_routes_valid(self):
        t = ArrayND((5, 4), torus=True)
        list(all_pairs_routes_valid(t))

    def test_invalid_sides(self):
        with pytest.raises(TopologyError):
            ArrayND(())
        with pytest.raises(TopologyError):
            ArrayND((0, 3))


class TestHypercube:
    def test_structure(self):
        t = Hypercube(16)
        assert t.num_edges == 16 * 4 // 2
        assert t.diameter() == 4
        assert all(len(t.adj[u]) == 4 for u in range(16))

    def test_routes_are_shortest(self):
        t = Hypercube(32)
        for path in all_pairs_routes_valid(t):
            u, v = path[0], path[-1]
            assert len(path) - 1 == bin(u ^ v).count("1")

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TopologyError):
            Hypercube(12)


class TestButterfly:
    def test_structure(self):
        t = Butterfly(8)  # k=3: 4 levels x 8 rows
        assert t.num_nodes == 32
        assert t.num_edges == 3 * 8 * 2  # per level: straight + cross
        assert t.p == 32  # Table 1: processors at every node

    def test_routes_valid(self):
        t = Butterfly(16)
        for path in all_pairs_routes_valid(t):
            assert len(path) - 1 <= 3 * t.k  # up + correcting down + up

    def test_diameter_logarithmic(self):
        assert Butterfly(8).diameter() <= 9  # ~2k + k


class TestCCC:
    def test_structure_constant_degree(self):
        t = CubeConnectedCycles(8)  # k=3: 24 nodes
        assert t.num_nodes == 24
        assert all(len(t.adj[u]) == 3 for u in range(24))

    def test_routes_valid(self):
        t = CubeConnectedCycles(16)
        list(all_pairs_routes_valid(t))

    def test_diameter_logarithmic(self):
        t = CubeConnectedCycles(16)
        assert t.diameter() <= 4 * t.k


class TestShuffleExchange:
    def test_structure(self):
        t = ShuffleExchange(16)
        assert t.num_nodes == 16
        assert all(len(t.adj[u]) <= 3 for u in range(16))

    def test_routes_valid_bounded(self):
        t = ShuffleExchange(32)
        for path in all_pairs_routes_valid(t):
            assert len(path) - 1 <= 2 * t.k

    def test_route_endpoint_exactness(self):
        t = ShuffleExchange(64)
        for u in range(0, 64, 7):
            for v in range(0, 64, 11):
                assert t.route(u, v)[-1] == v


class TestMeshOfTrees:
    def test_structure(self):
        t = MeshOfTrees(4)
        # 16 leaves + 2 * 4 trees * 3 internal nodes
        assert t.num_nodes == 16 + 24
        assert t.p == 16  # only leaves are processors

    def test_routes_valid_and_logarithmic(self):
        t = MeshOfTrees(8)
        for path in all_pairs_routes_valid(t):
            assert len(path) - 1 <= 4 * t.k + 2

    def test_routers_not_hosts(self):
        t = MeshOfTrees(4)
        assert max(t.hosts) < 16

    def test_rejects_bad_n(self):
        with pytest.raises(TopologyError):
            MeshOfTrees(3)


class TestDiameterUtility:
    def test_disconnected_detected(self):
        from repro.networks.topology import Topology

        t = Topology(4)
        t.add_edge(0, 1)
        with pytest.raises(TopologyError, match="disconnected"):
            t.diameter()

    def test_self_loop_ignored(self):
        from repro.networks.topology import Topology

        t = Topology(2)
        t.add_edge(0, 0)
        t.add_edge(0, 1)
        assert t.num_edges == 1

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_BUILDERS))
    def test_memoized_diameter_is_exact(self, name, monkeypatch):
        """The exact diameter is computed once per instance and equals a
        fresh all-sources BFS."""
        topo, _config = TOPOLOGY_BUILDERS[name](64)
        memo = topo.diameter()
        fresh = max(max(topo.bfs_distances(s)) for s in range(topo.num_nodes))
        assert memo == fresh
        monkeypatch.setattr(topo, "bfs_distances", lambda s: pytest.fail("recomputed"))
        assert topo.diameter() == memo

    def test_add_edge_drops_the_memo(self):
        from repro.networks.topology import Topology

        t = Topology(4)
        for u in range(3):
            t.add_edge(u, u + 1)
        assert t.diameter() == 3  # a path
        t.add_edge(3, 0)
        assert t.diameter() == 2  # a ring
