"""Network-backed BSP pricing (the executable side of §5)."""

from repro.bsp.machine import BSPMachine
from repro.models.params import BSPParams
from repro.networks import ArrayND, Hypercube
from repro.networks.backed import run_on_network
from repro.programs import bsp_prefix_program, bsp_radix_sort_program


class TestSemanticsPreserved:
    def test_results_equal_abstract_machine(self):
        topo = Hypercube(16)
        backed = run_on_network(topo, bsp_prefix_program())
        abstract = BSPMachine(BSPParams(p=16, g=3, l=7)).run(bsp_prefix_program())
        assert backed.results == abstract.results

    def test_radix_sort_on_mesh(self):
        topo = ArrayND((4, 4))
        backed = run_on_network(
            topo, bsp_radix_sort_program(keys_per_proc=4, key_bits=8, seed=3)
        )
        flat = [k for block in backed.results for k in block]
        assert flat == sorted(flat)


class TestPricing:
    def test_superstep_structure(self):
        topo = Hypercube(16)
        backed = run_on_network(topo, bsp_prefix_program())
        assert len(backed.supersteps) == backed.bsp.num_supersteps
        for s in backed.supersteps:
            assert s.barrier_time == 2 * topo.diameter()
            assert s.cost == s.w + s.route_time + s.barrier_time
            if s.h:
                assert s.route_time > 0

    def test_empty_supersteps_cost_only_barrier(self):
        from repro.bsp.program import Compute, Sync

        def prog(ctx):
            yield Compute(5)
            yield Sync()

        topo = Hypercube(8)
        backed = run_on_network(topo, prog)
        [s] = backed.supersteps
        assert s.route_time == 0
        assert s.cost == 5 + 2 * topo.diameter()

    def test_abstract_cost_uses_given_params(self):
        topo = Hypercube(16)
        backed = run_on_network(topo, bsp_prefix_program())
        c1 = backed.abstract_cost(BSPParams(p=16, g=1, l=1))
        c2 = backed.abstract_cost(BSPParams(p=16, g=10, l=10))
        assert c2 > c1

    def test_star_parameters_predict_network_cost(self):
        """The §5 punchline: the fitted (g*, l*) price the run within a
        small constant of the measured network cost."""
        from repro.core.network_support import derive_model_support
        from repro.networks.params import make_topology

        topo, config = make_topology("hypercube (single-port)", 16)
        support = derive_model_support(
            topo, table_name="hypercube (single-port)", config=config
        )
        backed = run_on_network(
            topo, bsp_radix_sort_program(keys_per_proc=4, key_bits=8, seed=5),
            config=config,
        )
        predicted = backed.abstract_cost(
            BSPParams(p=topo.p, g=support.g_star, l=support.l_star)
        )
        ratio = backed.network_cost / predicted
        assert 0.2 <= ratio <= 5.0


class TestSharedTopology:
    """``build_stack`` shares one topology per ``(topology, p)``; each
    run keeps its route memo to itself."""

    @staticmethod
    def _stack(seed):
        from repro.engine.request import RunRequest, build_stack

        req = RunRequest(chain="bsp-on-network", workload="radix-sort", p=16, seed=seed)
        stack = build_stack(req)
        (layer,) = stack.layers
        return layer.spec, stack

    @staticmethod
    def _state(topo):
        """The instance's state, less the memoized diameter."""
        return {name: repr(v) for name, v in vars(topo).items() if name != "_diameter"}

    def test_requests_share_one_instance(self):
        from repro.perf import clear_plan_caches, plan_cache_stats

        clear_plan_caches()
        topo, first = self._stack(seed=1)
        built = self._state(topo)
        first.run()
        again, second = self._stack(seed=2)
        warm = second.run()
        assert again is topo
        assert plan_cache_stats()["topology"]["hits"] == 1
        assert topo.diameter() == warm.supersteps[0].barrier_time // 2
        # No per-pair memo accumulated on the shared instance.
        assert self._state(topo) == built

        clear_plan_caches()
        fresh, third = self._stack(seed=2)
        cold = third.run()
        assert fresh is not topo
        assert plan_cache_stats()["topology"]["misses"] == 1
        assert cold.as_row() == warm.as_row()
        assert cold.supersteps == warm.supersteps
        assert cold.results == warm.results
