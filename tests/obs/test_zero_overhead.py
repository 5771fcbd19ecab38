"""Observation never changes execution.

Two guarantees, checked on every layer:

* **Bit-identical observables** — simulated clocks, message orders, cost
  ledgers, and kernel event counts are the same with ``obs=None``, with
  a disabled observation, and with full tracing on.  (The golden-trace
  suite pins the same property against committed files; here we pin the
  three instrumentation modes against *each other* on fresh runs.)
* **Disabled is normalized away** — ``Observation(enabled=False)``
  becomes ``None`` at every constructor boundary, so the disabled path
  *is* the uninstrumented path (the ``--obs-check`` perf gate's
  correctness anchor).
"""

from repro.bsp.machine import BSPMachine
from repro.core.bsp_on_logp import simulate_bsp_on_logp
from repro.core.logp_on_bsp import simulate_logp_on_bsp
from repro.logp.machine import LogPMachine
from repro.models.params import BSPParams, LogPParams
from repro.networks import Hypercube
from repro.networks.backed import NetworkDelivery, run_on_network
from repro.networks.routing_sim import RoutingConfig, route_h_relation
from repro.obs import Observation
from repro.programs import bsp_prefix_program, logp_sum_program

PARAMS = LogPParams(p=8, L=8, o=1, G=2)

MODES = (
    lambda: None,
    lambda: Observation(enabled=False),
    lambda: Observation(),
    lambda: Observation(trace=True),
)


def kernel_tuple(counters) -> tuple:
    return (
        counters.kernel,
        counters.events,
        counters.batches,
        counters.ticks_skipped,
        counters.queue_highwater,
    )


class TestEventParity:
    def test_logp_machine(self):
        runs = [
            LogPMachine(PARAMS, obs=mk()).run(logp_sum_program()) for mk in MODES
        ]
        ref = runs[0]
        for other in runs[1:]:
            assert other.makespan == ref.makespan
            assert other.results == ref.results
            assert kernel_tuple(other.kernel) == kernel_tuple(ref.kernel)

    def test_bsp_machine(self):
        params = BSPParams(p=8, g=2, l=16)
        runs = [
            BSPMachine(params, obs=mk()).run(bsp_prefix_program()) for mk in MODES
        ]
        ref = runs[0]
        for other in runs[1:]:
            assert other.total_cost == ref.total_cost
            assert other.results == ref.results
            assert [
                (r.index, r.w, r.h, r.cost) for r in other.ledger
            ] == [(r.index, r.w, r.h, r.cost) for r in ref.ledger]
            assert kernel_tuple(other.kernel) == kernel_tuple(ref.kernel)

    def test_bsp_on_logp(self):
        runs = [
            simulate_bsp_on_logp(PARAMS, bsp_prefix_program(), obs=mk())
            for mk in MODES
        ]
        ref = runs[0]
        for other in runs[1:]:
            assert other.total_logp_time == ref.total_logp_time
            assert other.results == ref.results
            assert kernel_tuple(other.logp.kernel) == kernel_tuple(ref.logp.kernel)

    def test_logp_on_bsp(self):
        runs = [
            simulate_logp_on_bsp(PARAMS, logp_sum_program(), obs=mk())
            for mk in MODES
        ]
        ref = runs[0]
        for other in runs[1:]:
            assert other.virtual_time == ref.virtual_time
            assert other.results == ref.results
            assert kernel_tuple(other.bsp.kernel) == kernel_tuple(ref.bsp.kernel)

    def test_packet_router(self):
        outs = [
            route_h_relation(
                Hypercube(16), 4, seed=5, config=RoutingConfig(), obs=mk()
            )
            for mk in MODES
        ]
        ref = outs[0]
        for other in outs[1:]:
            assert other.time == ref.time
            assert other.total_hops == ref.total_hops
            assert kernel_tuple(other.kernel) == kernel_tuple(ref.kernel)

    def test_network_backed_run(self):
        runs = [
            run_on_network(Hypercube(8), bsp_prefix_program(), obs=mk())
            for mk in MODES
        ]
        ref = runs[0]
        for other in runs[1:]:
            assert other.network_cost == ref.network_cost
            assert [
                (s.index, s.w, s.h, s.route_time) for s in other.supersteps
            ] == [(s.index, s.w, s.h, s.route_time) for s in ref.supersteps]

    def test_network_delivery_scheduler(self):
        def run(obs):
            delivery = NetworkDelivery(Hypercube(8), obs=obs)
            res = LogPMachine(PARAMS, delivery=delivery).run(logp_sum_program())
            return res, delivery

        ref, _ = run(None)
        for mk in MODES[1:]:
            other, delivery = run(mk())
            assert other.makespan == ref.makespan
            assert other.results == ref.results
            assert delivery.delays  # the scheduler actually ran


class TestDisabledIsNormalizedAway:
    def test_engine(self):
        """The machine that owns the drive loop keeps an enabled
        observation and publishes its kernel counters there."""
        disabled = Observation(enabled=False)
        assert LogPMachine(PARAMS, obs=disabled).obs is None
        enabled = Observation()
        machine = LogPMachine(PARAMS, obs=enabled)
        assert machine.obs is enabled
        res = machine.run(logp_sum_program())
        assert enabled._published_kernels == [res.kernel]

    def test_machines(self):
        disabled = Observation(enabled=False)
        assert LogPMachine(PARAMS, obs=disabled).obs is None
        assert BSPMachine(BSPParams(p=2, g=1, l=1), obs=disabled).obs is None

    def test_network_delivery(self):
        assert NetworkDelivery(Hypercube(8), obs=Observation(enabled=False))._obs is None

    def test_disabled_publishes_nothing(self):
        obs = Observation(enabled=False)
        simulate_bsp_on_logp(PARAMS, bsp_prefix_program(), obs=obs)
        assert len(obs.metrics) == 0
        assert len(obs.tracer.spans) == 0

    def test_machine_trace_contract_unchanged(self):
        """Tracing must not leak the machine's internal trace into the
        result when the caller didn't ask for it."""
        res = LogPMachine(PARAMS, obs=Observation(trace=True)).run(logp_sum_program())
        assert res.trace is None
        res2 = LogPMachine(
            PARAMS, record_trace=True, obs=Observation(trace=True)
        ).run(logp_sum_program())
        assert res2.trace is not None
