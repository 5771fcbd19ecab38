"""Experiment FR — resilience cost over a misbehaving substrate.

Neither machine model prices failure: every admissible LogP execution
delivers every message exactly once, and the BSP exchange is an oracle.
This bench measures what resilience *costs* once the substrate misbehaves
(seeded :class:`~repro.faults.plan.FaultPlan`), as slowdown versus the
fault-free run:

* LogP kernels under the ack/retransmit transport
  (:func:`repro.faults.protocol.reliable`) over a ``FaultyMedium`` that
  drops / duplicates / delays / reorders — makespan inflation and
  retransmission counts, with results asserted equal to the clean run;
* BSP kernels under superstep checkpoint-and-retry — cost-ledger
  inflation and recovery-round counts, results bit-identical;
* store-and-forward routing over lossy links with link-level
  retransmission — h-relation routing-time inflation.
"""

from __future__ import annotations

from repro.bsp import BSPMachine
from repro.faults import FaultPlan, reliable
from repro.logp.machine import LogPMachine
from repro.models.params import BSPParams, LogPParams
from repro.networks.hypercube import Hypercube
from repro.networks.routing_sim import RoutingConfig, route_h_relation
from repro.programs import (
    bsp_prefix_program,
    bsp_sample_sort_program,
    logp_alltoall_program,
    logp_ring_program,
    logp_sum_program,
)
from repro.util.tables import render_table

LOGP_PARAMS = LogPParams(p=8, L=8, o=1, G=2)
BSP_PARAMS = BSPParams(p=8, g=2, l=10)
RATES = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3)
SEED = 1996


def _logp_kernels():
    return {
        "ring": logp_ring_program(),
        "sum": logp_sum_program(),
        "alltoall": logp_alltoall_program(),
    }


def _run_reliable(prog, rate: float):
    plan = FaultPlan(
        seed=SEED,
        drop_rate=rate,
        dup_rate=rate / 2,
        delay_rate=rate,
        max_extra_delay=LOGP_PARAMS.L,
        reorder_rate=rate,
    )
    machine = LogPMachine(LOGP_PARAMS, faults=plan, check_invariants=True)
    return machine.run(reliable(prog))


def test_logp_ack_retransmit_slowdown(publish, benchmark):
    kernels = _logp_kernels()
    clean = {
        name: LogPMachine(LOGP_PARAMS).run(prog) for name, prog in kernels.items()
    }
    benchmark.pedantic(
        lambda: _run_reliable(kernels["sum"], 0.1), rounds=1, iterations=1
    )
    rows = []
    for rate in RATES:
        for name, prog in kernels.items():
            plan = FaultPlan(
                seed=SEED,
                drop_rate=rate,
                dup_rate=rate / 2,
                delay_rate=rate,
                max_extra_delay=LOGP_PARAMS.L,
                reorder_rate=rate,
            )
            res = LogPMachine(
                LOGP_PARAMS, faults=plan, check_invariants=True
            ).run(reliable(prog))
            assert res.results == clean[name].results, (
                f"{name} corrupted at rate {rate}"
            )
            slow = res.makespan / clean[name].makespan
            rows.append(
                (rate, name, clean[name].makespan, res.makespan, f"{slow:.2f}",
                 res.total_messages)
            )
    publish(
        "fault_resilience_logp",
        render_table(
            ["fault rate", "kernel", "clean makespan", "faulty makespan",
             "slowdown", "messages (incl. acks/retx)"],
            rows,
            title=(
                f"Ack/retransmit LogP transport over a lossy medium "
                f"(p={LOGP_PARAMS.p}, L={LOGP_PARAMS.L}, o=1, G=2; "
                f"drop=delay=reorder=rate, dup=rate/2, seed={SEED})"
            ),
        ),
    )


def test_bsp_checkpoint_retry_slowdown(publish, benchmark):
    kernels = {
        "prefix": bsp_prefix_program(),
        "sample-sort": bsp_sample_sort_program(keys_per_proc=16, seed=9),
    }
    clean = {name: BSPMachine(BSP_PARAMS).run(prog) for name, prog in kernels.items()}
    benchmark.pedantic(
        lambda: BSPMachine(
            BSP_PARAMS, faults=FaultPlan(seed=SEED, drop_rate=0.1)
        ).run(kernels["prefix"]),
        rounds=1,
        iterations=1,
    )
    rows = []
    for rate in RATES:
        for name, prog in kernels.items():
            plan = FaultPlan(seed=SEED, drop_rate=rate)
            res = BSPMachine(BSP_PARAMS, faults=plan).run(prog)
            assert res.results == clean[name].results, (
                f"{name} corrupted at rate {rate}"
            )
            slow = res.total_cost / clean[name].total_cost
            rows.append(
                (rate, name, clean[name].total_cost, res.total_cost,
                 f"{slow:.2f}", res.total_retries)
            )
    publish(
        "fault_resilience_bsp",
        render_table(
            ["drop rate", "kernel", "clean cost", "faulty cost", "slowdown",
             "retry rounds"],
            rows,
            title=(
                f"BSP checkpoint-and-retry over a lossy exchange "
                f"(p={BSP_PARAMS.p}, g={BSP_PARAMS.g}, l={BSP_PARAMS.l}, "
                f"seed={SEED})"
            ),
        ),
    )


def test_routing_link_faults_slowdown(publish, benchmark):
    topo = Hypercube(64)
    h = 4
    clean = route_h_relation(topo, h, seed=2)
    benchmark.pedantic(
        lambda: route_h_relation(
            topo, h, seed=2,
            config=RoutingConfig(link_fault_rate=0.1, seed=SEED),
        ),
        rounds=1,
        iterations=1,
    )
    rows = []
    for rate in RATES:
        out = route_h_relation(
            topo, h, seed=2,
            config=RoutingConfig(link_fault_rate=rate, seed=SEED),
        )
        assert out.packets == clean.packets
        rows.append(
            (rate, clean.time, out.time, f"{out.time / clean.time:.2f}",
             out.retransmissions)
        )
    publish(
        "fault_resilience_routing",
        render_table(
            ["link fault rate", "clean steps", "faulty steps", "slowdown",
             "retransmissions"],
            rows,
            title=(
                f"Lossy-link store-and-forward routing of a balanced "
                f"{h}-relation on the {topo.p}-node hypercube"
            ),
        ),
    )
