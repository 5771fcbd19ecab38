"""Experiment FR — resilience cost over a misbehaving substrate.

Neither machine model prices failure: every admissible LogP execution
delivers every message exactly once, and the BSP exchange is an oracle.
The ``FR`` builder measures what resilience *costs* once the substrate
misbehaves (seeded :class:`~repro.faults.plan.FaultPlan`), as slowdown
versus the fault-free run:

* LogP kernels under the ack/retransmit transport
  (:func:`repro.faults.protocol.reliable`) over a ``FaultyMedium`` that
  drops / duplicates / delays / reorders — makespan inflation and
  retransmission counts;
* BSP kernels under superstep checkpoint-and-retry — cost-ledger
  inflation and recovery-round counts;
* store-and-forward routing over lossy links with link-level
  retransmission — h-relation routing-time inflation.

This bench asserts every faulty run's results equal the clean run's.
"""

from __future__ import annotations

from repro.bsp import BSPMachine
from repro.faults import FaultPlan, reliable
from repro.logp.machine import LogPMachine
from repro.models.params import BSPParams, LogPParams
from repro.networks.hypercube import Hypercube
from repro.networks.routing_sim import RoutingConfig, route_h_relation
from repro.programs import bsp_prefix_program, logp_sum_program

EXPERIMENT = "FR"
SEED = 1996


def test_logp_ack_retransmit_slowdown(paper_tables, benchmark):
    plan = FaultPlan(seed=SEED, drop_rate=0.1, dup_rate=0.05, delay_rate=0.1,
                     max_extra_delay=8, reorder_rate=0.1)
    benchmark.pedantic(
        lambda: LogPMachine(
            LogPParams(p=8, L=8, o=1, G=2), faults=plan, check_invariants=True
        ).run(reliable(logp_sum_program())),
        rounds=1,
        iterations=1,
    )
    for rec in paper_tables["fault_resilience_logp"].records:
        assert rec["results_match"], f"{rec['kernel']} corrupted at rate {rec['rate']}"


def test_bsp_checkpoint_retry_slowdown(paper_tables, benchmark):
    benchmark.pedantic(
        lambda: BSPMachine(
            BSPParams(p=8, g=2, l=10), faults=FaultPlan(seed=SEED, drop_rate=0.1)
        ).run(bsp_prefix_program()),
        rounds=1,
        iterations=1,
    )
    for rec in paper_tables["fault_resilience_bsp"].records:
        assert rec["results_match"], f"{rec['kernel']} corrupted at rate {rec['rate']}"


def test_routing_link_faults_slowdown(paper_tables, benchmark):
    benchmark.pedantic(
        lambda: route_h_relation(
            Hypercube(64), 4, seed=2,
            config=RoutingConfig(link_fault_rate=0.1, seed=SEED),
        ),
        rounds=1,
        iterations=1,
    )
    for rec in paper_tables["fault_resilience_routing"].records:
        assert rec["packets_match"], rec
