"""Experiment AB — ablations.

1. **Routing strategy on networks**: direct oblivious routing vs
   Valiant's two-phase randomization, FIFO vs farthest-first queues, on
   an adversarial permutation (the classic bad case for deterministic
   oblivious routing) and on random h-relations.  The Table 1 results
   the paper cites rely on randomization for worst-case inputs; the
   ablation shows why.

2. **BSP cost conventions**: the paper charges ``g * max(h_in, h_out)``;
   model-variant studies (paper ref. [12]) also use the sum or the
   send-only degree.  The ablation shows the conventions differ by at
   most 2x on real programs and never change program results — model
   robustness.

3. **LogP's nondeterminism knobs** (§2.2 defines correctness as
   invariance under both): how much the *performance* — not the
   results, which are asserted invariant — of representative kernels
   depends on the delivery policy, how the pinned-slot protocols are
   insensitive by construction, and how acceptance order moves a
   stalling burst.
"""

import pytest

from repro.logp import DeliverRandom, LogPMachine
from repro.models.params import LogPParams
from repro.networks import Hypercube
from repro.networks.routing_sim import RoutingConfig, build_paths, route_packets
from repro.programs import logp_sum_program
from repro.routing.workloads import balanced_h_relation

EXPERIMENT = "AB"


@pytest.fixture(scope="module")
def schedulers(paper_tables):
    """delivery policy -> its record."""
    return {rec["delivery"]: rec for rec in paper_tables["ablation_schedulers"].records}


def test_routing_strategy_report(paper_tables, benchmark):
    """Adversarial permutations need randomization (Valiant); random
    traffic does not — at a scale where e-cube congestion actually bites
    (bit reversal on the single-port 1024-hypercube)."""
    topo, pairs = Hypercube(64), balanced_h_relation(64, 4, seed=1)
    benchmark.pedantic(
        lambda: route_packets(
            topo, build_paths(topo, pairs, valiant=True, seed=0),
            RoutingConfig(valiant=True),
        ).time,
        rounds=2,
        iterations=1,
    )
    # Valiant must tame the adversarial permutation's congestion where it
    # is worst (single-port).
    single = {
        rec["strategy"]: rec["time"]
        for rec in paper_tables["ablation_routing"].records
        if rec["workload"].startswith("bit") and rec["ports"] == "single"
    }
    assert single["valiant"] < single["direct"]


def test_cost_convention_report(paper_tables, benchmark):
    from repro.bsp.machine import BSPMachine
    from repro.models.params import BSPParams
    from repro.programs import bsp_prefix_program

    benchmark.pedantic(
        lambda: BSPMachine(BSPParams(p=8, g=2, l=16)).run(bsp_prefix_program()),
        rounds=2,
        iterations=1,
    )
    for rec in paper_tables["ablation_cost_conventions"].records:
        # results never depend on the convention
        assert rec["results_invariant"], rec
        # the conventions bracket each other: out <= max <= sum <= 2 max
        assert rec["send-only"] <= rec["max"] <= rec["sum"] <= 2 * rec["max"], rec


def test_scheduler_ablation_report(schedulers, benchmark):
    benchmark.pedantic(
        lambda: LogPMachine(
            LogPParams(p=16, L=8, o=1, G=2), delivery=DeliverRandom(seed=1)
        ).run(logp_sum_program()),
        rounds=2,
        iterations=1,
    )
    for rec in schedulers.values():
        assert rec["sum_correct"], rec


def test_kernels_sensitive_protocol_insensitive(schedulers):
    """Ad-hoc kernels speed up under eager delivery; the pinned-slot
    deterministic protocol's makespan barely moves (it is schedule-driven
    end to end)."""
    assert schedulers["eager"]["sum_makespan"] < schedulers["max-latency"]["sum_makespan"]
    dets = [rec["det_time"] for rec in schedulers.values()]
    assert max(dets) - min(dets) <= 0.05 * max(dets)


def test_acceptance_order_affects_stalling_runs_only(paper_tables):
    records = paper_tables["ablation_acceptance"].records
    params = LogPParams(**records[0]["params"])
    # all orders drain the hot spot in the same Theta(Gk + L) envelope
    times = [rec["time"] for rec in records]
    assert max(times) - min(times) <= params.L + 2 * params.G
