"""Chaos regression: seeded fault injection must be kernel-invariant.

The event kernel's fast paths — the indexed queue's skip-ahead and the
router's active-set loop — share their RNG streams with the tick
reference scan.  These tests pin that a chaotic seeded run (drops,
duplicates, delays, reorders on the LogP medium; lossy links in the
packet router) produces identical fault fates and traces under both
kernels: a path that consumed the stream in a different order would
show up here as diverging fates even when aggregate counts happen to
agree.  The router's array pass, with its batched fault draws, is
pinned the same way in ``tests/networks/test_router_paths.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, reliable
from repro.logp.machine import LogPMachine
from repro.models.params import LogPParams
from repro.networks import Hypercube
from repro.networks.routing_sim import RoutingConfig, route_h_relation
from repro.obs import Observation
from repro.perf.event_queue import KERNELS
from repro.programs import logp_sum_program

PARAMS = LogPParams(p=8, L=8, o=2, G=2)

CHAOS_PLAN = FaultPlan(
    seed=23,
    drop_rate=0.3,
    dup_rate=0.2,
    delay_rate=0.3,
    max_extra_delay=6,
    reorder_rate=0.2,
)


def _fates(log) -> dict:
    """Uid-free projection of a FaultLog (uids are process-global, so
    two identical executions in one process see different uids)."""
    return {
        "dropped": [(s, d, t) for _uid, s, d, t in log.dropped],
        "duplicated": [d for _orig, _ghost, d in log.duplicated],
        "delayed": [extra for _uid, extra in log.delayed],
        "reordered": len(log.reordered),
        "crashes": list(log.crashes),
        "summary": log.summary(),
    }


def _logp_chaos_run(kernel: str) -> dict:
    machine = LogPMachine(
        PARAMS, faults=CHAOS_PLAN, record_trace=True, kernel=kernel
    )
    res = machine.run(reliable(logp_sum_program()))
    return {
        "results": res.results,
        "makespan": res.makespan,
        "total_messages": res.total_messages,
        "stalls": [
            (s.sender, s.dest, s.submit_time, s.accept_time) for s in res.stalls
        ],
        "submissions": [(t, src) for t, src, _uid in res.trace.submissions],
        "deliveries": [(t, dest) for t, dest, _uid in res.trace.deliveries],
        "fates": _fates(res.fault_log),
    }


class TestLogPChaosKernelInvariant:
    def test_fault_fates_and_traces_identical(self):
        base = _logp_chaos_run("event")
        # The plan actually fired — an accidentally-clean run would make
        # this test vacuous.
        assert base["fates"]["summary"]["dropped"] > 0
        assert base["fates"]["summary"]["duplicated"] > 0
        assert base["fates"]["summary"]["delayed"] > 0
        for kernel in KERNELS[1:]:
            assert _logp_chaos_run(kernel) == base, (
                f"kernel {kernel!r} diverged from 'event' under faults"
            )


def _routing_chaos_run(kernel: str, **cfg) -> dict:
    obs = Observation(trace=True)
    config = RoutingConfig(link_fault_rate=0.3, seed=7, kernel=kernel, **cfg)
    outcome = route_h_relation(Hypercube(32), 8, seed=5, config=config, obs=obs)
    return {
        "outcome": (
            outcome.time,
            outcome.packets,
            outcome.total_hops,
            outcome.max_queue,
            outcome.retransmissions,
        ),
        "hops": [
            (s.end, s.args["packet"], s.args["link"])
            for s in obs.tracer.spans
            if s.name == "hop"
        ],
    }


class TestRoutingChaosKernelInvariant:
    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param({}, id="multiport"),
            pytest.param({"single_port": True}, id="singleport"),
            pytest.param({"valiant": True}, id="valiant"),
        ],
    )
    def test_lossy_links_identical_across_kernels(self, cfg):
        base = _routing_chaos_run("event", **cfg)
        assert base["outcome"][4] > 0  # retransmissions: faults fired
        assert base["hops"]  # the hop trace is actually populated
        for kernel in KERNELS[1:]:
            assert _routing_chaos_run(kernel, **cfg) == base, (
                f"kernel {kernel!r} diverged from 'event' on lossy links"
            )
