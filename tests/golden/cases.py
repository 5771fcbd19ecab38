"""Canonical seeded runs for the golden-trace regression suite.

Each case is a function ``kernel -> dict`` producing a JSON-serializable
document of *simulated-clock observables*: clocks, message orders, cost
ledgers, fault summaries.  The documents are deliberately **uid-free** —
``Message.uid`` comes from a process-global counter, so two runs in one
process see different uids even when their executions are identical;
golden traces project uids away and keep only ``(time, endpoint)``
shapes, which pin down the execution exactly.

They are also **kernel-free**: no :class:`~repro.perf.counters.
KernelCounters` values appear, because those legitimately differ between
the ``"event"`` and ``"tick"`` kernels.  The suite's whole point is that
everything *else* is bit-identical across kernels and across commits.

Regenerate the committed files with::

    PYTHONPATH=src python tests/golden/generate.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.bsp_on_logp import simulate_bsp_on_logp
from repro.core.logp_on_bsp import simulate_logp_on_bsp
from repro.engine.request import build_stack
from repro.faults import FaultPlan, reliable
from repro.logp.collectives import gather
from repro.logp.machine import LogPMachine, LogPResult
from repro.logp.scheduler import DeliverEager
from repro.models.params import LogPParams
from repro.networks import Hypercube
from repro.networks.routing_sim import RoutingConfig, route_h_relation
from repro.programs import bsp_prefix_program, logp_sum_program

GOLDEN_DIR = Path(__file__).parent

PARAMS = LogPParams(p=8, L=8, o=2, G=2)

FAULTY_PLAN = FaultPlan(
    seed=17,
    drop_rate=0.25,
    dup_rate=0.25,
    delay_rate=0.25,
    max_extra_delay=8,
    reorder_rate=0.25,
)


def _logp_projection(res: LogPResult) -> dict:
    """Uid-free projection of a LogP run's observables."""
    doc = {
        "makespan": res.makespan,
        "results": res.results,
        "total_messages": res.total_messages,
        "buffer_highwater": res.buffer_highwater,
        "stalls": [
            [s.sender, s.dest, s.submit_time, s.accept_time] for s in res.stalls
        ],
    }
    if res.trace is not None:
        doc["submissions"] = [[t, src] for t, src, _uid in res.trace.submissions]
        doc["deliveries"] = [[t, dest] for t, dest, _uid in res.trace.deliveries]
        doc["acquisitions"] = [
            [a, b, pid] for a, b, pid, _uid in res.trace.acquisitions
        ]
    if res.fault_log is not None:
        doc["fault_summary"] = res.fault_log.summary()
    return doc


def _ledger_projection(ledger) -> list[list[int]]:
    return [
        [r.index, r.w, r.h_send, r.h_recv, r.cost, r.retries, r.retry_cost]
        for r in ledger
    ]


def case_bsp_on_logp_det(kernel: str) -> dict:
    """Theorem 2: BSP prefix program over the deterministic §4.2 routing."""
    rep = simulate_bsp_on_logp(
        PARAMS,
        bsp_prefix_program(),
        routing="deterministic",
        seed=0,
        machine_kwargs={"kernel": kernel, "record_trace": True},
    )
    return {
        "logp": _logp_projection(rep.logp),
        "program_results": rep.results,
        "native_bsp_ledger": _ledger_projection(rep.bsp_native.ledger),
        "timings": [
            [t.index, t.local_end, t.sync_end, t.route_end] for t in rep.timings
        ],
    }


def case_bsp_on_logp_offline(kernel: str) -> dict:
    """Theorem 2's offline Hall baseline: every h-relation is colored in
    advance and each message pinned to its color's slot, so the run pins
    the offline mode's slot schedule (``bench_kernel``'s
    ``bsp_on_logp_p64`` path, at p = 8)."""
    rep = simulate_bsp_on_logp(
        PARAMS,
        bsp_prefix_program(),
        routing="offline",
        seed=0,
        machine_kwargs={"kernel": kernel, "record_trace": True},
    )
    return {
        "logp": _logp_projection(rep.logp),
        "program_results": rep.results,
        "timings": [
            [t.index, t.local_end, t.sync_end, t.route_end] for t in rep.timings
        ],
    }


def case_bsp_on_logp_on_network(kernel: str) -> dict:
    """The three-layer chain through the request path: the host LogP
    machine takes every message's delay from ``NetworkDelivery`` (the
    packet router's time on the hypercube), so the delivery steps pin the
    medium's acceptance of delays below ``L``."""
    rep = build_stack({
        "chain": "bsp-on-logp-on-network",
        "workload": "prefix",
        "p": 8,
        "seed": 1,
        "kernel": kernel,
    }).run(machine_kwargs={"record_trace": True})
    return {
        "logp": _logp_projection(rep.logp),
        "program_results": rep.results,
        "timings": [
            [t.index, t.local_end, t.sync_end, t.route_end] for t in rep.timings
        ],
    }


def case_logp_eager_collisions(kernel: str) -> dict:
    """A gather under ``DeliverEager`` (capacity ceil(L/G) = 4): seven
    senders submit to the root at one step, four are accepted together
    and each proposes delay 1, so the medium moves all but the first to
    the next free delivery step, and the other three stall until
    deliveries free their slots."""

    def prog(ctx):
        return (yield from gather(ctx, 3 * ctx.pid + 1))

    res = LogPMachine(
        PARAMS, delivery=DeliverEager(), record_trace=True, kernel=kernel
    ).run(prog)
    return _logp_projection(res)


def case_logp_on_bsp(kernel: str) -> dict:
    """Theorem 1: LogP summation windowed onto the matched BSP machine.

    The host BSP machine has a single (superstep) kernel; ``kernel``
    selects the queue of the *native comparison* LogP run.
    """
    rep = simulate_logp_on_bsp(
        PARAMS,
        logp_sum_program(),
        machine_kwargs={"kernel": kernel, "record_trace": True},
    )
    assert rep.native is not None and rep.outputs_match
    return {
        "results": rep.results,
        "window": rep.window,
        "windows": rep.windows,
        "bsp_total_cost": rep.bsp.total_cost,
        "bsp_ledger": _ledger_projection(rep.bsp.ledger),
        "native": _logp_projection(rep.native),
    }


def case_logp_faulty(kernel: str) -> dict:
    """Seeded FaultPlan through FaultyMedium under the resilient
    ack/retransmit transport: drops, duplicates, delays and reorders all
    fire, and the whole fault-recovery timeline must stay bit-identical
    across kernels."""
    machine = LogPMachine(
        PARAMS, faults=FAULTY_PLAN, record_trace=True, kernel=kernel
    )
    res = machine.run(reliable(logp_sum_program()))
    return _logp_projection(res)


def case_routing(kernel: str) -> dict:
    """Packet routing outcomes over a config grid, faults on and off."""
    out: dict = {}
    for name, single_port, fr in (
        ("multiport", False, 0.0),
        ("singleport", True, 0.0),
        ("multiport_faulty", False, 0.4),
    ):
        cfg = RoutingConfig(
            single_port=single_port,
            link_fault_rate=fr,
            seed=11,
            kernel=kernel,
        )
        o = route_h_relation(Hypercube(16), 4, seed=2, config=cfg)
        out[name] = {
            "time": o.time,
            "packets": o.packets,
            "total_hops": o.total_hops,
            "max_queue": o.max_queue,
            "retransmissions": o.retransmissions,
        }
    return out


def case_routing_multiport_dense(kernel: str) -> dict:
    """Dense multiport routing — 512 packets with h = 16, which the
    event kernel routes with its array pass — pinned down to the
    individual transmission: the projection keeps the full hop trace
    ``[time, packet, link]`` in pop order, so a vectorized step that
    reorders pops, renumbers edges, or drifts off the shared
    fault-stream draw order fails against the committed file even when
    the aggregate outcome happens to survive."""
    from repro.obs import Observation

    out: dict = {}
    for name, fault_rate in (("dense", 0.0), ("dense_faulty", 0.25)):
        obs = Observation(trace=True)
        cfg = RoutingConfig(link_fault_rate=fault_rate, seed=11, kernel=kernel)
        o = route_h_relation(Hypercube(32), 16, seed=3, config=cfg, obs=obs)
        out[name] = {
            "time": o.time,
            "packets": o.packets,
            "total_hops": o.total_hops,
            "max_queue": o.max_queue,
            "retransmissions": o.retransmissions,
            "hops": [
                [s.end, s.args["packet"], s.args["link"]]
                for s in obs.tracer.spans
                if s.name == "hop"
            ],
        }
    return out


def case_bsp_on_network(kernel: str) -> dict:
    """Section 5's network-backed BSP through the request path: one
    ``sim-network`` shape (radix sort, 64 processors on the hypercube),
    each superstep re-priced by routing its h-relation packet by packet.
    Pins the per-superstep route and barrier times, which no other case
    covers, and the sorted outputs."""
    run = build_stack({
        "chain": "bsp-on-network",
        "workload": "radix-sort",
        "p": 64,
        "args": {"keys_per_proc": 32},
        "seed": 1,
        "kernel": kernel,
    }).run()
    return {
        "supersteps": [
            [s.w, s.h, s.route_time, s.barrier_time] for s in run.supersteps
        ],
        "network_cost": run.network_cost,
        "results": run.results,
    }


CASES = {
    "bsp_on_logp_det": case_bsp_on_logp_det,
    "bsp_on_logp_offline": case_bsp_on_logp_offline,
    "bsp_on_logp_on_network": case_bsp_on_logp_on_network,
    "bsp_on_network": case_bsp_on_network,
    "logp_on_bsp": case_logp_on_bsp,
    "logp_eager_collisions": case_logp_eager_collisions,
    "logp_faulty": case_logp_faulty,
    "routing": case_routing,
    "routing_multiport_dense": case_routing_multiport_dense,
}


def normalize(doc: dict) -> dict:
    """JSON round-trip so tuples/lists compare equal to the loaded file."""
    return json.loads(json.dumps(doc))


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"
