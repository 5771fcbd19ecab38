"""Network-backed BSP: charge supersteps with *measured* routing costs.

Section 5 argues that point-to-point networks support the BSP
abstraction with parameters ``g* = Theta(gamma(p))``, ``l* =
Theta(delta(p))``.  This module closes the loop executably: it runs a
BSP program normally (BSP semantics are network-independent — the §2.1
portability property), then re-prices every superstep with

* the *actual* time the packet simulator needs to route that superstep's
  message set on a given topology, plus
* a barrier charge of one tree ascent + descent (``2 x diameter``).

Comparing the network-backed cost against the abstract machine's
``w + g* h + l*`` quantifies how well the bridging model's two
parameters predict a real network — the model's raison d'être.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.bsp.machine import BSPMachine, BSPResult
from repro.bsp.program import BSPProgram
from repro.engine.result import MachineResult
from repro.errors import TopologyError
from repro.models.params import BSPParams
from repro.networks.routing_sim import RoutingConfig, build_paths, route_packets
from repro.networks.topology import Topology

__all__ = [
    "NetworkBackedRun",
    "run_on_network",
    "SuperstepComm",
    "NetworkDelivery",
]


@dataclass(frozen=True)
class SuperstepComm:
    """One superstep's communication, priced on the network."""

    index: int
    w: int
    h: int
    route_time: int
    barrier_time: int

    @property
    def cost(self) -> int:
        return self.w + self.route_time + self.barrier_time


@dataclass
class NetworkBackedRun(MachineResult):
    """A BSP execution priced on a concrete topology."""

    row_fields = ("topology_name", "p", "network_cost", "total_route_time")

    topology_name: str
    p: int
    bsp: BSPResult
    supersteps: list[SuperstepComm] = field(default_factory=list)

    @property
    def results(self):
        return self.bsp.results

    @property
    def network_cost(self) -> int:
        """Total cost with measured routing + barrier charges."""
        return sum(s.cost for s in self.supersteps)

    def abstract_cost(self, params: BSPParams) -> int:
        """Cost of the same execution on the abstract machine
        ``w + g h + l`` — for fidelity ratios against ``network_cost``."""
        return sum(
            params.superstep_cost(s.w, s.h) for s in self.supersteps
        )

    @property
    def total_route_time(self) -> int:
        return sum(s.route_time for s in self.supersteps)


class NetworkDelivery:
    """A LogP :class:`~repro.logp.scheduler.DeliveryScheduler` whose
    delays come from *traversing the actual topology*.

    Each accepted message is routed hop by hop along the topology's
    oblivious path; every directed edge carries one message per step, so
    the scheduler keeps a reservation table (edge -> next free step) that
    persists across messages — an online store-and-forward co-simulation
    of the network underneath the LogP machine.

    The LogP model *requires* delivery within ``L``; if the network needs
    longer, the machine clamps the delay to ``L`` and this scheduler
    counts the violation (:attr:`violations`).  A topology genuinely
    supports ``(L, G)`` for a traffic class iff such runs stay
    violation-free — the executable form of Section 5's "any machine that
    supports ..." statements.

    With an enabled :class:`~repro.obs.Observation` (``obs=``) the
    scheduler additionally counts per-link occupancy and — when tracing
    — records each store-and-forward hop (in the host LogP clock); call
    :meth:`publish` once the machine run finished.  The recording never
    affects the proposed delays.
    """

    def __init__(self, topo: Topology, *, start_time: int = 0, obs=None) -> None:
        self.topo = topo
        self._edge_free: dict[tuple[int, int], int] = {}
        # Host-pair routes, memoized for this scheduler's run only.
        self._routes: dict[tuple[int, int], list[int]] = {}
        self.violations = 0
        self.delays: list[int] = []
        self._obs = obs if (obs is not None and obs.enabled) else None
        self.occupancy: dict[tuple[int, int], int] = {}
        #: (depart_step, u, v, msg_uid) per hop, recorded only when tracing.
        self.hops: list[tuple[int, int, int, int]] = []
        self._record_hops = self._obs is not None and self._obs.tracing

    def propose_delay(self, msg, accept_time: int, L: int) -> int:
        path = self._routes.get((msg.src, msg.dest))
        if path is None:
            hosts = self.topo.hosts
            path = self._routes[(msg.src, msg.dest)] = self.topo.route(
                hosts[msg.src], hosts[msg.dest]
            )
        t = accept_time
        edge_free = self._edge_free
        observe = self._obs is not None
        for u, v in zip(path, path[1:]):
            depart = edge_free.get((u, v), 0)
            if t > depart:
                depart = t
            t = edge_free[(u, v)] = depart + 1
            if observe:
                self.occupancy[(u, v)] = self.occupancy.get((u, v), 0) + 1
                if self._record_hops:
                    self.hops.append((depart, u, v, msg.uid))
        delay = t - accept_time if t > accept_time else 1
        self.delays.append(delay)
        if delay > L:
            self.violations += 1
        return delay  # the engine clamps to [1, L]

    def publish(self, layer: str = "network") -> None:
        """Publish the co-simulation's record into the attached
        observation (no-op without one)."""
        if self._obs is not None:
            self._obs.observe_network_delivery(self, layer=layer)

    @property
    def max_delay(self) -> int:
        return max(self.delays, default=0)


def run_on_network(
    topo: Topology,
    program: BSPProgram | Sequence[BSPProgram],
    *,
    config: RoutingConfig = RoutingConfig(),
    seed: int = 0,
    barrier_factor: int = 2,
    obs=None,
) -> NetworkBackedRun:
    """Execute ``program`` with BSP semantics and network-measured costs.

    The program runs on a machine with ``p`` = the topology's processor
    count; each superstep's message multiset is source-routed on the
    packet simulator (Valiant per ``config``) and its completion time
    becomes the superstep's communication charge.  The barrier costs
    ``barrier_factor * diameter`` (tree up + down).

    With an enabled :class:`~repro.obs.Observation` (``obs=``), the
    per-superstep router runs publish link-occupancy metrics (spans
    suppressed — each router invocation has its own time base) and the
    re-priced superstep decomposition is published on the measured
    clock.
    """
    p = topo.p
    if obs is not None and not obs.enabled:
        obs = None
    # Semantics first: parameters don't affect results (§2.1), so run on
    # a unit machine while recording the communication structure.
    machine = BSPMachine(
        BSPParams(p=p, g=1, l=0),
        record_messages=True,
        layer="guest BSP on host network",
    )
    bsp = machine.run(program)
    if bsp.message_log is None:
        raise TopologyError("internal: message recording disabled")

    barrier = barrier_factor * topo.diameter(
        sample=None if topo.num_nodes <= 1024 else topo.hosts[:: max(1, p // 16)]
    )
    route_obs = obs.metrics_only() if obs is not None else None
    # One route memo for this run's supersteps; dropped with the run, so
    # a topology shared between requests carries no per-pair state.
    routes: dict[tuple[int, int], list[int]] = {}
    supersteps: list[SuperstepComm] = []
    for rec, msgs in zip(bsp.ledger, bsp.message_log):
        if msgs:
            paths = build_paths(
                topo, msgs, valiant=config.valiant, seed=seed + rec.index,
                routes=routes,
            )
            route_time = route_packets(topo, paths, config, obs=route_obs).time
        else:
            route_time = 0
        supersteps.append(
            SuperstepComm(
                index=rec.index,
                w=rec.w,
                h=rec.h,
                route_time=route_time,
                barrier_time=barrier,
            )
        )
    run = NetworkBackedRun(
        topology_name=topo.name, p=p, bsp=bsp, supersteps=supersteps
    )
    if obs is not None:
        obs.observe_network_run(run)
    return run
