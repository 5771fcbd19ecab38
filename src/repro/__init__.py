"""repro — an executable reproduction of *BSP vs LogP* (Bilardi, Herley,
Pietracaprina, Pucci, Spirakis; SPAA 1996 / Algorithmica 1999).

The canonical entry point is the :class:`Stack` API — compose the
paper's layers by name and run the chain::

    from repro import Stack, BSPParams, LogPParams

    Stack(prog).on_bsp(BSPParams(p=8, g=2, l=16)).run()    # native BSP
    Stack(prog).on_logp(LogPParams(p=8, L=8, o=1, G=2)).run()  # Thm 2/3
    Stack(prog, model="logp", params=P).on_bsp().run()     # Theorem 1
    Stack(prog).on_logp(P).on_network(topo).run()          # three layers

Every run returns a :class:`MachineResult` subclass (shared ``as_row``
/ ``trace_events`` vocabulary); pass ``obs=Observation(...)`` to any
``run()`` to collect metrics, layer-labelled traces (Chrome/Perfetto
JSON), and predicted-vs-observed cost residuals
(:class:`CostModelCheck`) — see ``docs/OBSERVABILITY.md``.

The package layout underneath:

* :mod:`repro.bsp` — a BSP virtual machine (supersteps, ``w + g h + l``);
* :mod:`repro.logp` — an event-accurate LogP machine (``L, o, G, P``,
  capacity constraint, the paper's formalized stalling rule);
* :mod:`repro.core` — the paper's cross-simulations: Theorem 1
  (LogP on BSP), Combine-and-Broadcast, the deterministic and randomized
  h-relation routing protocols, Theorems 2/3 (BSP on LogP), the stalling
  experiments, and the Section 5 network-support analysis;
* :mod:`repro.networks` — the Table 1 topologies and a synchronous
  store-and-forward packet-routing simulator;
* :mod:`repro.sorting`, :mod:`repro.routing` — the sorting networks and
  h-relation machinery the protocols are built from;
* :mod:`repro.models` — machine parameters and every closed-form cost
  expression in the paper;
* :mod:`repro.faults` — deterministic fault injection + resilience;
* :mod:`repro.programs` — ready-made example programs for both models;
* :mod:`repro.engine` — what the simulators share: program intake,
  the result vocabulary, and the Stack adapters;
* :mod:`repro.obs` — the observability layer (metrics, tracer, cost
  checks);
* :mod:`repro.campaign` — parallel, resumable, cache-backed experiment
  sweeps (:class:`CampaignSpec` + :func:`run_campaign`), plus the public
  target registry (:func:`register_target`); see ``docs/CAMPAIGN.md``;
* :mod:`repro.service` — simulation-as-a-service: an asyncio front-end
  (:class:`SimulationService`) that resolves :class:`RunRequest`
  documents against the sharded campaign cache — hits served from disk,
  identical in-flight requests deduped, misses batched into the
  work-stealing pool; see ``docs/SERVICE.md``;
* :mod:`repro.dist` — a fault-tolerant *real-process* backend: each
  LogP processor is an OS process over TCP, supervised with heartbeats,
  checkpointed restarts, seq/ack retransmission, and Lamport-stamped
  event logs (``Stack(name).on_dist(p)``); see ``docs/DIST.md``;
* :mod:`repro.workloads` — the first-class workload library: a
  declarative registry (:class:`Workload`) bundling program factory,
  parameter space, analytic cost model, and reference validation, with
  :func:`run_workload` driving points end-to-end through the request
  path; see ``docs/WORKLOADS.md``.

See ``examples/quickstart.py`` for a guided tour.
"""

from repro.campaign import CampaignReport, CampaignSpec, register_target, run_campaign
from repro.dist import DistParams, DistResult, run_dist
from repro.models.message import Message
from repro.models.params import BSPParams, LogPParams
from repro.bsp.machine import BSPMachine, BSPResult
from repro.logp.machine import LogPMachine, LogPResult
from repro.engine import MachineResult, Stack, TraceEvent
from repro.engine.request import RunRequest
from repro.service import ServiceConfig, SimulationService
from repro.faults import FaultPlan, FaultLog, CRASHED
from repro.networks.routing_sim import RoutingConfig
from repro.networks.topology import Topology
from repro.obs import (
    CostCheckReport,
    CostModelCheck,
    MetricsRegistry,
    Observation,
    Tracer,
)
from repro.workloads import Workload, WorkloadRun, iter_workloads, run_workload

__version__ = "1.1.0"

__all__ = [
    # Stack-first public API
    "Stack",
    "MachineResult",
    "TraceEvent",
    # model parameters
    "BSPParams",
    "LogPParams",
    "RoutingConfig",
    "Topology",
    "Message",
    # machines and their results (for native single-layer runs)
    "BSPMachine",
    "BSPResult",
    "LogPMachine",
    "LogPResult",
    # fault injection
    "FaultPlan",
    "FaultLog",
    "CRASHED",
    # campaign sweeps
    "CampaignSpec",
    "CampaignReport",
    "run_campaign",
    "register_target",
    # simulation-as-a-service
    "RunRequest",
    "SimulationService",
    "ServiceConfig",
    # real-process distributed backend
    "DistParams",
    "DistResult",
    "run_dist",
    # workload library
    "Workload",
    "WorkloadRun",
    "run_workload",
    "iter_workloads",
    # observability
    "Observation",
    "MetricsRegistry",
    "Tracer",
    "CostModelCheck",
    "CostCheckReport",
    "__version__",
]
