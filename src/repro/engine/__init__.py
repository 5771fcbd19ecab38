"""The shared simulation engine: one result vocabulary, shared program
intake, and first-class layer composition for every simulator in the
repo.

* :mod:`repro.engine.core` — the program-intake and counter helpers all
  machines use (each machine owns its drive loop).
* :mod:`repro.engine.result` — :class:`MachineResult` / :class:`TraceEvent`,
  the cross-layer result projection and trace vocabulary.
* :mod:`repro.engine.stack` — :class:`Stack`, the declarative
  composition API (``Stack(prog).on_logp(params).on_network(topo)``).
* :mod:`repro.engine.request` — :class:`RunRequest`, the versioned
  JSON-serializable request schema naming any supported chain
  (``Stack.from_request`` / ``Stack.to_request``).
"""

from repro.engine.core import (
    KNOWN_KERNELS,
    coerce_programs,
    counters_for,
    spawn_generator,
)
from repro.engine.result import MachineResult, TraceEvent
from repro.engine.stack import SUPPORTED_CHAINS, Stack, StackLayer
from repro.engine.request import REQUEST_VERSION, RunRequest, build_stack, parse_chain

__all__ = [
    "coerce_programs",
    "counters_for",
    "spawn_generator",
    "KNOWN_KERNELS",
    "MachineResult",
    "TraceEvent",
    "Stack",
    "StackLayer",
    "SUPPORTED_CHAINS",
    "RunRequest",
    "REQUEST_VERSION",
    "build_stack",
    "parse_chain",
]
