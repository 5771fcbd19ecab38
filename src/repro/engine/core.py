"""Program intake and work accounting shared by every machine.

Each machine owns its own drive loop: :class:`~repro.logp.machine.LogPMachine`
walks its event queue's per-timestamp batches
(:mod:`repro.perf.event_queue`), :class:`~repro.bsp.machine.BSPMachine`
runs superstep by superstep, and the packet router of
:mod:`repro.networks.routing_sim` has one step loop per kernel.  What
they share lives here:

* :func:`coerce_programs` / :func:`spawn_generator` — the program-intake
  contract (callable replicated ``p`` times, or exactly one program per
  processor; every program must be a generator function).
* :func:`counters_for` — the one place `KernelCounters` are minted, so
  every layer's result carries uniformly-named work accounting.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.errors import ProgramError
from repro.perf.counters import KernelCounters
from repro.perf.event_queue import KERNELS

__all__ = [
    "coerce_programs",
    "spawn_generator",
    "counters_for",
    "KNOWN_KERNELS",
]

#: Every kernel vocabulary a result may report: the two pluggable event
#: queues plus the BSP machine's barrier-driven superstep kernel.
KNOWN_KERNELS = KERNELS + ("superstep",)


def counters_for(kernel: str) -> KernelCounters:
    """Mint a fresh :class:`KernelCounters` for the named kernel.

    The single engine-owned constructor used by every machine (LogP event
    loop, BSP superstep loop, packet router), replacing the per-machine
    copies of the attachment logic.  Raises :class:`ValueError` on a
    kernel name outside the known vocabulary so a typo cannot silently
    produce a mislabelled ledger.
    """
    if kernel not in KNOWN_KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {KNOWN_KERNELS}"
        )
    return KernelCounters(kernel=kernel)


def coerce_programs(program: Callable | Sequence[Callable], p: int) -> list[Callable]:
    """The shared program-intake rule: a single callable runs on every
    processor; a sequence must supply exactly one program per processor."""
    if callable(program):
        return [program] * p
    programs = list(program)
    if len(programs) != p:
        raise ProgramError(f"need exactly p={p} programs, got {len(programs)}")
    return programs


def spawn_generator(program: Callable, ctx: Any, pid: int, *, model: str) -> Generator:
    """Instantiate one processor's coroutine, enforcing the generator
    contract every machine shares."""
    gen = program(ctx)
    if not isinstance(gen, Generator):
        raise ProgramError(
            f"{model} program for processor {pid} is not a generator "
            f"function (did you forget to yield?)"
        )
    return gen
