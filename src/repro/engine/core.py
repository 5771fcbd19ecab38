"""The shared engine core: one drive loop for every simulator layer.

Historically each machine — :class:`~repro.logp.machine.LogPMachine`,
:class:`~repro.bsp.machine.BSPMachine`, and the packet router of
:mod:`repro.networks.routing_sim` — reimplemented the same skeleton:
coerce the user's program(s), instantiate generator coroutines, activate
the :class:`~repro.faults.plan.FaultPlan`, attach
:class:`~repro.perf.counters.KernelCounters`, and drive events until
quiescence while enforcing safety limits.  This module owns that
skeleton once:

* :class:`Engine` — the discrete-event drive loop, generic over the
  pluggable event queues of :mod:`repro.perf.event_queue` (``"event"``
  skip-ahead / ``"tick"`` reference).  It owns queue construction, fault
  activation, the ``max_events`` guard, the quiescence-release protocol,
  and the layer-labelled :class:`~repro.errors.SimulationLimitError` /
  :class:`~repro.errors.DeadlockError` raising.  The *dispatch* of each
  popped event stays with the machine — that is where model semantics
  live — so refactored machines execute bit-identically to their
  pre-engine selves (the golden-trace suite enforces this).
* :func:`coerce_programs` / :func:`spawn_generator` — the shared
  program-intake contract (callable replicated ``p`` times, or exactly
  one program per processor; every program must be a generator function).
* :func:`counters_for` — the one place `KernelCounters` are minted, so
  every layer's result carries uniformly-named work accounting.

Every engine carries a ``layer`` label ("LogP", "guest BSP on host
LogP", ...) naming its position in the machine stack; diagnostics from
nested engines identify their owner instead of all reading alike.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.errors import DeadlockError, ProgramError, SimulationLimitError
from repro.perf.counters import KernelCounters
from repro.perf.event_queue import KERNELS, make_event_queue

__all__ = [
    "Engine",
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


class Engine:
    """The generic discrete-event drive loop.

    Parameters
    ----------
    kernel:
        Event-queue implementation name (``"event"`` or ``"tick"``, see
        :mod:`repro.perf.event_queue`).  Both drive bit-identical
        executions; the kernel only changes how the next event is found.
    p:
        Processor count (sizes the tick kernel's scan lists).
    max_events:
        Safety valve: exactly this many events may be dispatched; the
        run raises :class:`SimulationLimitError` on the next one.
    layer:
        Human-readable name of this engine's position in the machine
        stack, e.g. ``"LogP"`` or ``"guest LogP on host BSP"``.  Every
        diagnostic the engine raises names it.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; the engine owns
        its activation so each run draws fresh RNG streams.
    obs:
        Optional :class:`~repro.obs.Observation`; at drain time the
        engine publishes the queue's :class:`KernelCounters` into it
        under this engine's ``layer`` label.  A disabled observation is
        normalized to ``None`` here, so the drive loop itself carries no
        instrumentation branches at all.

    The machine supplies a ``dispatch(time, kind, pid, data)`` callable
    holding the model semantics and, optionally, an ``on_quiescence``
    hook that may re-seed the queue (returning ``True`` to continue) —
    the distributed-termination release used by ``Linger``.
    """

    def __init__(
        self,
        *,
        kernel: str,
        p: int,
        max_events: int,
        layer: str = "machine",
        faults: Any | None = None,
        obs: Any | None = None,
    ) -> None:
        self.kernel_name = kernel
        self.layer = layer
        self.max_events = max_events
        self.queue = make_event_queue(kernel, p)
        self.push = self.queue.push
        self.active = faults.activate() if faults is not None else None
        self.obs = obs if (obs is not None and obs.enabled) else None
        #: Time of the last event processed (diagnostics anchor).
        self.last_time = 0

    @property
    def counters(self) -> KernelCounters:
        """The queue's work accounting (events, batches, skips, highwater)."""
        return self.queue.counters

    def run(
        self,
        dispatch: Callable[[int, int, int, Any], None],
        *,
        on_quiescence: Callable[[int], bool] | None = None,
    ) -> KernelCounters:
        """Drain the queue through ``dispatch`` until true quiescence.

        The per-tick ordering contract is the queue's: events pop in
        ``(time, kind, seq)`` order, so a machine's intra-step phase
        ordering is encoded entirely in its event-kind numbering.  When
        the queue drains, ``on_quiescence(last_time)`` may push new
        events and return ``True`` to keep running.
        """
        queue = self.queue
        pop = queue.pop
        counters = queue.counters
        max_events = self.max_events
        time = 0
        while True:
            # Both queues return None once empty.  A pop counts its event,
            # so the guard fires on the first event past ``max_events``.
            while (event := pop()) is not None:
                if counters.events > max_events:
                    raise self.limit_error(f"exceeded max_events={max_events}")
                time, kind, pid, data = event
                dispatch(time, kind, pid, data)
            if on_quiescence is None or not on_quiescence(time):
                break
        self.last_time = time
        if self.obs is not None:
            self.obs.publish_kernel(self.layer, counters)
        return counters

    # -- layer-labelled diagnostics ------------------------------------

    def limit_error(self, message: str) -> SimulationLimitError:
        """A :class:`SimulationLimitError` naming the owning layer."""
        return SimulationLimitError(f"[{self.layer}] {message}")

    def deadlock_error(self, message: str, *, diagnostics: dict | None = None) -> DeadlockError:
        """A :class:`DeadlockError` naming the owning layer, so errors
        escaping nested engines (e.g. the guest machine of a stack)
        identify which simulator actually hung."""
        return DeadlockError(f"[{self.layer}] {message}", diagnostics=diagnostics)
