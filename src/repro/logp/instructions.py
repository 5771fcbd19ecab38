"""LogP program API: instructions and the per-processor context.

A LogP program is a generator function ``prog(ctx)`` run once per
processor.  It yields instruction objects; the machine computes each
instruction's completion time under the model's rules and resumes the
generator with the instruction's result.  Instructions are matched by
exact type: an instance of a subclass of an instruction is not an
instruction, and the interpreter rejects it with a
:class:`~repro.errors.ProgramError`.

Instructions are plain values, one per simulated operation, so they are
built cheaply: each class is a slotted dataclass
(``@dataclass(slots=True, unsafe_hash=True)``), not a frozen one, which
would pay one ``object.__setattr__`` per field.  Equality is
class-strict and over the fields (``Compute(3) != WaitUntil(3)``), and
equal instructions hash equal.  The interpreter reads an instruction
once, when it is yielded, and the library never mutates one; the
field-less ``Recv``, ``TryRecv`` and ``Linger`` have no attribute that
can be set at all.

Timing semantics (integer steps; see paper Section 2.2):

``Compute(n)``
    The processor is busy for ``n`` steps.  Result: ``None``.

``Send(dest, payload)``
    Preparation costs ``o`` busy steps and ends with the *submission* of
    the message.  Consecutive submissions by the same processor are at
    least ``G`` apart (the processor idle-waits if it issues sends faster;
    interleave ``Compute`` to use that time).  Between submission and
    *acceptance* the processor **stalls**; acceptance is governed by the
    capacity constraint and the stalling rule in
    :mod:`repro.logp.network`.  Result: the acceptance time.

``Recv()``
    Acquires the earliest-delivered buffered message.  Acquisition starts
    no earlier than ``G`` after the previous acquisition and costs ``o``
    busy steps; blocks while the buffer is empty.  Result: the
    :class:`~repro.models.message.Message`.

``TryRecv()``
    If a message is already deliverable under the gap constraint, behaves
    like ``Recv``; otherwise costs one step and results in ``None``
    (polling is not free — this also guarantees simulation progress).

``WaitUntil(t)``
    Idle until absolute time ``t`` (no-op if already past).  Used by
    schedule-driven algorithms such as the slotted CB tree for
    ``ceil(L/G) = 1``.  Result: ``None``.

``Linger()``
    Like ``Recv``, but instead of deadlocking when no message can ever
    arrive, results in ``None`` once the whole machine is quiescent
    (every other processor finished or lingering, nothing in flight).
    This is the graceful-drain primitive the resilient protocol layer
    (:mod:`repro.faults.protocol`) uses to keep re-acknowledging
    retransmissions after its own work is done, without having to guess
    a timeout for distributed termination.  Result: a
    :class:`~repro.models.message.Message` or ``None`` (quiescent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.errors import ProgramError

__all__ = [
    "Compute",
    "Send",
    "Recv",
    "TryRecv",
    "WaitUntil",
    "Linger",
    "LogPContext",
    "LogPProgram",
]


@dataclass(slots=True, unsafe_hash=True)
class Compute:
    """Occupy the processor for ``ops`` steps of local work."""

    ops: int

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ProgramError(f"Compute requires ops >= 0, got {self.ops}")


@dataclass(slots=True, unsafe_hash=True)
class Send:
    """Prepare (cost ``o``) and submit one message to ``dest``.

    ``size`` (in words, >= 1) matters only on LogGP machines
    (``Gb > 0``): preparing a ``size``-word message costs
    ``o + (size - 1) * Gb`` at the sender, and acquiring it the same at
    the receiver.  Classic LogP ignores it.
    """

    dest: int
    payload: Any = None
    tag: int = 0
    size: int = 1

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ProgramError(f"Send requires size >= 1, got {self.size}")


@dataclass(slots=True, unsafe_hash=True)
class Recv:
    """Acquire (cost ``o``) the earliest buffered message; blocks if none."""


@dataclass(slots=True, unsafe_hash=True)
class TryRecv:
    """Non-blocking receive; one step if nothing is acquirable."""


@dataclass(slots=True, unsafe_hash=True)
class WaitUntil:
    """Idle until absolute time ``time``."""

    time: int


@dataclass(slots=True, unsafe_hash=True)
class Linger:
    """Receive if anything arrives; resolve to ``None`` at quiescence."""


Instruction = Compute | Send | Recv | TryRecv | WaitUntil | Linger
LogPProgram = Callable[["LogPContext"], Generator[Instruction, Any, Any]]


class LogPContext:
    """Per-processor view of the machine, passed to the program generator.

    Attributes
    ----------
    pid, p:
        This processor's index and the machine size.
    params:
        The machine's :class:`~repro.models.params.LogPParams`.
    clock:
        The processor's local time, updated by the machine before every
        resume.  All clocks run at the same speed (global time).
    """

    __slots__ = ("pid", "p", "params", "clock", "_stash")

    def __init__(self, pid: int, p: int, params) -> None:
        self.pid = pid
        self.p = p
        self.params = params
        self.clock = 0
        # Program-level holding area for messages acquired but not yet
        # consumed by tag-dispatch helpers (see logp.collectives.recv_match).
        self._stash: list = []

    def __repr__(self) -> str:
        return f"LogPContext(pid={self.pid}, p={self.p}, clock={self.clock})"
