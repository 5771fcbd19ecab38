"""BSP program API: instructions and the per-processor context.

A BSP program is a generator function ``prog(ctx)`` run once per processor.
During a superstep's *local computation phase* the generator may:

* read the messages delivered at the start of the superstep via
  ``ctx.inbox`` / ``ctx.recv_all()`` (extractions from the input pool),
* ``yield Compute(n)`` to account for ``n`` local operations,
* ``yield Send(dest, payload)`` to insert a message into the output pool,
* ``yield Sync()`` to end its local phase.

After every processor has yielded ``Sync()`` (or finished), the machine
performs the communication phase and the barrier, charges ``w + g*h + l``,
and resumes the generators with fresh inboxes.  Input pools are *discarded*
at each superstep boundary, exactly as prescribed by the paper: a message
not extracted during the superstep after its delivery is gone.

The generator's ``return`` value becomes the processor's result.
Instructions are matched by exact type: an instance of a subclass of an
instruction is not an instruction, and the machine rejects it with a
:class:`~repro.errors.ProgramError`.

Instructions are plain values, one per simulated operation, so they are
built cheaply: each class is a slotted dataclass
(``@dataclass(slots=True, unsafe_hash=True)``), not a frozen one, which
would pay one ``object.__setattr__`` per field.  Equality is
class-strict and over the fields (a BSP ``Send`` never equals a LogP
one), and equal instructions hash equal.  The machine reads an
instruction once, when it is yielded, and the library never mutates
one; the field-less ``Sync`` has no attribute that can be set at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.errors import ProgramError
from repro.models.message import Message

__all__ = ["Compute", "Send", "Sync", "BSPContext", "BSPProgram", "Instruction"]


@dataclass(slots=True, unsafe_hash=True)
class Compute:
    """Account for ``ops`` local operations in the current superstep."""

    ops: int

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise ProgramError(f"Compute requires ops >= 0, got {self.ops}")


@dataclass(slots=True, unsafe_hash=True)
class Send:
    """Insert one message into the output pool.

    The message is transferred during the communication phase at the end
    of the current superstep and becomes readable by ``dest`` at the start
    of the next superstep.
    """

    dest: int
    payload: Any = None
    tag: int = 0


@dataclass(slots=True, unsafe_hash=True)
class Sync:
    """End the local computation phase of the current superstep."""


Instruction = Compute | Send | Sync
BSPProgram = Callable[["BSPContext"], Generator[Instruction, None, Any]]


class BSPContext:
    """Per-processor view of the machine, passed to the program generator.

    Attributes
    ----------
    pid:
        This processor's index in ``[0, p)``.
    p:
        Number of processors.
    superstep:
        Index of the current superstep (0-based), maintained by the machine.
    """

    __slots__ = ("pid", "p", "superstep", "_inbox")

    def __init__(self, pid: int, p: int) -> None:
        self.pid = pid
        self.p = p
        self.superstep = 0
        self._inbox: list[Message] = []

    @property
    def inbox(self) -> list[Message]:
        """Messages delivered at the start of the current superstep.

        The list is private to this processor; programs may consume it
        destructively.  It is replaced (previous contents discarded) at
        every superstep boundary.
        """
        return self._inbox

    def recv_all(self, tag: int | None = None) -> list[Message]:
        """Extract and return all inbox messages (optionally only ``tag``).

        Extracted messages are removed from the inbox.
        """
        if tag is None:
            out, self._inbox = self._inbox, []
            return out
        out = [m for m in self._inbox if m.tag == tag]
        self._inbox = [m for m in self._inbox if m.tag != tag]
        return out

    def recv_payloads(self, tag: int | None = None) -> list[Any]:
        """Like :meth:`recv_all` but returns only the payloads."""
        return [m.payload for m in self.recv_all(tag)]

    # -- machine-side hooks -------------------------------------------------

    def _begin_superstep(self, index: int, delivered: list[Message]) -> None:
        """Replace the input pool (discarding leftovers) for superstep
        ``index``.  Called by the machine only."""
        self.superstep = index
        self._inbox = delivered
