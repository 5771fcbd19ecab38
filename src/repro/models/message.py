"""The message value type shared by both machine models.

Both BSP and LogP move fixed-size messages (the paper's unit of
communication); a message carries an opaque payload plus addressing
metadata.  Messages are immutable so that traces can safely alias them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

__all__ = ["Message"]

_serial = count()


@dataclass(frozen=True)
class Message:
    """A single fixed-size message.

    Attributes
    ----------
    src:
        Index of the originating processor.
    dest:
        Index of the destination processor.  The deterministic routing
        protocol of Section 4.2 additionally uses the out-of-range
        destination ``p`` for *dummy* messages; machines reject such
        destinations, the protocol strips dummies before final delivery.
    payload:
        Opaque application data.
    tag:
        Small integer namespace so that independent protocol phases
        (e.g. CB traffic vs. payload routing) can share a machine without
        confusing each other's messages.
    size:
        Length in words (>= 1); only meaningful on LogGP machines.
    uid:
        Process-wide unique id, drawn eagerly at construction (copies
        made by :meth:`redirect` draw a fresh one).  Traces refer to
        messages by it, and :class:`~repro.faults.medium.FaultyMedium`
        keys each message's fate, drops and duplicate ghosts by it, so a
        lossy run is correct only because no two messages share a uid.
        It takes no part in equality.
    """

    src: int
    dest: int
    payload: Any = None
    tag: int = 0
    size: int = 1
    uid: int = field(default_factory=_serial.__next__, compare=False)

    def redirect(self, new_dest: int) -> "Message":
        """Copy of this message with a different destination.

        Used by store-and-forward relaying (a relay re-sends the original
        message body toward its true destination).
        """
        return Message(
            src=self.src, dest=new_dest, payload=self.payload, tag=self.tag, size=self.size
        )

    def __repr__(self) -> str:  # compact for traces
        return f"Msg({self.src}->{self.dest}, tag={self.tag}, payload={self.payload!r})"
