"""The message value type shared by both machine models.

Both BSP and LogP move fixed-size messages (the paper's unit of
communication); a message carries an opaque payload plus addressing
metadata.

Every simulated message is one :class:`Message`, so its construction
sits on the hot path of every machine and cross-simulation.  It is
therefore an immutable ``tuple`` of six slots, ``(src, dest, payload,
tag, size, uid)``, with named read-only fields: building one is a
single ``tuple.__new__`` call, where a frozen dataclass paid one
``object.__setattr__`` per field.  Being immutable, messages can be
aliased freely by traces, inboxes and fault logs.

The uid contract
----------------

* ``uid`` is drawn eagerly, at construction, from one process-wide
  counter, so no two messages built in a process share it.
  :meth:`Message.redirect` builds a new message and draws a new uid.
* ``copy.copy``, ``copy.deepcopy`` and ``pickle`` keep the uid: a copy
  is the same message.  No other path builds a message with a given
  uid (there is no ``_replace`` or ``_make``).
* Equality, hashing and ``repr`` cover the five body fields only.  A
  message never equals a plain tuple, in either order, and messages are
  not ordered.

A ``Message`` is a ``tuple``, so ``json`` would encode it as a list that
includes the uid; no result row, record or digest holds one.
"""

from __future__ import annotations

# namedtuple's field descriptor (a C accessor): a read costs about what
# an instance attribute read does.
from collections import _tuplegetter
from itertools import count
from typing import Any

__all__ = ["Message"]

_serial = count()
_next_uid = _serial.__next__
_tuple_new = tuple.__new__


class Message(tuple):
    """A single fixed-size message.

    Construct it as ``Message(src, dest, payload=None, tag=0, size=1)``,
    positionally or by keyword; the hot call sites pass fields
    positionally, which is the cheaper call.

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

    __slots__ = ()

    def __new__(
        cls, src: int, dest: int, payload: Any = None, tag: int = 0, size: int = 1
    ) -> "Message":
        return _tuple_new(cls, (src, dest, payload, tag, size, _next_uid()))

    src = _tuplegetter(0, "Index of the originating processor.")
    dest = _tuplegetter(1, "Index of the destination processor.")
    payload = _tuplegetter(2, "Opaque application data.")
    tag = _tuplegetter(3, "Protocol-phase namespace.")
    size = _tuplegetter(4, "Length in words.")
    uid = _tuplegetter(5, "Process-wide unique id; not part of equality.")

    def redirect(self, new_dest: int) -> "Message":
        """Copy of this message with a different destination.

        Used by store-and-forward relaying (a relay re-sends the original
        message body toward its true destination).
        """
        return Message(self.src, new_dest, self.payload, self.tag, self.size)

    # Value semantics over the body; a non-Message gets an answer, not
    # NotImplemented, or tuple's reflected comparison would match a
    # plain tuple holding the same fields.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(self[:5])

    def _unordered(self, other: object):
        raise TypeError("messages are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        # Rebuild from all six slots, so copies and unpickled messages
        # keep their uid (``Message.__new__`` would draw a new one).
        return _tuple_new, (Message, tuple(self))

    def __repr__(self) -> str:  # compact for traces
        return f"Msg({self.src}->{self.dest}, tag={self.tag}, payload={self.payload!r})"
