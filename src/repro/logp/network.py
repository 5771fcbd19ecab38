"""The LogP communication medium: capacity constraint and stalling rule.

The medium tracks, per destination ``d``:

* ``in_transit[d]`` — messages accepted but not yet delivered; the
  capacity constraint requires ``in_transit[d] <= C = ceil(L/G)`` at all
  times,
* ``pending[d]`` — submissions not yet accepted (their senders are
  *stalling*),
* the set of occupied delivery steps (the medium delivers at most one
  message per destination per step — see the paper's ``G >= 2``
  discussion).

**Stalling rule** (paper Section 2, formalized): at any time ``t``, with
``s = C - in_transit[d]`` free slots and ``k = len(pending[d])``,
``min{k, s}`` pending submissions are accepted; the acceptance *order* is
unspecified and is delegated to an :class:`~repro.logp.scheduler.AcceptancePolicy`.

Event-driven realization: acceptances can only become possible when (a) a
new submission arrives, or (b) a delivery frees a slot; the machine calls
:meth:`Medium.submit` and :meth:`Medium.on_delivered` at exactly those
moments, and the rule above is enforced at each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import CapacityViolationError
from repro.models.message import Message
from repro.models.params import LogPParams
from repro.logp.scheduler import AcceptancePolicy, DeliveryScheduler

__all__ = ["Medium", "StallRecord"]


@dataclass(frozen=True)
class StallRecord:
    """One stall episode: sender blocked from ``submit_time`` to
    ``accept_time`` waiting for destination ``dest``."""

    sender: int
    dest: int
    submit_time: int
    accept_time: int

    @property
    def duration(self) -> int:
        return self.accept_time - self.submit_time


class Medium:
    """The communication medium of a ``p``-processor LogP machine.

    Parameters
    ----------
    params:
        Machine parameters (provides ``L`` and the capacity ``C``).
    delivery:
        Policy choosing in-network delays.
    acceptance:
        Policy choosing the acceptance order under congestion.
    on_accept:
        Machine callback ``(sender, accept_time)`` fired when a *pending*
        (stalled) submission is accepted, so the machine can resume the
        sender.  Immediate acceptances return directly from :meth:`submit`.
    on_schedule_delivery:
        Machine callback ``(msg, deliver_time)`` to enqueue the delivery
        event.
    """

    def __init__(
        self,
        params: LogPParams,
        delivery: DeliveryScheduler,
        acceptance: AcceptancePolicy,
        on_accept: Callable[[int, int], None],
        on_schedule_delivery: Callable[[Message, int], None],
    ) -> None:
        self.params = params
        self.capacity = params.capacity
        self.delivery = delivery
        self.acceptance = acceptance
        self._on_accept = on_accept
        self._on_schedule = on_schedule_delivery
        p = params.p
        self.in_transit: list[int] = [0] * p
        # pending[d]: list of (submit_time, seq, sender, msg)
        self.pending: list[list[tuple[int, int, int, Message]]] = [[] for _ in range(p)]
        self._occupied: list[set[int]] = [set() for _ in range(p)]
        self._seq = 0
        self.stalls: list[StallRecord] = []
        self.total_accepted = 0
        # A subclass that reshapes acceptance (the fault injector) keeps
        # the general path; the base medium accepts in one call.
        cls = type(self)
        self._inline_accept = (
            cls._accept is Medium._accept
            and cls._pick_delivery_step is Medium._pick_delivery_step
        )

    # ------------------------------------------------------------------

    def submit(self, sender: int, msg: Message, t: int) -> int | None:
        """Register a submission at time ``t``.

        Returns the acceptance time (== ``t``) if the message is accepted
        immediately, else ``None`` (the sender is now stalling and will be
        resumed through the ``on_accept`` callback).
        """
        d = msg.dest
        in_transit = self.in_transit
        if self.pending[d] or in_transit[d] >= self.capacity:
            self._seq += 1
            self.pending[d].append((t, self._seq, sender, msg))
            return None
        if not self._inline_accept:
            self._accept(sender, msg, t, stalled_since=None)
            return t
        # What `_accept` and `_pick_delivery_step` do, in one call (the
        # two must stay in step).  The count is below capacity, so taking
        # a slot cannot overflow it.
        in_transit[d] += 1
        self.total_accepted += 1
        L = self.params.L
        delay = int(self.delivery.propose_delay(msg, t, L))
        if delay < 1:
            delay = 1
        elif delay > L:
            delay = L
        step = t + delay
        occupied = self._occupied[d]
        if step in occupied:
            step = self._free_step(d, step, t, t + L)
        occupied.add(step)
        self._on_schedule(msg, step)
        return t

    def on_delivered(self, msg: Message, t: int) -> None:
        """A delivery to ``msg.dest`` completed at time ``t``: free the
        slot and apply the stalling rule (accept ``min{k, s}`` pending)."""
        d = msg.dest
        self.in_transit[d] -= 1
        if self.in_transit[d] < 0:
            raise CapacityViolationError(f"negative in-transit count at {d}")
        self._occupied[d].discard(t)
        if self.pending[d]:
            self._drain_pending(d, t)

    def _drain_pending(self, d: int, t: int) -> None:
        """Accept as many pending submissions for ``d`` as slots allow."""
        while self.pending[d] and self.in_transit[d] < self.capacity:
            idx = self.acceptance.choose(self.pending[d], t)
            submit_time, _seq, sender, msg = self.pending[d].pop(idx)
            self.stalls.append(
                StallRecord(sender=sender, dest=d, submit_time=submit_time, accept_time=t)
            )
            self._accept(sender, msg, t, stalled_since=submit_time)

    def _accept(self, sender: int, msg: Message, t: int, stalled_since: int | None) -> None:
        """Accept ``msg`` at time ``t``: occupy a slot, pick a delivery
        step, schedule the delivery, and (if the sender was stalling)
        notify the machine."""
        d = msg.dest
        self.in_transit[d] += 1
        if self.in_transit[d] > self.capacity:
            raise CapacityViolationError(
                f"in-transit count {self.in_transit[d]} exceeds capacity "
                f"{self.capacity} at destination {d}"
            )
        self.total_accepted += 1
        deliver = self._pick_delivery_step(msg, t)
        self._occupied[d].add(deliver)
        self._on_schedule(msg, deliver)
        if stalled_since is not None:
            self._on_accept(sender, t)

    def _pick_delivery_step(self, msg: Message, t_acc: int) -> int:
        """Choose the delivery step in ``(t_acc, t_acc + L]``.

        The policy proposes a delay; collisions (one delivery per
        destination per step) are resolved to the nearest later free step,
        wrapping to earlier free steps if the window's tail is full.  A
        free step always exists: at most ``C - 1`` other messages are in
        transit to ``msg.dest`` and all of their delivery steps lie in
        ``(t_acc, t_acc + L]`` (earlier deliveries already happened),
        while the window has ``L >= C`` steps.
        """
        L = self.params.L
        delay = int(self.delivery.propose_delay(msg, t_acc, L))
        if delay < 1:
            delay = 1
        elif delay > L:
            delay = L
        return self._free_step(msg.dest, t_acc + delay, t_acc, t_acc + L)

    def _free_step(
        self, d: int, preferred: int, lo: int, hi: int, *, overflow: bool = False
    ) -> int:
        """Nearest step >= ``preferred`` (then < preferred, > ``lo``) with
        no delivery to ``d`` scheduled.  With ``overflow=True`` the search
        continues past ``hi`` instead of failing — used only by the fault
        injector, whose extra-delay faults deliberately leave the model's
        ``(t_acc, t_acc + L]`` window."""
        occupied = self._occupied[d]
        for step in range(preferred, hi + 1):
            if step not in occupied:
                return step
        for step in range(min(preferred, hi + 1) - 1, lo, -1):
            if step not in occupied:
                return step
        if overflow:
            step = hi + 1
            while step in occupied:
                step += 1
            return step
        raise CapacityViolationError(
            f"no free delivery step for destination {d} in ({lo}, {hi}]"
        )

    def deliverable(self, msg: Message) -> bool:
        """Whether a delivery event for ``msg`` should reach the processor
        buffer.  The base medium delivers everything; the fault injector's
        :class:`~repro.faults.medium.FaultyMedium` returns ``False`` for
        messages its plan drops (the engine still frees the capacity slot
        via :meth:`on_delivered`)."""
        return True

    # ------------------------------------------------------------------

    @property
    def quiescent(self) -> bool:
        """True when nothing is in transit or pending anywhere."""
        return all(c == 0 for c in self.in_transit) and all(
            not q for q in self.pending
        )

    def pending_count(self) -> int:
        return sum(len(q) for q in self.pending)
