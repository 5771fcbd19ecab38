"""Wire-level fault injection from a seeded :class:`~repro.faults.plan.FaultPlan`.

The same plan object that drives the simulators' ``FaultyMedium`` drives
the real socket backend, and it draws from the *same* per-link RNG
streams (``derive_seed(seed, "link", src, dest)``, one draw per
transmission in link order) — so one seed names one fault scenario in
both worlds, which is what makes a chaos test reproducible and what S3's
determinism test asserts.

Placement.  All message-fault draws happen supervisor-side (workers stay
numpy-free and the draw order stays single-threaded per link): the
supervisor consults :meth:`WireFaults.send_fate` from the per-worker
channel pump thread for every physical transmission of a ``deliver``
frame.  A dropped transmission is simply not written; the reliable
channel's retransmit timer fires and the retransmission — a *new*
transmission on the link — draws a fresh fate, exactly the semantics
:mod:`repro.faults.plan` documents for the simulator.  Duplicates are
written twice (the receive-side seq dedup must absorb the ghost), and
delays hold the frame for ``extra_delay * delay_unit_s`` wall-clock
seconds.

Crash faults map to real deaths: ``plan.crash[pid] = s`` becomes a kill
directive shipped to worker ``pid``'s first incarnation, which SIGKILLs
itself at the start of superstep ``s`` — no atexit, no flush, the real
thing the supervisor must recover from.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.errors import ParameterError
from repro.faults.plan import ActiveFaults, FaultPlan, MessageFate
from repro.models.message import Message
from repro.models.params import as_int

__all__ = ["WIRE_FAULT_KEYS", "WireFaults", "preview_fates", "wire_fault_plan"]

#: The fault keys a real-process run accepts: the three rates the wire
#: injector applies, the delay bound, and ``kill`` crash directives.
WIRE_FAULT_KEYS = ("drop", "dup", "delay", "max_extra_delay", "kill")


def wire_fault_plan(faults: Mapping, seed: int = 0) -> FaultPlan | None:
    """The :class:`FaultPlan` for one real-process run, or ``None``.

    ``faults`` maps :data:`WIRE_FAULT_KEYS` to values: ``drop``/``dup``/
    ``delay`` are per-transmission rates, ``max_extra_delay`` bounds a
    delay (5 when a delay rate is set without it), and ``kill`` is one
    ``"PID:SUPERSTEP"`` string or a list of them.  Any other key — a
    rate the injector would never apply, such as ``reorder`` — raises
    :class:`~repro.errors.ParameterError`, as does a malformed value.
    """
    unknown = sorted(set(faults) - set(WIRE_FAULT_KEYS))
    if unknown:
        raise ParameterError(
            f"unknown wire fault(s) {unknown} (known: {', '.join(WIRE_FAULT_KEYS)})"
        )
    rates = {}
    for key in ("drop", "dup", "delay"):
        value = faults.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterError(f"wire fault {key} must be a rate, got {value!r}")
        rates[f"{key}_rate"] = float(value)
    bound = as_int("wire fault max_extra_delay", faults.get("max_extra_delay", 5))
    if rates["delay_rate"]:
        rates["max_extra_delay"] = bound
    kills = faults.get("kill") or ()
    crash = {}
    for kill in [kills] if isinstance(kills, str) else kills:
        pid, colon, step = str(kill).partition(":")
        if not (colon and pid.isdigit() and step.isdigit()):
            raise ParameterError(f"kill expects PID:SUPERSTEP, got {kill!r}")
        crash[int(pid)] = int(step)
    if not crash and not any(rates.values()):
        return None
    return FaultPlan(seed=seed, crash=crash or None, **rates)


class WireFaults:
    """Per-run wire-fault state shared by the supervisor's channels.

    Thread safety: fates may be requested from several channel pump
    threads; a single lock serialises the draws.  Per-link determinism
    holds because all ``deliver`` transmissions for a link ``(src,
    dest)`` happen on ``dest``'s single pump thread, so each link's
    stream is consumed in that link's transmission order regardless of
    cross-link interleaving.
    """

    def __init__(self, plan: FaultPlan | None) -> None:
        self.plan = plan
        self.active: ActiveFaults | None = plan.activate() if plan is not None else None
        self._lock = threading.Lock()
        #: (kind, src, dest, uid) for every injected wire fault.
        self.events: list[tuple[str, int, int, str]] = []

    @property
    def enabled(self) -> bool:
        return self.active is not None and self.plan.message_faults

    def send_fate(self, frame: dict) -> MessageFate | None:
        """Fate for one physical transmission of an app-message frame.

        ``frame`` must carry ``src``/``dest`` (worker pids) and ``uid``.
        Returns ``None`` when no plan is active (the channel skips all
        fault bookkeeping on ``None``).
        """
        if not self.enabled:
            return None
        with self._lock:
            fate = self.active.fate(
                Message(src=frame["src"], dest=frame["dest"], payload=None, size=1)
            )
            if not fate.clean:
                uid = str(frame.get("uid", "?"))
                if fate.drop:
                    self.events.append(("drop", frame["src"], frame["dest"], uid))
                if fate.duplicate:
                    self.events.append(("dup", frame["src"], frame["dest"], uid))
                if fate.extra_delay:
                    self.events.append(("delay", frame["src"], frame["dest"], uid))
        return fate

    def kill_directive(self, pid: int) -> int | None:
        """Superstep at which worker ``pid``'s first incarnation should
        SIGKILL itself, or ``None``."""
        if self.plan is None or self.plan.crash is None:
            return None
        return self.plan.crash.get(pid)

    def summary(self) -> dict[str, int]:
        counts = {"drop": 0, "dup": 0, "delay": 0}
        for kind, _s, _d, _u in self.events:
            counts[kind] += 1
        return counts


def preview_fates(plan: FaultPlan, src: int, dest: int, n: int) -> list[MessageFate]:
    """The first ``n`` fates link ``(src, dest)`` will deal under ``plan``.

    Pure function of ``(plan, src, dest)`` — a fresh activation draws
    from the rewound per-link stream, so this is exactly the sequence
    both the simulator's medium and :class:`WireFaults` consume.  Used
    by the cross-backend determinism tests and handy for sizing a chaos
    scenario before running it.
    """
    active = plan.activate()
    return [
        active.fate(Message(src=src, dest=dest, payload=None, size=1))
        for _ in range(n)
    ]
