"""Event-driven LogP machine engine.

Drives one generator coroutine per processor under the timing semantics
documented in :mod:`repro.logp.instructions`, with the communication
medium of :mod:`repro.logp.network` enforcing the capacity constraint and
the stalling rule.

Event ordering within a time step: deliveries are processed before
submissions, which are processed before processor resumptions.  This makes
the stalling rule's "messages in transit at time t" well defined — a
message delivered at ``t`` is no longer in transit at ``t``.

The drive loop itself — queue construction, fault activation, the
``max_events`` guard, quiescence release, layer-labelled diagnostics —
is the shared :class:`~repro.engine.core.Engine`; this module supplies
only the LogP *dispatch* (the model semantics for deliver/submit/resume
events).  The engine is generic over the event queue (``kernel=``): the
production ``"event"`` kernel skips ahead to the next actionable
timestamp and drains it as one batch, while the ``"tick"`` kernel is the
per-tick scanning reference whose event order — and therefore every
simulated clock, message order, and cost ledger — is identical by
construction (see :mod:`repro.perf.event_queue` and ``docs/PERF.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.engine.core import Engine, coerce_programs, spawn_generator
from repro.engine.result import MachineResult, TraceEvent
from repro.errors import (
    InvariantViolationError,
    ProgramError,
    SimulationLimitError,
    StallError,
)
from repro.faults.medium import FaultyMedium
from repro.faults.plan import CRASHED, FaultLog, FaultPlan
from repro.models.message import Message
from repro.models.params import LogPParams
from repro.logp.instructions import (
    Compute,
    Linger,
    LogPContext,
    LogPProgram,
    Recv,
    Send,
    TryRecv,
    WaitUntil,
)
from repro.logp.network import Medium, StallRecord
from repro.perf.counters import KernelCounters
from repro.logp.scheduler import (
    AcceptancePolicy,
    AcceptFIFO,
    DeliverMaxLatency,
    DeliveryScheduler,
)
from repro.logp.trace import Trace

__all__ = ["LogPMachine", "LogPResult"]

# Event kinds, in intra-step processing order (crashes take effect before
# anything else that happens at the same step).
_EV_CRASH = -1
_EV_DELIVER = 0
_EV_SUBMIT = 1
_EV_RESUME = 2

_IDLE = 0
_RUNNING = 1
_BLOCKED_RECV = 2
_STALLING = 3
_DONE = 4
_LINGERING = 5

#: A resume event's data is the value its generator is resumed with (the
#: acceptance time after a Send, the acquired Message after a receive,
#: None otherwise), except for a deferred TryRecv poll, which carries
#: this sentinel instead.
_TRYRECV = object()

_STATE_NAMES = {
    _IDLE: "idle",
    _RUNNING: "running",
    _BLOCKED_RECV: "blocked-recv",
    _STALLING: "stalling",
    _DONE: "done",
    _LINGERING: "lingering",
}


@dataclass
class _Proc:
    """Engine-internal processor record."""

    pid: int
    gen: Generator
    ctx: LogPContext
    clock: int = 0
    last_submit: int | None = None
    last_acquire: int | None = None
    state: int = _RUNNING
    # Slow-clock fault: every local busy step takes `scale` steps.
    scale: int = 1
    # Delivered-but-not-acquired messages, FIFO by delivery time.
    buffer: list[tuple[int, Message]] = field(default_factory=list)
    buf_head: int = 0
    buffer_highwater: int = 0
    pending_send: Message | None = None
    result: Any = None

    def buffered(self) -> int:
        return len(self.buffer) - self.buf_head


@dataclass
class LogPResult(MachineResult):
    """Outcome of a LogP run.

    Attributes
    ----------
    results:
        Per-processor generator return values.
    makespan:
        Time at which the last processor finished (the LogP running time).
    stalls:
        Every stall episode (empty iff the execution was stall-free).
    buffer_highwater:
        Per-processor maximum of delivered-but-unacquired messages, used
        by the Section 2.2 buffer-growth experiment.
    total_messages:
        Number of messages accepted by the medium over the run.
    trace:
        Full event trace when the machine was created with
        ``record_trace=True``, else ``None``.
    fault_log:
        Ledger of every fault the run's :class:`~repro.faults.plan.FaultPlan`
        actually injected (``None`` for a fault-free machine).
    kernel:
        :class:`~repro.perf.counters.KernelCounters` for the run: machine
        events processed, distinct timestamps batched, clock ticks the
        kernel skipped, and the event queue's high-water mark.
    """

    params: LogPParams
    results: list[Any]
    makespan: int
    stalls: list[StallRecord]
    buffer_highwater: list[int]
    total_messages: int
    trace: Trace | None = None
    fault_log: "FaultLog | None" = None
    kernel: KernelCounters = field(default_factory=KernelCounters)

    row_fields = ("makespan", "total_messages", "total_stall_time", "buffer_highwater")

    def trace_events(self) -> list[TraceEvent]:
        """The recorded trace in the shared cross-layer vocabulary."""
        if self.trace is None:
            return []
        events = [
            TraceEvent("submit", t, src, {"uid": uid})
            for t, src, uid in self.trace.submissions
        ]
        events += [
            TraceEvent("deliver", t, dest, {"uid": uid})
            for t, dest, uid in self.trace.deliveries
        ]
        events += [
            TraceEvent("acquire", t_start, pid, {"uid": uid, "end": t_end})
            for t_start, t_end, pid, uid in self.trace.acquisitions
        ]
        events.sort(key=lambda ev: ev.time)
        return events

    @property
    def stall_free(self) -> bool:
        return not self.stalls

    @property
    def total_stall_time(self) -> int:
        return sum(s.duration for s in self.stalls)

    def __repr__(self) -> str:
        return (
            f"LogPResult(p={self.params.p}, makespan={self.makespan}, "
            f"messages={self.total_messages}, stalls={len(self.stalls)})"
        )


class LogPMachine:
    """A ``p``-processor LogP machine.

    Parameters
    ----------
    params:
        The machine's :class:`~repro.models.params.LogPParams`.
    delivery, acceptance:
        Nondeterminism policies (defaults: worst-case latency, FIFO
        acceptance).
    forbid_stalling:
        Raise :class:`~repro.errors.StallError` on the first stall.  Used
        when running constructions that are proven stall-free.
    record_trace:
        Record a full event trace (see :mod:`repro.logp.trace`).
    faults:
        A :class:`~repro.faults.plan.FaultPlan`: run over a misbehaving
        substrate (message drop/duplicate/extra-delay/reorder via a
        :class:`~repro.faults.medium.FaultyMedium`, plus crash-stop and
        slow-clock processors).  ``None`` (default) is the pristine
        medium of the paper.
    check_invariants:
        After the run, verify the execution trace against the model
        invariants (message conservation, monotone clocks, capacity
        compliance, buffer high-water consistency — see
        :mod:`repro.faults.invariants`) and raise
        :class:`~repro.errors.InvariantViolationError` on any violation.
        Implies trace recording internally; ``result.trace`` is still
        only populated when ``record_trace=True``.
    kernel:
        Event-queue implementation: ``"event"`` (default; indexed queue
        with skip-ahead and per-timestamp batches) or ``"tick"`` (the
        per-tick scanning reference kernel).  Both produce bit-identical
        executions; ``"tick"`` exists as the equivalence oracle and the
        benchmark baseline.
    layer:
        Name of this machine's position in a simulation stack (e.g.
        ``"guest BSP on host LogP"``).  Deadlock and limit diagnostics
        are prefixed with it, so errors escaping nested engines identify
        their owner.
    obs:
        Optional :class:`~repro.obs.Observation`.  The run's metrics
        (makespan, messages, stalls, kernel work, faults) are published
        under this machine's ``layer`` label; with ``obs.trace`` on, the
        machine records its event trace internally (exactly the
        ``check_invariants`` mechanism, which the golden-trace suite
        proves changes no execution) and emits per-processor
        submit/acquire/stall spans plus one async span per message
        lifetime.  A disabled observation is normalized to ``None`` and
        the machine runs its uninstrumented path.

    Example
    -------
    >>> from repro.models.params import LogPParams
    >>> from repro.logp import LogPMachine, Send, Recv
    >>> def prog(ctx):
    ...     if ctx.pid == 0:
    ...         yield Send(1, "hi")
    ...     elif ctx.pid == 1:
    ...         msg = yield Recv()
    ...         return msg.payload
    >>> machine = LogPMachine(LogPParams(p=2, L=4, o=1, G=2))
    >>> machine.run(prog).results
    [None, 'hi']
    """

    def __init__(
        self,
        params: LogPParams,
        *,
        delivery: DeliveryScheduler | None = None,
        acceptance: AcceptancePolicy | None = None,
        forbid_stalling: bool = False,
        record_trace: bool = False,
        max_events: int = 50_000_000,
        faults: FaultPlan | None = None,
        check_invariants: bool = False,
        kernel: str = "event",
        layer: str = "LogP",
        obs: Any | None = None,
    ) -> None:
        self.params = params
        self.delivery = delivery if delivery is not None else DeliverMaxLatency()
        self.acceptance = acceptance if acceptance is not None else AcceptFIFO()
        self.forbid_stalling = forbid_stalling
        self.record_trace = record_trace
        self.max_events = max_events
        self.faults = faults
        self.check_invariants = check_invariants
        self.kernel = kernel
        self.layer = layer
        self.obs = obs if (obs is not None and obs.enabled) else None

    # ------------------------------------------------------------------

    def run(self, program: LogPProgram | Sequence[LogPProgram]) -> LogPResult:
        """Run ``program`` on every processor (or one per processor when a
        length-``p`` sequence is given) to completion."""
        p = self.params.p
        programs = coerce_programs(program, p)

        engine = Engine(
            kernel=self.kernel,
            p=p,
            max_events=self.max_events,
            layer=self.layer,
            faults=self.faults,
            obs=self.obs,
        )
        active = engine.active

        procs: list[_Proc] = []
        for pid in range(p):
            ctx = LogPContext(pid, p, self.params)
            gen = spawn_generator(programs[pid], ctx, pid, model="LogP")
            scale = active.clock_scale(pid) if active is not None else 1
            procs.append(_Proc(pid=pid, gen=gen, ctx=ctx, scale=scale))

        want_trace = (
            self.record_trace
            or self.check_invariants
            or (self.obs is not None and self.obs.tracing)
        )
        trace = Trace(self.params) if want_trace else None
        queue = engine.queue
        push = engine.push

        def schedule_delivery(msg: Message, t: int) -> None:
            push(t, _EV_DELIVER, msg.dest, msg)
            if trace is not None:
                trace.on_delivery_scheduled(msg, t)

        def on_accept_stalled(sender: int, t: int) -> None:
            # A stalled sender's submission was accepted: resume it.
            proc = procs[sender]
            proc.state = _RUNNING
            push(t, _EV_RESUME, sender, t)
            if self.forbid_stalling:
                raise StallError(
                    f"processor {sender} stalled until t={t} "
                    f"(forbid_stalling=True)"
                )

        if active is not None:
            medium: Medium = FaultyMedium(
                self.params,
                delivery=self.delivery,
                acceptance=self.acceptance,
                on_accept=on_accept_stalled,
                on_schedule_delivery=schedule_delivery,
                faults=active,
            )
        else:
            medium = Medium(
                self.params,
                delivery=self.delivery,
                acceptance=self.acceptance,
                on_accept=on_accept_stalled,
                on_schedule_delivery=schedule_delivery,
            )

        for pid in range(p):
            push(0, _EV_RESUME, pid, None)
        if active is not None:
            for pid in range(p):
                t_crash = active.crash_time(pid)
                if t_crash is not None:
                    push(t_crash, _EV_CRASH, pid, None)

        makespan = 0

        def dispatch(time: int, kind: int, pid: int, data: Any) -> None:
            """LogP model semantics for one popped event.  The intra-step
            phase order (crash < deliver < submit < resume) is encoded in
            the event-kind numbering; the engine's queue delivers it."""
            nonlocal makespan
            proc = procs[pid]
            if kind == _EV_RESUME:
                if proc.state == _DONE:
                    return
                if data is _TRYRECV:
                    # Deferred poll: the processor's clock ran ahead of
                    # event time; now (time == clock) the buffer reflects
                    # every delivery up to it.
                    if not self._start_acquire(proc, time, push, trace):
                        proc.clock += 1
                        proc.state = _IDLE
                        push(proc.clock, _EV_RESUME, pid, None)
                    return
                if time > proc.clock:
                    proc.clock = time
                if proc.clock > makespan:
                    makespan = proc.clock
                self._step(proc, data, push, trace, time)
                if proc.clock > makespan:
                    makespan = proc.clock
            elif kind == _EV_DELIVER:
                msg: Message = data
                if not medium.deliverable(msg):
                    # Dropped in flight: free the capacity slot, never
                    # buffer (the fault log already has the record).
                    medium.on_delivered(msg, time)
                    return
                buffer = proc.buffer
                buffer.append((time, msg))
                buffered = len(buffer) - proc.buf_head
                if buffered > proc.buffer_highwater:
                    proc.buffer_highwater = buffered
                if trace is not None:
                    trace.on_delivered(msg, time)
                medium.on_delivered(msg, time)
                state = proc.state
                if state == _BLOCKED_RECV or state == _LINGERING:
                    self._start_acquire(proc, time, push, trace)
            elif kind == _EV_SUBMIT:
                if proc.state == _DONE or proc.pending_send is None:
                    return  # sender crashed between prepare and submit
                msg = proc.pending_send
                proc.pending_send = None
                if trace is not None:
                    trace.on_submitted(msg, time)
                accepted_at = medium.submit(pid, msg, time)
                if accepted_at is not None:
                    proc.state = _RUNNING
                    push(accepted_at, _EV_RESUME, pid, accepted_at)
                else:
                    proc.state = _STALLING
                    if self.forbid_stalling:
                        raise StallError(
                            f"processor {pid} stalled submitting {msg!r} at t={time} "
                            f"(forbid_stalling=True)"
                        )
            else:  # _EV_CRASH
                # proc.clock > time: the engine ran the processor's
                # local computation optimistically past the crash
                # instant, so the "finish" never actually happened.
                if proc.state != _DONE or proc.clock > time:
                    proc.state = _DONE
                    proc.result = CRASHED
                    proc.pending_send = None
                    active.log.crashes.append((pid, time))

        def release_lingerers(time: int) -> bool:
            # Quiescence: nothing in flight, nobody runnable.  Release
            # lingering processors (Linger resolves to None) and keep
            # draining whatever their final actions generate.
            lingerers = [pr for pr in procs if pr.state == _LINGERING]
            if not lingerers:
                return False
            for pr in lingerers:
                pr.state = _IDLE
                push(pr.clock, _EV_RESUME, pr.pid, None)
            return True

        engine.run(dispatch, on_quiescence=release_lingerers)

        blocked = [pr.pid for pr in procs if pr.state in (_BLOCKED_RECV, _STALLING)]
        if blocked:
            raise engine.deadlock_error(
                f"simulation drained with processors {blocked} still blocked "
                f"(waiting on messages that will never arrive)",
                diagnostics=self._deadlock_diagnostics(
                    procs, medium, active, engine.last_time, queue
                ),
            )

        result_obj = LogPResult(
            params=self.params,
            results=[pr.result for pr in procs],
            makespan=makespan,
            stalls=list(medium.stalls),
            buffer_highwater=[pr.buffer_highwater for pr in procs],
            total_messages=medium.total_accepted,
            trace=trace,
            fault_log=active.log if active is not None else None,
            kernel=queue.counters,
        )
        if self.check_invariants:
            from repro.faults.invariants import check_execution

            violations = check_execution(
                result_obj, fault_log=active.log if active is not None else None
            )
            if violations:
                raise InvariantViolationError(
                    f"LogP execution violated {len(violations)} model invariant(s)",
                    violations,
                )
        if self.obs is not None:
            # Publish before the trace is stripped: the observer's spans
            # are derived from it, but result.trace stays contractual —
            # populated only under record_trace=True.
            self.obs.observe_logp(result_obj, layer=self.layer)
        if not self.record_trace:
            result_obj.trace = None
        return result_obj

    @staticmethod
    def _deadlock_diagnostics(procs, medium, active, time, queue) -> dict:
        """Snapshot machine state for a debuggable DeadlockError.

        Centered on the *event queue's view*: the queue front (the next
        pending times the kernel would skip ahead to — empty at a true
        drain deadlock) and, per destination, the submit times still
        pending in the medium, plus a compact record of only the blocked
        processors.  Skip-ahead deadlocks are diagnosed from "what would
        the kernel do next", not from a raw dump of every processor.
        """
        kind_names = {_EV_CRASH: "crash", _EV_DELIVER: "deliver",
                      _EV_SUBMIT: "submit", _EV_RESUME: "resume"}
        front = [
            {"time": ev["time"], "kind": kind_names.get(ev["kind"], str(ev["kind"])),
             "pid": ev["pid"]}
            for ev in queue.front_snapshot(8)
        ]
        return {
            "time": time,
            "kernel": queue.counters.as_dict(),
            "queue_front": front,
            "next_pending_times": {
                d: sorted(t for t, _seq, _sender, _m in q)
                for d, q in enumerate(medium.pending)
                if q
            },
            "blocked": [
                {
                    "pid": pr.pid,
                    "state": _STATE_NAMES.get(pr.state, str(pr.state)),
                    "clock": pr.clock,
                    "buffered": pr.buffered(),
                    "pending_send": pr.pending_send,
                }
                for pr in procs
                if pr.state in (_BLOCKED_RECV, _STALLING)
            ],
            "medium": {
                "in_transit": list(medium.in_transit),
                "pending": {
                    d: [(t, sender) for t, _seq, sender, _m in q]
                    for d, q in enumerate(medium.pending)
                    if q
                },
                "total_accepted": medium.total_accepted,
            },
            "faults": active.log.summary() if active is not None else None,
        }

    # ------------------------------------------------------------------

    def _step(self, proc: _Proc, send_value: Any, push, trace, now: int) -> None:
        """Advance ``proc``'s generator until it blocks on the network or
        finishes.  Compute/WaitUntil are resolved inline (they only move
        the local clock); Send/Recv hand control back to the event loop.
        Instructions are matched by exact type, most frequent first."""
        params = self.params
        pid = proc.pid
        send = proc.gen.send
        ctx = proc.ctx
        inline = 0
        while True:
            inline += 1
            if inline > self.max_events:
                raise SimulationLimitError(
                    f"[{self.layer}] processor {pid} executed more than "
                    f"max_events={self.max_events} instructions without "
                    f"touching the network (runaway local loop?)"
                )
            ctx.clock = proc.clock
            try:
                instr = send(send_value)
            except StopIteration as stop:
                proc.state = _DONE
                proc.result = stop.value
                return
            send_value = None
            cls = type(instr)
            if cls is Send:
                dest = instr.dest
                if not 0 <= dest < params.p:
                    raise ProgramError(
                        f"processor {pid} sent to invalid destination "
                        f"{dest} (p={params.p})"
                    )
                if dest == pid:
                    raise ProgramError(
                        f"processor {pid} sent to itself; LogP messages "
                        f"traverse the medium — keep local data local"
                    )
                # LogGP long messages; slow-clock faults scale local overhead.
                prep = (params.o + (instr.size - 1) * params.Gb) * proc.scale
                start = proc.clock
                last = proc.last_submit
                if last is not None and last + params.G - prep > start:
                    start = last + params.G - prep
                t_sub = start + prep
                proc.last_submit = t_sub
                proc.clock = t_sub
                proc.pending_send = Message(
                    pid, dest, instr.payload, instr.tag, instr.size
                )
                proc.state = _IDLE  # waiting for the SUBMIT event to resolve
                push(t_sub, _EV_SUBMIT, pid, None)
                return
            elif cls is Recv:
                if not self._start_acquire(proc, proc.clock, push, trace):
                    proc.state = _BLOCKED_RECV
                return
            elif cls is Compute:
                proc.clock += instr.ops * proc.scale
            elif cls is TryRecv:
                if proc.clock > now:
                    # Local clock ran ahead of processed events (inline
                    # Compute/WaitUntil); deliveries due before `clock`
                    # may still sit in the heap.  Re-attempt the poll as
                    # an event at the local clock time.
                    proc.state = _IDLE
                    push(proc.clock, _EV_RESUME, pid, _TRYRECV)
                    return
                if proc.buffered():
                    if not self._start_acquire(proc, proc.clock, push, trace):
                        raise AssertionError("acquirable message vanished")
                    return
                # Polling costs one step, and control must go back to the
                # event loop so deliveries with earlier timestamps are
                # processed before the next poll (a tight in-step loop
                # would race past its own incoming messages).
                proc.clock += 1
                proc.state = _IDLE
                push(proc.clock, _EV_RESUME, pid, None)
                return
            elif cls is WaitUntil:
                if instr.time > proc.clock:
                    proc.clock = instr.time
            elif cls is Linger:
                # Like Recv, but resolves to None at machine quiescence
                # instead of deadlocking — the distributed-termination
                # primitive for resilient protocol drain phases.
                if not self._start_acquire(proc, proc.clock, push, trace):
                    proc.state = _LINGERING
                return
            else:
                raise ProgramError(
                    f"processor {pid} yielded {instr!r}, which is not a "
                    f"LogP instruction"
                )

    def _start_acquire(self, proc: _Proc, now: int, push, trace) -> bool:
        """If a message is buffered, schedule its acquisition and the
        processor's resumption; returns False when the buffer is empty."""
        buffer = proc.buffer
        head = proc.buf_head
        if head >= len(buffer):
            return False
        params = self.params
        t_acq, msg = buffer[head]
        head += 1
        if head > 64 and head * 2 > len(buffer):
            del buffer[:head]
            head = 0
        proc.buf_head = head
        # Acquisition starts at max(delivery, now, clock, last + G).
        if now > t_acq:
            t_acq = now
        if proc.clock > t_acq:
            t_acq = proc.clock
        last = proc.last_acquire
        if last is not None and last + params.G > t_acq:
            t_acq = last + params.G
        proc.last_acquire = t_acq
        # LogGP long messages; slow-clock faults scale local overhead.
        cost = (params.o + (msg.size - 1) * params.Gb) * proc.scale
        proc.clock = t_acq + cost
        proc.state = _IDLE
        if trace is not None:
            trace.on_acquired(msg, proc.pid, t_acq, t_acq + cost)
        push(t_acq + cost, _EV_RESUME, proc.pid, msg)
        return True
