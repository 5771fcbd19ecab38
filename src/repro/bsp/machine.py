"""The BSP superstep engine.

Runs one generator per processor, collecting instructions until every live
processor has ended its local phase, then performs the communication phase
and charges ``w + g*h + l`` (paper eq. (1)) where

* ``w`` is the maximum number of local operations of any processor,
* ``h`` is the maximum over processors of max(#sent, #received) — the
  degree of the superstep's h-relation.

An important and easily-missed detail of the paper's definition is honored
here: *input pools are discarded at each superstep boundary*.  Messages not
extracted in the superstep following their delivery are lost.

**Checkpoint-and-retry resilience** (``faults=``): the superstep barrier
doubles as a checkpoint.  When a :class:`~repro.faults.plan.FaultPlan`
makes the exchange lossy (message drops, transient crash of a processor's
sends for one superstep), the machine detects the shortfall at the
barrier — every processor knows how many messages it was owed, exactly the
information the CB combine already aggregates — and re-runs the exchange
for the missing messages only, charging ``g*h_k + l`` per recovery round
``k``.  Because local state was checkpointed at the barrier, no
computation is redone; results are bit-identical to the fault-free run
and only the cost ledger (``retries`` / ``retry_cost`` per superstep)
shows the substrate misbehaved.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.engine.core import coerce_programs, counters_for, spawn_generator
from repro.engine.result import MachineResult, TraceEvent
from repro.errors import ProgramError, ProtocolError, SimulationLimitError
from repro.faults.plan import ActiveFaults, FaultLog, FaultPlan
from repro.models.message import Message
from repro.models.params import BSPParams
from repro.perf.counters import KernelCounters
from repro.bsp.program import BSPContext, BSPProgram, Compute, Send, Sync

__all__ = ["BSPMachine", "BSPResult", "SuperstepRecord"]


@dataclass(frozen=True)
class SuperstepRecord:
    """Cost-ledger row for one superstep.

    ``cost`` is the full charge including recovery; on a lossy substrate
    ``retries`` counts the extra exchange rounds and ``retry_cost`` their
    ``sum(g*h_k + l)`` share of ``cost`` (both 0 on a clean run).
    """

    index: int
    w: int
    h_send: int
    h_recv: int
    cost: int
    retries: int = 0
    retry_cost: int = 0

    @property
    def h(self) -> int:
        """Degree of the superstep's h-relation: max(h_send, h_recv)."""
        return max(self.h_send, self.h_recv)


@dataclass
class BSPResult(MachineResult):
    """Outcome of a BSP run: per-processor results and the cost ledger.

    ``message_log`` (only populated when the machine was built with
    ``record_messages=True``) holds, per superstep, the list of
    ``(src, dest)`` pairs routed in that superstep's communication phase,
    in the order the senders issued them — the advance knowledge the
    "known h-relations" routing modes of Section 4.3 assume.
    """

    params: BSPParams
    results: list[Any]
    ledger: list[SuperstepRecord] = field(default_factory=list)
    message_log: list[list[tuple[int, int]]] | None = None
    #: Injected-fault ledger when the machine ran with a FaultPlan.
    fault_log: "FaultLog | None" = None
    #: Work accounting: ``events`` counts program instructions executed,
    #: ``batches`` supersteps driven, ``ticks_skipped`` the simulated
    #: clock units crossed in one ``w + g*h + l`` jump (what a per-tick
    #: clock would have scanned), ``queue_highwater`` the peak number of
    #: messages pending across one exchange.
    kernel: KernelCounters = field(default_factory=lambda: counters_for("superstep"))

    row_fields = (
        "total_cost",
        "num_supersteps",
        "total_messages",
        "total_retries",
        "total_retry_cost",
    )

    def trace_events(self) -> list[TraceEvent]:
        """The cost ledger in the shared cross-layer vocabulary: one
        ``"superstep"`` event per barrier, timed at the running total
        cost (the BSP simulated clock)."""
        events: list[TraceEvent] = []
        clock = 0
        for rec in self.ledger:
            clock += rec.cost
            events.append(
                TraceEvent(
                    "superstep",
                    clock,
                    -1,
                    {
                        "index": rec.index,
                        "w": rec.w,
                        "h": rec.h,
                        "cost": rec.cost,
                        "retries": rec.retries,
                    },
                )
            )
        return events

    @property
    def total_cost(self) -> int:
        """Sum of superstep costs — the BSP running time of the program."""
        return sum(rec.cost for rec in self.ledger)

    @property
    def num_supersteps(self) -> int:
        return len(self.ledger)

    @property
    def total_messages(self) -> int:
        """Total messages transferred over the whole run (all processors)."""
        return sum(rec.h_send for rec in self.ledger)  # upper envelope only

    @property
    def total_retries(self) -> int:
        """Extra exchange rounds spent recovering lost messages."""
        return sum(rec.retries for rec in self.ledger)

    @property
    def total_retry_cost(self) -> int:
        """Share of :attr:`total_cost` paid to the recovery rounds."""
        return sum(rec.retry_cost for rec in self.ledger)

    def __repr__(self) -> str:
        return (
            f"BSPResult(p={self.params.p}, supersteps={self.num_supersteps}, "
            f"total_cost={self.total_cost})"
        )


class BSPMachine:
    """A ``p``-processor BSP machine with parameters ``(g, l)``.

    Parameters
    ----------
    params:
        The machine's :class:`~repro.models.params.BSPParams`.
    max_supersteps:
        Safety valve against non-terminating programs.
    faults:
        A :class:`~repro.faults.plan.FaultPlan` making the communication
        phase lossy (``drop_rate`` drops each message of each exchange
        attempt independently; ``crash[pid] = s`` loses all of ``pid``'s
        superstep-``s`` sends on the first attempt).  The barrier's
        checkpoint-and-retry recovery re-exchanges lost messages, so
        results are identical to the clean run; the cost ledger carries
        the recovery charge.  Seeded and fully deterministic.
    max_comm_retries:
        Recovery-round budget per superstep before the machine gives up
        with :class:`~repro.errors.ProtocolError`.
    layer:
        Name of this machine's position in a simulation stack (e.g.
        ``"guest LogP on host BSP"``); limit diagnostics are prefixed
        with it so errors from nested engines identify their owner.
    obs:
        Optional :class:`~repro.obs.Observation`.  The run's cost ledger
        (per-superstep ``w``/``h``/cost decomposition, retries, kernel
        work, faults) is published under this machine's ``layer`` label
        once at the end of the run — BSP needs no inline hooks because
        the ledger already is the full observable record.

    Example
    -------
    >>> from repro.models.params import BSPParams
    >>> from repro.bsp import BSPMachine, Compute, Send, Sync
    >>> def prog(ctx):
    ...     yield Send((ctx.pid + 1) % ctx.p, ctx.pid)
    ...     yield Sync()
    ...     [msg] = ctx.inbox
    ...     return msg.payload
    >>> machine = BSPMachine(BSPParams(p=4, g=2, l=10))
    >>> out = machine.run(prog)
    >>> out.results
    [3, 0, 1, 2]
    >>> out.total_cost  # one superstep: w=0, h=1 -> g*1 + l
    12
    """

    #: Cost conventions for the h-relation term.  The paper (and this
    #: library's default) uses ``max(h_send, h_recv)``; the literature on
    #: BSP variants (cf. the paper's ref. [12]) also considers the sum of
    #: the two and the send-only degree — exposed for ablation studies.
    H_CONVENTIONS = {
        "max": lambda h_send, h_recv: max(h_send, h_recv),
        "sum": lambda h_send, h_recv: h_send + h_recv,
        "send-only": lambda h_send, h_recv: h_send,
    }

    def __init__(
        self,
        params: BSPParams,
        *,
        max_supersteps: int = 1_000_000,
        record_messages: bool = False,
        h_convention: str = "max",
        faults: FaultPlan | None = None,
        max_comm_retries: int = 64,
        layer: str = "BSP",
        obs: Any | None = None,
    ) -> None:
        self.params = params
        self.max_supersteps = max_supersteps
        self.record_messages = record_messages
        self.layer = layer
        self.obs = obs if (obs is not None and obs.enabled) else None
        if h_convention not in self.H_CONVENTIONS:
            raise ProgramError(
                f"unknown h_convention {h_convention!r}; "
                f"choose from {sorted(self.H_CONVENTIONS)}"
            )
        self.h_convention = h_convention
        self._h_fn = self.H_CONVENTIONS[h_convention]
        if max_comm_retries < 1:
            raise ProgramError(
                f"max_comm_retries must be >= 1, got {max_comm_retries}"
            )
        self.faults = faults
        self.max_comm_retries = max_comm_retries

    def run(self, program: BSPProgram | Sequence[BSPProgram]) -> BSPResult:
        """Run ``program`` on every processor (or one program per processor
        if a sequence of length ``p`` is given) to completion."""
        p = self.params.p
        programs = coerce_programs(program, p)

        contexts = [BSPContext(pid, p) for pid in range(p)]
        gens: list[Generator | None] = []
        results: list[Any] = [None] * p
        for pid in range(p):
            gens.append(spawn_generator(programs[pid], contexts[pid], pid, model="BSP"))

        active = self.faults.activate() if self.faults is not None else None

        ledger: list[SuperstepRecord] = []
        message_log: list[list[tuple[int, int]]] | None = (
            [] if self.record_messages else None
        )
        counters = counters_for("superstep")
        pending: list[list[Message]] = [[] for _ in range(p)]  # next inboxes
        superstep = 0
        # Active-set scheduling: only processors whose generator is still
        # running are driven; finished ones drop out of the scan instead
        # of being re-checked every superstep.
        live = list(range(p))
        while live:
            if superstep >= self.max_supersteps:
                raise SimulationLimitError(
                    f"[{self.layer}] exceeded max_supersteps={self.max_supersteps}"
                )
            # Communication phase of the *previous* superstep delivered
            # `pending`; hand fresh inboxes to the live processors
            # (discarding whatever they left unread, per the paper's pool
            # semantics — messages to finished processors are dropped with
            # their pool).
            for pid in live:
                contexts[pid]._begin_superstep(superstep, pending[pid])
            pending = [[] for _ in range(p)]

            w = [0] * p
            sent = [0] * p
            recvd = [0] * p
            step_sends: list[tuple[int, int]] | None = (
                [] if message_log is not None else None
            )
            for pid in live:
                counters.events += self._run_local_phase(
                    pid, gens[pid], gens, results, w, sent, recvd, pending, step_sends
                )
            counters.batches += 1
            live = [pid for pid in live if gens[pid] is not None]

            w_max = max(w)
            h_send = max(sent)
            h_recv = max(recvd)
            if w_max == 0 and h_send == 0 and h_recv == 0 and not live:
                # Final drain: every processor returned without doing any
                # work — there is no superstep to charge for.
                break
            cost = self.params.superstep_cost(w_max, self._h_fn(h_send, h_recv))
            retries = retry_cost = 0
            if active is not None:
                retries, retry_cost = self._lossy_exchange(pending, superstep, active)
                cost += retry_cost
            ledger.append(
                SuperstepRecord(
                    index=superstep,
                    w=w_max,
                    h_send=h_send,
                    h_recv=h_recv,
                    cost=cost,
                    retries=retries,
                    retry_cost=retry_cost,
                )
            )
            # The barrier advances the simulated clock by the full charge
            # in one jump — a per-tick clock would have scanned every unit.
            counters.ticks_skipped += max(0, cost - 1)
            counters.queue_highwater = max(counters.queue_highwater, sum(sent))
            if message_log is not None:
                message_log.append(step_sends if step_sends is not None else [])
            superstep += 1

        result = BSPResult(
            params=self.params,
            results=results,
            ledger=ledger,
            message_log=message_log,
            fault_log=active.log if active is not None else None,
            kernel=counters,
        )
        if self.obs is not None:
            self.obs.observe_bsp(result, layer=self.layer)
        return result

    def _lossy_exchange(
        self,
        pending: list[list[Message]],
        superstep: int,
        active: ActiveFaults,
    ) -> tuple[int, int]:
        """Charge the checkpoint-and-retry recovery of this superstep's
        exchange under ``active``'s fault plan.

        Every delivery attempt rolls each still-undelivered message
        independently (transiently-crashed senders lose all of attempt 0);
        each round with losses costs an extra ``g*h_k + l`` where ``h_k``
        is the degree of the lost sub-h-relation.  Recovery always
        completes — the barrier knows the exact shortfall, and retries
        draw fresh fates — so the inboxes end up exactly as on a clean
        run; only ``(retries, retry_cost)`` is returned.
        """
        undelivered = [msg for inbox in pending for msg in inbox]
        attempt = 0
        retry_cost = 0
        while undelivered:
            if attempt > self.max_comm_retries:
                raise ProtocolError(
                    f"superstep {superstep}: {len(undelivered)} message(s) "
                    f"still undelivered after max_comm_retries="
                    f"{self.max_comm_retries} recovery rounds "
                    f"(fault log: {active.log.summary()})"
                )
            lost = [
                msg
                for msg in undelivered
                if active.bsp_lost(msg.src, msg.dest, superstep, attempt)
            ]
            if lost:
                active.log.bsp_lost.append((superstep, len(lost)))
                sent = Counter(msg.src for msg in lost)
                recvd = Counter(msg.dest for msg in lost)
                h_k = self._h_fn(max(sent.values()), max(recvd.values()))
                retry_cost += self.params.superstep_cost(0, h_k)
            undelivered = lost
            attempt += 1
        return max(attempt - 1, 0), retry_cost

    def _run_local_phase(
        self,
        pid: int,
        gen: Generator,
        gens: list[Generator | None],
        results: list[Any],
        w: list[int],
        sent: list[int],
        recvd: list[int],
        pending: list[list[Message]],
        step_sends: list[tuple[int, int]] | None = None,
    ) -> int:
        """Drive one processor's generator until Sync or completion.

        Instructions are matched by exact type, most frequent first.
        Returns the number of instructions executed, for the kernel's
        work counter.
        """
        p = self.params.p
        executed = 0
        step = gen.__next__
        while True:
            try:
                instr = step()
            except StopIteration as stop:
                gens[pid] = None
                results[pid] = stop.value
                return executed
            executed += 1
            cls = type(instr)
            if cls is Send:
                dest = instr.dest
                if not 0 <= dest < p:
                    raise ProgramError(
                        f"processor {pid} sent to invalid destination "
                        f"{dest} (p={p})"
                    )
                pending[dest].append(Message(pid, dest, instr.payload, instr.tag))
                sent[pid] += 1
                recvd[dest] += 1
                if step_sends is not None:
                    step_sends.append((pid, dest))
            elif cls is Sync:
                return executed
            elif cls is Compute:
                w[pid] += instr.ops
            else:
                raise ProgramError(
                    f"processor {pid} yielded {instr!r}, which is not a BSP "
                    f"instruction"
                )
