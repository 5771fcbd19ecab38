"""Theorem 1: simulating a stall-free LogP program on BSP (paper §3).

The construction: chop LogP time into *cycles* (windows) of ``L/2``
steps; one BSP superstep simulates one cycle.  Within a superstep,
processor ``B_i`` interprets ``L_i``'s instructions under exact LogP
timing rules (overhead ``o``, submission gap ``G``, acquisition gap
``G``) against a *virtual clock*; message submissions go to the BSP
output pool of the superstep containing their submission instant, and
every message becomes available in the receiver's FIFO queue at the
start of the next window.

Faithfulness: a message submitted at ``t`` is received at the start of
window ``t // W + 1``, i.e. with delay at most ``2W <= L`` — an
*admissible* LogP execution (this is why the window is ``floor(L/2)``;
the paper notes the "minor modifications" needed for odd ``L``).
Stall-freedom guarantees at most ``ceil(L/G)`` messages per destination
per cycle, so each superstep routes an ``h``-relation with
``h <= ceil(L/G)`` and costs ``O(L/2 + g ceil(L/G) + l)``, giving the
slowdown ``O(1 + g/G + l/L)`` of Theorem 1.

Two drivers are provided:

* :func:`simulate_logp_on_bsp` — one BSP processor per LogP processor
  (the theorem as stated);
* :func:`simulate_logp_on_bsp_workpreserving` — ``p`` LogP processors on
  ``p' <= p`` BSP processors, each hosting ``p/p'`` interpreters per
  superstep.  Footnote 1 of the paper credits Ramachandran et al. with
  the observation that the simulation becomes *work-preserving* this
  way while keeping the same slowdown per hosted processor.

Both drivers can also run the program natively on the LogP machine and
check that the executions produce identical results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.bsp.machine import BSPMachine, BSPResult
from repro.bsp.program import Compute as BCompute, Send as BSend, Sync
from repro.engine.core import coerce_programs
from repro.engine.result import MachineResult
from repro.errors import ProgramError
from repro.faults.plan import FaultPlan
from repro.logp.instructions import (
    Compute,
    LogPContext,
    LogPProgram,
    Recv,
    Send,
    TryRecv,
    WaitUntil,
)
from repro.logp.machine import LogPMachine, LogPResult
from repro.models.cost import theorem1_slowdown
from repro.models.message import Message
from repro.models.params import BSPParams, LogPParams

__all__ = [
    "simulate_logp_on_bsp",
    "simulate_logp_on_bsp_workpreserving",
    "Theorem1Report",
    "window_length",
]


def window_length(logp: LogPParams) -> int:
    """The cycle length ``floor(L/2)`` (>= 1 because ``L >= G >= 2``)."""
    return max(1, logp.L // 2)


class CycleInterpreter:
    """Interprets one LogP processor under exact model timing, one window
    at a time.  The host (a BSP program) feeds delivered messages at each
    window start and collects the submissions falling inside the window."""

    def __init__(self, pid: int, p: int, program: LogPProgram, logp: LogPParams) -> None:
        self.pid = pid
        self.p = p
        self.logp = logp
        self.ctx = LogPContext(pid, p, logp)
        self.gen = program(self.ctx)
        self.vclock = 0
        self.last_submit: int | None = None
        self.last_acquire: int | None = None
        self.queue: deque[Message] = deque()
        self.scheduled: list[tuple[int, Send]] = []
        self.blocked_recv = False
        self.finished = False
        self.result: Any = None
        self._send_value: Any = None

    @property
    def done(self) -> bool:
        """Nothing left to execute or to transmit."""
        return self.finished and not self.scheduled

    def deliver(self, messages: Sequence[Message]) -> None:
        """Window start: append last window's deliveries to the FIFO."""
        self.queue.extend(messages)

    def _acquire(self) -> Message:
        t_acq = self.vclock
        last = self.last_acquire
        if last is not None and last + self.logp.G > t_acq:
            t_acq = last + self.logp.G
        self.last_acquire = t_acq
        self.vclock = t_acq + self.logp.o
        return self.queue.popleft()

    def run_window(self, window_end: int) -> list[Send]:
        """Execute until the virtual clock leaves the window (or the
        program blocks/finishes); returns the ``Send`` instructions whose
        submission instant falls inside this window.  Instructions are
        matched by exact type, most frequent first."""
        G, o = self.logp.G, self.logp.o
        emit: list[Send] = []

        remaining: list[tuple[int, Send]] = []
        for t_sub, instr in self.scheduled:
            if t_sub < window_end:
                emit.append(instr)
            else:
                remaining.append((t_sub, instr))
        self.scheduled = remaining

        if self.blocked_recv and self.queue:
            self.blocked_recv = False
            self._send_value = self._acquire()

        send = self.gen.send
        while not self.finished and not self.blocked_recv and self.vclock < window_end:
            self.ctx.clock = self.vclock
            try:
                instr = send(self._send_value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                break
            self._send_value = None
            cls = type(instr)
            if cls is Send:
                if not 0 <= instr.dest < self.p or instr.dest == self.pid:
                    raise ProgramError(
                        f"processor {self.pid}: invalid LogP destination {instr.dest}"
                    )
                start = self.vclock
                last = self.last_submit
                if last is not None and last + G - o > start:
                    start = last + G - o
                t_sub = start + o
                self.last_submit = t_sub
                self.vclock = t_sub
                self._send_value = t_sub  # stall-free: acceptance == submission
                if t_sub < window_end:
                    emit.append(instr)
                else:
                    self.scheduled.append((t_sub, instr))
            elif cls is Recv:
                if self.queue:
                    self._send_value = self._acquire()
                else:
                    self.blocked_recv = True
            elif cls is Compute:
                self.vclock += instr.ops
            elif cls is TryRecv:
                if self.queue:
                    self._send_value = self._acquire()
                else:
                    self.vclock += 1
            elif cls is WaitUntil:
                if instr.time > self.vclock:
                    self.vclock = instr.time
            else:
                raise ProgramError(
                    f"processor {self.pid} yielded {instr!r}, not a LogP instruction"
                )
        return emit

    def close_window(self, window_end: int) -> None:
        """Advance an idle/blocked interpreter to the window boundary."""
        if self.blocked_recv or self.vclock < window_end:
            self.vclock = window_end


@dataclass
class Theorem1Report(MachineResult):
    """Outcome of one Theorem 1 simulation run."""

    row_fields = (
        "window",
        "windows",
        "virtual_time",
        "slowdown",
        "predicted_slowdown",
        "max_window_h",
        "outputs_match",
    )

    logp_params: LogPParams
    bsp_params: BSPParams
    bsp: BSPResult
    native: LogPResult | None
    window: int
    hosts: int = 0  # BSP processors used (== p for the plain simulation)
    hosted: bool = False  # True for the work-preserving (multi-charge) variant

    @property
    def results(self) -> list[Any]:
        if not self.hosted:
            return self.bsp.results
        return [r for host in self.bsp.results for r in host]

    @property
    def windows(self) -> int:
        """Number of simulated cycles (= BSP supersteps used)."""
        return self.bsp.num_supersteps

    @property
    def virtual_time(self) -> int:
        """LogP time span covered by the simulation (windows * W)."""
        return self.windows * self.window

    @property
    def slowdown(self) -> float:
        """Measured slowdown: BSP cost per simulated LogP step."""
        if self.virtual_time == 0:
            return 1.0
        return self.bsp.total_cost / self.virtual_time

    @property
    def predicted_slowdown(self) -> float:
        """Theorem 1 prediction, scaled by the hosting ratio ``p / p'``
        for the work-preserving variant."""
        k = self.logp_params.p / max(1, self.hosts)
        return k * theorem1_slowdown(self.bsp_params, self.logp_params)

    @property
    def work(self) -> float:
        """Processor-time product of the simulation, ``p' * T_BSP``."""
        return self.hosts * self.bsp.total_cost

    @property
    def max_window_h(self) -> int:
        """Largest h-relation any superstep routed; stall-free programs
        keep this at most ``ceil(L/G)`` per hosted processor."""
        return max((rec.h for rec in self.bsp.ledger), default=0)

    @property
    def outputs_match(self) -> bool:
        """True when the BSP-simulated results equal the native LogP ones
        (vacuously true when the native run was skipped)."""
        return self.native is None or list(self.native.results) == list(self.results)


def _run_native(logp_params, programs, machine_kwargs) -> LogPResult:
    kwargs = {"layer": "native LogP reference", **(machine_kwargs or {})}
    machine = LogPMachine(logp_params, forbid_stalling=True, **kwargs)
    return machine.run(programs)


def simulate_logp_on_bsp(
    logp_params: LogPParams,
    program: LogPProgram | Sequence[LogPProgram],
    *,
    bsp_params: BSPParams | None = None,
    compare_native: bool = True,
    max_supersteps: int = 1_000_000,
    faults: FaultPlan | None = None,
    machine_kwargs: dict | None = None,
    obs=None,
) -> Theorem1Report:
    """Run a stall-free LogP program via the Theorem 1 BSP simulation.

    ``bsp_params`` defaults to the matched machine ``g = G, l = L`` (the
    regime where the theorem's slowdown is constant).  With
    ``compare_native=True`` the program is also executed on the real LogP
    machine (with ``forbid_stalling=True`` — the theorem only covers
    stall-free programs) and the outputs are compared.

    ``faults`` makes the *host* BSP machine's exchanges lossy; its
    checkpoint-and-retry recovery keeps the simulation's results
    identical while the cost ledger absorbs the recovery rounds, so the
    whole Section 3 construction runs end-to-end over a misbehaving
    substrate.  (The native comparison run stays fault-free.)

    ``obs`` (an enabled :class:`~repro.obs.Observation`) instruments the
    *host* BSP machine and receives the window/slowdown summary; the
    native comparison run stays unobserved, contributing only its
    makespan gauge.
    """
    p = logp_params.p
    bsp = bsp_params if bsp_params is not None else logp_params.matching_bsp()
    if bsp.p != p:
        raise ProgramError(f"BSP p={bsp.p} != LogP p={p}")
    programs = coerce_programs(program, p)
    W = window_length(logp_params)

    def make_wrapper(pid: int):
        def wrapper(bsp_ctx):
            interp = CycleInterpreter(pid, p, programs[pid], logp_params)
            window_end = W
            while True:
                interp.deliver(bsp_ctx.inbox)
                for instr in interp.run_window(window_end):
                    yield BSend(instr.dest, instr.payload, tag=instr.tag)
                if interp.done:
                    return interp.result
                yield BCompute(W)
                yield Sync()
                interp.close_window(window_end)
                window_end += W

        return wrapper

    if obs is not None and not obs.enabled:
        obs = None
    machine = BSPMachine(
        bsp,
        max_supersteps=max_supersteps,
        faults=faults,
        layer="guest LogP on host BSP",
        obs=obs,
    )
    bsp_result = machine.run([make_wrapper(pid) for pid in range(p)])

    native = _run_native(logp_params, programs, machine_kwargs) if compare_native else None
    report = Theorem1Report(
        logp_params=logp_params,
        bsp_params=bsp,
        bsp=bsp_result,
        native=native,
        window=W,
        hosts=p,
    )
    if obs is not None:
        obs.observe_theorem1(report)
    return report


def simulate_logp_on_bsp_workpreserving(
    logp_params: LogPParams,
    program: LogPProgram | Sequence[LogPProgram],
    bsp_p: int,
    *,
    bsp_params: BSPParams | None = None,
    compare_native: bool = True,
    max_supersteps: int = 1_000_000,
    faults: FaultPlan | None = None,
    machine_kwargs: dict | None = None,
    obs=None,
) -> Theorem1Report:
    """Footnote-1 variant: ``p`` LogP processors on ``p' = bsp_p`` BSP
    processors (``p'`` must divide ``p``).

    Host ``b`` interprets LogP processors ``[b k, (b+1) k)`` with
    ``k = p / p'``: per superstep it runs each charge's window in turn
    (``w = k W`` local operations) and routes the union of their
    submissions (``h <= k ceil(L/G)``).  The superstep costs
    ``k W + g k ceil(L/G) + l``, so the processor-time product is
    ``p'/p * (1 + g/G + l/(k W))``-comparable to the plain simulation's —
    the simulation is work-preserving.

    Host ``b``'s BSP result is the list of its charges' results in pid
    order; :attr:`Theorem1Report.results` flattens them back.
    """
    p = logp_params.p
    if bsp_p < 1 or p % bsp_p != 0:
        raise ProgramError(f"bsp_p={bsp_p} must divide p={p}")
    k = p // bsp_p
    bsp = (
        bsp_params
        if bsp_params is not None
        else BSPParams(p=bsp_p, g=logp_params.G, l=logp_params.L)
    )
    if bsp.p != bsp_p:
        raise ProgramError(f"bsp_params.p={bsp.p} != bsp_p={bsp_p}")
    programs = coerce_programs(program, p)
    W = window_length(logp_params)

    def host_of(lpid: int) -> int:
        return lpid // k

    def make_host(b: int):
        def host(bsp_ctx):
            interps = [
                CycleInterpreter(lpid, p, programs[lpid], logp_params)
                for lpid in range(b * k, (b + 1) * k)
            ]
            window_end = W
            while True:
                # Distribute the superstep's deliveries to the charges.
                local: dict[int, list[Message]] = {it.pid: [] for it in interps}
                for msg in bsp_ctx.inbox:
                    lpid, src_lpid, payload, tag = msg.payload
                    local[lpid].append(Message(src_lpid, lpid, payload, tag))
                for it in interps:
                    it.deliver(local[it.pid])
                    for instr in it.run_window(window_end):
                        yield BSend(
                            host_of(instr.dest),
                            (instr.dest, it.pid, instr.payload, instr.tag),
                            tag=instr.tag,
                        )
                if all(it.done for it in interps):
                    return [it.result for it in interps]
                yield BCompute(k * W)
                yield Sync()
                for it in interps:
                    it.close_window(window_end)
                window_end += W

        return host

    if obs is not None and not obs.enabled:
        obs = None
    machine = BSPMachine(
        bsp,
        max_supersteps=max_supersteps,
        faults=faults,
        layer="guest LogP on host BSP (work-preserving)",
        obs=obs,
    )
    bsp_result = machine.run([make_host(b) for b in range(bsp_p)])

    native = _run_native(logp_params, programs, machine_kwargs) if compare_native else None
    report = Theorem1Report(
        logp_params=logp_params,
        bsp_params=bsp,
        bsp=bsp_result,
        native=native,
        window=W,
        hosts=bsp_p,
        hosted=True,
    )
    if obs is not None:
        obs.observe_theorem1(report)
    return report
