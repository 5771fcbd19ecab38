"""Theorems 2/3: executing BSP programs on the LogP machine (paper §4).

Every BSP superstep becomes, on LogP (the paper's three-part structure):

1. the superstep's local computation,
2. a synchronization activity — CB with Boolean AND (Section 4.1), which
   here also carries each processor's *done* flag, so termination
   detection rides the barrier for free ("making each processor aware of
   termination, so that no further synchronization is needed"),
3. the routing of the superstep's h-relation, by one of three protocols:

   * ``"deterministic"`` — Section 4.2 (on-line: CB(max r), sort, CB(s),
     pipelined cycles); degree discovered at run time; stall-free.
   * ``"randomized"`` — Section 4.3 (Theorem 3): batch rounds; requires
     the degree ``h`` known in advance, which the driver obtains from a
     *native BSP pre-run* (the theorem's "provided that the h_i's are
     known" hypothesis); may stall with small probability.
   * ``"offline"`` — the Hall/König baseline the paper credits to Hall's
     theorem: the relation is decomposed into 1-relations in advance and
     routed in optimal ``2o + G(h-1) + L``; input-independent relations
     only (the driver checks the runtime relation matches the pre-run).
   * ``"resilient"`` — a count-announce exchange (each processor first
     tells every other how many payload messages to expect, then sends
     them) running entirely over the ack/retransmit transport of
     :mod:`repro.faults.protocol`.  Unlike the three model-optimal
     protocols above, it assumes *nothing* about delivery timing, so it
     is the one mode that stays correct over a lossy
     :class:`~repro.faults.medium.FaultyMedium` (``faults=``) — the
     price is ``O(p)`` extra count messages per superstep and the
     protocol's retransmission slowdown.

The driver always runs the program natively on a matched BSP machine
(``g = G, l = L``) first — for output comparison, for the cost ledger the
slowdown is measured against, and for the advance knowledge the last two
modes require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

import numpy as np

from repro.bsp.machine import BSPMachine, BSPResult
from repro.bsp.program import BSPContext, BSPProgram, Compute as BCompute, Send as BSend, Sync
from repro.core.cb import cb, cb_with_deadline
from repro.core.det_routing import TAG_STRIDE, deterministic_route, _pinned_send
from repro.engine.core import coerce_programs
from repro.engine.result import MachineResult
from repro.errors import ProgramError
from repro.faults.plan import FaultPlan
from repro.faults.protocol import reliable
from repro.logp.collectives import recv_n_tagged
from repro.logp.instructions import Compute, LogPContext, Send, WaitUntil
from repro.logp.machine import LogPMachine, LogPResult
from repro.models.cost import slowdown_S, theorem3_beta_hat, theorem3_num_batches
from repro.models.message import Message
from repro.models.params import LogPParams
from repro.perf.memo import plan_cache
from repro.routing.hall import decompose_h_relation, relation_degree
from repro.util.rng import derive_seed

__all__ = ["simulate_bsp_on_logp", "Theorem2Report", "SuperstepTiming"]

_BARRIER_TAG = 8192
_PAYLOAD_TAG = 8200
_COUNT_TAG = 8201


@dataclass(frozen=True)
class SuperstepTiming:
    """Per-superstep LogP phase boundary clocks (max over processors)."""

    index: int
    local_end: int
    sync_end: int
    route_end: int

    @property
    def t_sync(self) -> int:
        return self.sync_end - self.local_end

    @property
    def t_route(self) -> int:
        return self.route_end - self.sync_end


@dataclass
class Theorem2Report(MachineResult):
    """Outcome of one BSP-on-LogP simulation."""

    row_fields = (
        "routing",
        "total_logp_time",
        "bsp_cost",
        "slowdown",
        "predicted_slowdown",
        "outputs_match",
    )

    logp_params: LogPParams
    routing: str
    logp: LogPResult
    bsp_native: BSPResult
    timings: list[SuperstepTiming] = field(default_factory=list)

    @property
    def results(self) -> list[Any]:
        return [entry["result"] for entry in self.logp.results]

    @property
    def outputs_match(self) -> bool:
        return list(self.bsp_native.results) == self.results

    @property
    def total_logp_time(self) -> int:
        return self.logp.makespan

    @property
    def bsp_cost(self) -> int:
        """Native BSP cost on the matched machine (g = G, l = L)."""
        return self.bsp_native.total_cost

    @property
    def slowdown(self) -> float:
        """Measured slowdown of the simulation (Theorem 2's ``S``)."""
        if self.bsp_cost == 0:
            return 1.0
        return self.total_logp_time / self.bsp_cost

    @property
    def predicted_slowdown(self) -> float:
        """Cost-weighted prediction from the paper's ``S(L, G, p, h)``."""
        num = 0.0
        den = 0.0
        params = self.logp_params
        for rec in self.bsp_native.ledger:
            base = rec.w + params.G * rec.h + params.L
            num += base * slowdown_S(params, rec.h)
            den += base
        return num / den if den else 1.0


def _gather_timings(results: list[dict]) -> list[SuperstepTiming]:
    n = max((len(entry["timeline"]) for entry in results), default=0)
    out = []
    for i in range(n):
        rows = [entry["timeline"][i] for entry in results if i < len(entry["timeline"])]
        out.append(
            SuperstepTiming(
                index=i,
                local_end=max(r[0] for r in rows),
                sync_end=max(r[1] for r in rows),
                route_end=max(r[2] for r in rows),
            )
        )
    return out


def simulate_bsp_on_logp(
    logp_params: LogPParams,
    program: BSPProgram | Sequence[BSPProgram],
    *,
    routing: str = "deterministic",
    seed: int = 0,
    R_factor: float | None = 4.0,
    c1: float = 1.0,
    c2: float = 1.0,
    faults: FaultPlan | None = None,
    machine_kwargs: dict | None = None,
    obs=None,
) -> Theorem2Report:
    """Run ``program`` on the LogP machine via the Theorem 2/3 simulation.

    See the module docstring for the four ``routing`` modes.  For
    ``"randomized"``, ``R_factor`` overrides the paper's conservative
    batch multiplier ``1 + beta_hat`` (pass ``None`` to use the paper's
    ``c1, c2``-derived value).  ``faults`` makes the LogP substrate lossy
    and requires ``routing="resilient"`` — the model-optimal protocols
    are correct only under admissible (fault-free) semantics.

    ``obs`` (an enabled :class:`~repro.obs.Observation`) is threaded
    into the host LogP machine and additionally receives the native
    reference ledger, the measured/predicted slowdowns, and — when
    tracing — the guest's per-superstep local/sync/route phase spans on
    the host clock.
    """
    if routing not in ("deterministic", "randomized", "offline", "resilient"):
        raise ProgramError(f"unknown routing mode {routing!r}")
    if faults is not None and routing != "resilient":
        raise ProgramError(
            f"routing={routing!r} assumes the paper's admissible delivery "
            f"semantics; running it over a FaultPlan requires "
            f"routing='resilient'"
        )
    p = logp_params.p
    programs = coerce_programs(program, p)

    # Native pre-run: matched BSP machine, with message structure recorded
    # when a routing mode needs advance knowledge.
    need_log = routing in ("randomized", "offline")
    bsp_machine = BSPMachine(
        logp_params.matching_bsp(),
        record_messages=need_log,
        layer="native BSP reference",
    )
    bsp_native = bsp_machine.run(programs)

    advance: list[dict] | None = None
    if need_log:
        # The per-superstep plan (degree, fan-in counts, and for the
        # offline mode the Hall/König edge coloring) is a pure function
        # of the relation; repeated runs of the same program — parameter
        # sweeps, the benchmarks — keep re-deriving the same plans, so
        # they are memoized process-wide.  Entries must be treated as
        # read-only by the routing protocols.
        advance = [
            _ADVANCE_CACHE.get(
                (routing, p, tuple(step_msgs)),
                lambda msgs=step_msgs: _advance_plan(routing, p, msgs),
            )
            for step_msgs in bsp_native.message_log or []
        ]

    def make_prog(pid: int):
        def prog(ctx: LogPContext):
            bsp_ctx = BSPContext(pid, p)
            gen = programs[pid](bsp_ctx)
            inbox: list[Message] = []
            superstep = 0
            done = False
            result: Any = None
            timeline: list[tuple[int, int, int]] = []
            while True:
                bsp_ctx._begin_superstep(superstep, inbox)
                inbox = []
                outgoing: list[tuple[int, Any]] = []
                w = 0
                while not done:
                    try:
                        instr = next(gen)
                    except StopIteration as stop:
                        done = True
                        result = stop.value
                        break
                    cls = type(instr)
                    if cls is BSend:
                        if not 0 <= instr.dest < p:
                            raise ProgramError(
                                f"processor {pid}: invalid BSP destination {instr.dest}"
                            )
                        outgoing.append((instr.dest, (instr.tag, instr.payload)))
                    elif cls is Sync:
                        break
                    elif cls is BCompute:
                        w += instr.ops
                    else:
                        raise ProgramError(
                            f"processor {pid} yielded {instr!r}, not a BSP instruction"
                        )
                if w:
                    yield Compute(w)
                t_local = ctx.clock
                tag_ns = (superstep + 1) * TAG_STRIDE

                # --- synchronization: CB(AND) carrying done flags --------
                if routing == "resilient":
                    # The deadline variant asserts the model's descend
                    # bound, which retransmission delays legitimately
                    # exceed; the resilient exchange never uses deadlines.
                    all_done = yield from cb(
                        ctx,
                        done,
                        lambda a, b: a and b,
                        tag_base=tag_ns + _BARRIER_TAG,
                        op_cost=0,
                    )
                    t0 = ctx.clock
                else:
                    all_done, t0 = yield from cb_with_deadline(
                        ctx,
                        done,
                        lambda a, b: a and b,
                        tag_base=tag_ns + _BARRIER_TAG,
                        op_cost=0,
                    )
                t_sync = ctx.clock
                if all_done:
                    timeline.append((t_local, t_sync, t_sync))
                    return {"result": result, "timeline": timeline}

                # --- routing ---------------------------------------------
                if routing == "resilient":
                    received = yield from _route_resilient(ctx, outgoing, tag_ns)
                elif routing == "deterministic":
                    outcome = yield from deterministic_route(
                        ctx, outgoing, tag_ns=tag_ns
                    )
                    # Unwrap the (bsp_tag, payload) envelope into the
                    # messages the BSP program expects in its input pool.
                    received = [
                        Message(m.src, pid, m.payload[1], m.payload[0])
                        for m in outcome.received
                    ]
                else:
                    info = advance[superstep] if superstep < len(advance) else None
                    if info is None or info["out_counts"][pid] != len(outgoing):
                        raise ProgramError(
                            f"superstep {superstep}: runtime relation deviates "
                            f"from the pre-run (non-deterministic program?)"
                        )
                    received = yield from _route_known(
                        ctx,
                        routing,
                        outgoing,
                        info,
                        t0,
                        tag_ns + _PAYLOAD_TAG,
                        seed,
                        superstep,
                        R_factor,
                        c1,
                        c2,
                    )
                inbox = received
                timeline.append((t_local, t_sync, ctx.clock))
                superstep += 1

        return prog

    forbid = routing in ("deterministic", "offline")
    if obs is not None and not obs.enabled:
        obs = None
    mkwargs = {"layer": "guest BSP on host LogP", **(machine_kwargs or {})}
    mkwargs.setdefault("obs", obs)
    machine = LogPMachine(
        logp_params, forbid_stalling=forbid, faults=faults, **mkwargs
    )
    progs = [make_prog(pid) for pid in range(p)]
    if routing == "resilient":
        progs = [reliable(pr) for pr in progs]
    logp_result = machine.run(progs)

    report = Theorem2Report(
        logp_params=logp_params,
        routing=routing,
        logp=logp_result,
        bsp_native=bsp_native,
        timings=_gather_timings(logp_result.results),
    )
    if not report.outputs_match:
        raise ProgramError(
            "BSP-on-LogP simulation produced different results than the "
            "native BSP run"
        )
    if obs is not None:
        obs.observe_theorem2(report)
    return report


_ADVANCE_CACHE = plan_cache("bsp-advance-plan")


def _advance_plan(routing: str, p: int, step_msgs: Sequence[tuple[int, int]]) -> dict:
    """Advance knowledge for one superstep's relation: degree, per-
    processor fan-in/fan-out, and (offline mode) the Hall coloring."""
    h = relation_degree(step_msgs)
    expected_in = [0] * p
    out_counts = [0] * p
    for src, dest in step_msgs:
        expected_in[dest] += 1
        out_counts[src] += 1
    entry: dict = {
        "h": h,
        "expected_in": expected_in,
        "out_counts": out_counts,
    }
    if routing == "offline":
        classes = decompose_h_relation(step_msgs)
        color_of = [0] * len(step_msgs)
        for c, cls in enumerate(classes):
            for idx in cls:
                color_of[idx] = c
        # Per-processor colors in the sender's issue order.
        per_proc: list[list[int]] = [[] for _ in range(p)]
        for idx, (src, _dest) in enumerate(step_msgs):
            per_proc[src].append(color_of[idx])
        entry["colors"] = per_proc
    return entry


def _route_resilient(ctx: LogPContext, outgoing, tag_ns: int):
    """Count-announce exchange for the ``"resilient"`` mode.

    Every processor tells every other how many payload messages to expect
    (``p - 1`` count messages), then sends the payloads; the receive loop
    blocks until all counts and all announced payloads arrived.  The only
    assumption is that every sent message is *eventually* received — which
    the ack/retransmit transport guarantees even over a lossy medium — so
    unlike the slot-pinned protocols this exchange needs no latency bound
    and tolerates arbitrary reordering and retransmission delays.
    """
    p, pid = ctx.p, ctx.pid
    counts = [0] * p
    for dest, _envelope in outgoing:
        counts[dest] += 1
    for q in range(p):
        if q != pid:
            yield Send(q, counts[q], tag=tag_ns + _COUNT_TAG)
    for dest, envelope in outgoing:
        yield Send(dest, envelope, tag=tag_ns + _PAYLOAD_TAG)
    count_msgs = yield from recv_n_tagged(ctx, tag_ns + _COUNT_TAG, p - 1)
    expected = sum(m.payload for m in count_msgs)
    payload_msgs = yield from recv_n_tagged(ctx, tag_ns + _PAYLOAD_TAG, expected)
    return [
        Message(m.src, pid, m.payload[1], m.payload[0])
        for m in payload_msgs
    ]


def _route_known(
    ctx: LogPContext,
    routing: str,
    outgoing: list[tuple[int, Any]],
    info: dict,
    t0: int,
    tag: int,
    seed: int,
    superstep: int,
    R_factor: float | None,
    c1: float,
    c2: float,
) -> Generator[Any, Any, list[Message]]:
    """Route one superstep's messages with advance knowledge of the
    relation (Theorem 3 randomized, or the offline Hall baseline)."""
    params: LogPParams = ctx.params
    G, o, L = params.G, params.o, params.L
    h = info["h"]
    start = t0 + G + o

    # BSP permits self-addressed messages (the machine model has no such
    # notion); deliver them locally, like the deterministic protocol does.
    local: list[Message] = []
    remote_idx: list[int] = []
    for i, (dest, payload) in enumerate(outgoing):
        if dest == ctx.pid:
            local.append(Message(ctx.pid, ctx.pid, payload[1], payload[0]))
        else:
            remote_idx.append(i)
    expected = info["expected_in"][ctx.pid] - len(local)

    if routing == "offline":
        colors = info["colors"][ctx.pid]
        for i in sorted(remote_idx, key=lambda i: colors[i]):
            dest, payload = outgoing[i]
            yield from _pinned_send(ctx, start + colors[i] * G, dest, payload, tag)
    else:  # randomized (Theorem 3)
        cap = params.capacity
        if R_factor is not None:
            R = max(1, int(np.ceil(R_factor * h / cap))) if h else 1
        else:
            R = theorem3_num_batches(h, params, theorem3_beta_hat(c1, c2))
        round_length = 2 * (L + o)
        rng = np.random.default_rng(derive_seed(seed, superstep, ctx.pid))
        draws = rng.integers(0, R, size=len(remote_idx))
        rounds: list[list[int]] = [[] for _ in range(R)]
        leftovers: list[int] = []
        for i, b in zip(remote_idx, draws):
            bucket = rounds[int(b)]
            if len(bucket) < cap:
                bucket.append(i)
            else:
                leftovers.append(i)
        for rnd, idxs in enumerate(rounds):
            if idxs:
                yield WaitUntil(start + rnd * round_length)
                for i in idxs:
                    dest, payload = outgoing[i]
                    yield Send(dest, payload, tag=tag)
        if leftovers:
            yield WaitUntil(start + R * round_length)
            for i in leftovers:
                dest, payload = outgoing[i]
                yield Send(dest, payload, tag=tag)

    msgs = yield from recv_n_tagged(ctx, tag, expected)
    received = local + [
        Message(m.src, ctx.pid, m.payload[1], m.payload[0])
        for m in msgs
    ]
    # Park until the phase's global end: a processor that received its own
    # messages early must not open the next superstep's barrier while
    # payload traffic is still in transit elsewhere — the extra in-flight
    # messages would overflow the capacity at shared destinations (the CB
    # tree packs its fan-in exactly to ceil(L/G)).
    if routing == "offline":
        t_end = start + max(0, h - 1) * G + L + o
    else:
        R_used = len(rounds)
        t_end = start + R_used * round_length + (h + 1) * G + L + o
    yield WaitUntil(t_end)
    return received
