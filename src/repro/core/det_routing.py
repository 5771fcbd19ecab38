"""Deterministic on-line routing of h-relations in LogP (paper Section 4.2).

The protocol, exactly as the paper structures it:

1. **Compute r** (max messages held by any processor) with CB(max) and
   broadcast it; pad every processor to exactly ``r`` messages with
   *dummies* whose nominal destination is ``p``.
2. **Sort** all ``r * p`` messages by destination with an oblivious
   merge-split network (Batcher bitonic / odd-even transposition — our
   executable stand-in for AKS; see DESIGN.md), giving each message its
   global rank.
3. **Compute s** (max messages destined to one processor) and broadcast
   it, with a single CB over an associative *and commutative* operator —
   destination-count merging — matching the paper's "Step 3 can be
   executed by means of CB in time r + T_CB".  (Commutativity matters:
   CB's tree combines contributions in a permuted order, so the
   order-sensitive run-length monoid, although associative, would
   miscount runs spanning non-adjacent processors; see
   :class:`RunSummary`'s docstring.)
4. **Route in cycles**: with ``h = max(r, s)``, the message of global
   rank ``q`` is transmitted in cycle ``q mod h``; cycles are pipelined
   with period ``G``.  Within a cycle each processor sends at most one
   message and each destination receives at most one (consecutive ranks
   per block / per destination-run), so the pipeline respects the
   capacity constraint and the phase takes ``2o + G(h-1) + L``.

Stall-freedom is obtained the way the paper's analysis implicitly
assumes — by *time-slotting*: every CB returns (via
:func:`repro.core.cb.cb_with_deadline`) a global deadline by which all
processors have finished it, and all subsequent submissions are pinned to
exact global slots with ``WaitUntil``.  The machine runs with
``forbid_stalling=True``; a stall anywhere is an implementation bug, not
a tolerated event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from repro.core.cb import cb_with_deadline
from repro.core.columnsort_logp import columnsort_total_span, logp_columnsort
from repro.errors import ProgramError
from repro.logp.collectives import recv_n_tagged
from repro.logp.instructions import Compute, LogPContext, Send, TryRecv, WaitUntil
from repro.logp.machine import LogPMachine, LogPResult
from repro.models.cost import t_seq_sort
from repro.models.message import Message
from repro.models.params import LogPParams
from repro.sorting.bitonic import sorting_schedule
from repro.sorting.columnsort import columnsort_valid
from repro.sorting.merge_split import merge_split

__all__ = [
    "RunSummary",
    "combine_runs",
    "summarize_block",
    "deterministic_route",
    "RouteOutcome",
    "measure_det_routing",
    "DetRoutingMeasurement",
    "TAG_STRIDE",
]

#: Callers running several protocol instances on one machine must space
#: their tag namespaces by at least this much.
TAG_STRIDE = 1 << 14

# Tag offsets inside a protocol instance's namespace.
_CB_R = 0  # +0, +1
_CB_S = 4  # +4, +5
_PAYLOAD = 8
_SORT0 = 16  # +16 + round

#: Destination key used for dummy (padding) messages: strictly larger than
#: any real destination, so dummies sort to the end.
def _dummy_key(p: int) -> int:
    return p


# ---------------------------------------------------------------------------
# Run-length monoid (Step 3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSummary:
    """Associative summary of a key sequence for longest-equal-run queries.

    ``empty`` summaries are the monoid identity; ``uniform`` marks
    sequences consisting of a single run.

    .. warning::
       The monoid is associative but **not commutative** — combines must
       follow the sequence's concatenation order.  Reductions whose
       combine order is a permutation of the block order (e.g. CB's
       DFS-preorder tree) must not use it for cross-processor runs; the
       routing protocol therefore computes ``s`` with the commutative
       destination-count merge instead.  This type remains available for
       order-respecting scans and is used by the BSP stalling-cycle
       simulation's *ordered* reduction path.
    """

    first: Any = None
    first_len: int = 0
    last: Any = None
    last_len: int = 0
    best: int = 0
    uniform: bool = True
    empty: bool = True


def summarize_block(keys: Sequence[Any]) -> RunSummary:
    """Summary of one processor's (already key-sorted) block."""
    if not keys:
        return RunSummary()
    first = keys[0]
    first_len = 1
    i = 1
    while i < len(keys) and keys[i] == first:
        first_len += 1
        i += 1
    last = keys[-1]
    last_len = 1
    j = len(keys) - 2
    while j >= 0 and keys[j] == last:
        last_len += 1
        j -= 1
    best = 0
    run_val, run_len = first, 0
    for k in keys:
        if k == run_val:
            run_len += 1
        else:
            best = max(best, run_len)
            run_val, run_len = k, 1
    best = max(best, run_len)
    return RunSummary(
        first=first,
        first_len=first_len,
        last=last,
        last_len=min(last_len, len(keys)),
        best=best,
        uniform=(first == last and best == len(keys)),
        empty=False,
    )


def combine_runs(a: RunSummary, b: RunSummary) -> RunSummary:
    """Monoid combine: summary of the concatenation ``a ++ b``."""
    if a.empty:
        return b
    if b.empty:
        return a
    bridge = a.last_len + b.first_len if a.last == b.first else 0
    best = max(a.best, b.best, bridge)
    first_len = a.first_len + (b.first_len if a.uniform and a.last == b.first else 0)
    last_len = b.last_len + (a.last_len if b.uniform and a.last == b.first else 0)
    uniform = a.uniform and b.uniform and a.first == b.last and a.last == b.first
    return RunSummary(
        first=a.first,
        first_len=first_len,
        last=b.last,
        last_len=last_len,
        best=max(best, first_len, last_len),
        uniform=uniform,
        empty=False,
    )


def _merge_counts(a: dict, b: dict) -> dict:
    """Commutative merge of destination-count dictionaries (Step 3)."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


# ---------------------------------------------------------------------------
# The protocol
# ---------------------------------------------------------------------------

@dataclass
class RouteOutcome:
    """Per-processor outcome of one deterministic routing run."""

    received: list[Message]
    r: int
    s: int
    h: int
    phase_clocks: dict[str, int] = field(default_factory=dict)
    sort_scheme: str = "none"


def _overrun(ctx: LogPContext, slot: int) -> AssertionError:
    """A pinned submission's slot is already past when its ``WaitUntil``
    would be issued."""
    return AssertionError(
        f"slot schedule overrun: processor {ctx.pid} at clock "
        f"{ctx.clock} cannot submit at slot {slot}"
    )


def _drift(slot: int, t_acc: int) -> AssertionError:
    """A pinned submission was accepted off its slot (the engine-verified
    half of pinning: the schedule promised a stall-free slot)."""
    return AssertionError(
        f"pinned submission drifted: wanted slot {slot}, accepted at {t_acc}"
    )


def deterministic_route(
    ctx: LogPContext,
    outgoing: Sequence[tuple[int, Any]],
    *,
    tag_ns: int = 1 << 16,
) -> Generator[Any, Any, RouteOutcome]:
    """Route one h-relation; every processor calls this with its own
    ``outgoing`` list of ``(dest, payload)`` pairs.

    Returns a :class:`RouteOutcome` whose ``received`` holds the messages
    addressed to this processor (as :class:`~repro.models.message.Message`
    with original ``src``).  The collective degree ``h`` need *not* be
    known in advance — computing it on-line is the point of the protocol.
    """
    p = ctx.p
    params: LogPParams = ctx.params
    G, o, L = params.G, params.o, params.L
    phases: dict[str, int] = {"start": ctx.clock}
    for dest, _ in outgoing:
        if not 0 <= dest < p:
            raise ProgramError(f"invalid destination {dest} (p={p})")

    # ---- Step 1: r = max messages held, via CB(max) -----------------------
    r_local = len(outgoing)
    r, dl1 = yield from cb_with_deadline(
        ctx, r_local, max, tag_base=tag_ns + _CB_R, op_cost=1
    )
    phases["r_known"] = ctx.clock
    if r == 0:
        return RouteOutcome(received=[], r=0, s=0, h=0, phase_clocks=phases)

    dummy = _dummy_key(p)
    # Records carried through the sort: (dest_key, src, seq, payload).
    # (src, seq) makes the sort key a *total* order — merge-split pairs
    # must agree on the rank of every record, including ties on the
    # destination, no matter in which order the partner's messages
    # happened to arrive (delivery order is nondeterministic).
    block: list[tuple[int, int, int, Any]] = [
        (dest, ctx.pid, seq, payload) for seq, (dest, payload) in enumerate(outgoing)
    ]
    block.extend((dummy, ctx.pid, r_local + i, None) for i in range(r - r_local))

    # ---- Step 2: sort by destination -------------------------------------
    # Two schemes, as in the paper (AKS for small r, Cubesort for large r):
    # the bitonic merge-split network, or Columnsort once its validity
    # regime r >= 2(p-1)^2 makes it the cheaper choice.  The decision is a
    # pure function of (r, p, params), so all processors agree.
    dest_key = lambda rec: (rec[0], rec[1], rec[2])  # total order (see above)
    tsort_local = t_seq_sort(r, p + 1)
    schedule = sorting_schedule(p) if p > 1 else []
    # Per-round budget of the network scheme: r paced sends + r paced
    # acquisitions + latency + the merge's Compute(r) + alignment slack.
    span = 2 * r * G + L + 4 * o + 2 * G + r
    use_columnsort = (
        p > 1
        and columnsort_valid(r, p)
        and columnsort_total_span(r, p, params) < tsort_local + len(schedule) * span
    )
    if use_columnsort:
        block = yield from logp_columnsort(
            ctx,
            block,
            key=dest_key,
            tag_base=tag_ns + _SORT0,
            start_time=dl1 + G,
        )
    else:
        block.sort(key=dest_key)
        yield Compute(tsort_local)
        # Global slotting: round t's j-th submission happens at
        # sort0 + t*span + j*G for every processor, so per-destination
        # traffic is G-paced and the capacity constraint holds stall-free.
        sort0 = dl1 + tsort_local + 2 * (G + o)
        for t, rnd in enumerate(schedule):
            action = rnd[ctx.pid]
            if action is None:
                continue
            partner, keep_low = action
            base = sort0 + t * span
            tag = tag_ns + _SORT0 + t
            # Each record is submitted exactly at its slot: WaitUntil
            # its preparation start, then a Send accepted at the slot.
            for j, rec in enumerate(block):
                slot = base + j * G
                if ctx.clock > slot - o:
                    raise _overrun(ctx, slot)
                yield WaitUntil(slot - o)
                t_acc = yield Send(partner, rec, tag=tag)
                if t_acc != slot:
                    raise _drift(slot, t_acc)
            msgs = yield from recv_n_tagged(ctx, tag, r)
            theirs = sorted((m.payload for m in msgs), key=dest_key)
            block = merge_split(block, theirs, keep_low, key=dest_key)
            yield Compute(r)
    phases["sorted"] = ctx.clock

    # ---- Step 3: s = max messages per destination, via CB -----------------
    # The associative operator must be order-immune: CB's k-ary tree
    # combines the processors' contributions in DFS preorder, which is a
    # *permutation* of the rank order, so a sequence-sensitive operator
    # (e.g. the run-length monoid over the sorted concatenation) silently
    # miscounts runs that span non-adjacent processors.  Destination-count
    # merging is commutative, hence order-proof; each processor scans its
    # r records once (the paper's "Step 3 ... in time r + T_CB").
    local_counts: dict[int, int] = {}
    for rec in block:
        if rec[0] != dummy:
            local_counts[rec[0]] = local_counts.get(rec[0], 0) + 1
    yield Compute(r)
    all_counts, dl3 = yield from cb_with_deadline(
        ctx, local_counts, _merge_counts, tag_base=tag_ns + _CB_S, op_cost=1
    )
    s = max(all_counts.values(), default=0)
    phases["s_known"] = ctx.clock

    # ---- Step 4: h pipelined routing cycles --------------------------------
    h = max(r, s)
    t_start = dl3 + G + o
    received: list[Message] = []
    # Collect any payload messages a previous phase stashed (defensive; the
    # schedule should make this impossible, see module docstring).
    for i in range(len(ctx._stash) - 1, -1, -1):
        if ctx._stash[i].tag == tag_ns + _PAYLOAD:
            received.append(ctx._stash.pop(i))
    if h > 0:
        to_send: list[tuple[int, int, Any]] = []  # (cycle, dest, payload)
        for q, rec in enumerate(block):
            dest_id, src, _seq, payload = rec
            if dest_id == dummy:
                continue
            cycle = (ctx.pid * r + q) % h
            if dest_id == ctx.pid:
                # Local delivery: the model has no self-messages.
                received.append(Message(src, ctx.pid, payload, tag_ns + _PAYLOAD))
                continue
            to_send.append((cycle, dest_id, (src, payload)))
        # Ranks mod h wrap within a block, so sort by cycle to issue the
        # pinned submissions in increasing slot order.
        to_send.sort()

        def take(msg) -> None:
            if msg.tag != tag_ns + _PAYLOAD:
                ctx._stash.append(msg)
                return
            m_src, m_payload = msg.payload
            received.append(Message(m_src, ctx.pid, m_payload, tag_ns + _PAYLOAD))

        # The paper charges this phase 2o + G(h-1) + L with the receiver
        # acquiring *concurrently* with its own sends.  When the model
        # leaves room for an acquisition inside a submission gap, poll
        # between pinned sends; otherwise fall back to a pure post-drain
        # (constant-factor loss only).  ``last_acq`` is a conservative
        # program-side upper bound on the engine's last acquisition start,
        # so a successful poll provably completes by ``slot - o`` and the
        # pinned submission cannot drift.
        interleave = 2 * o + 1 <= G
        last_acq = ctx.clock
        for cycle, dest_id, body in to_send:
            slot = t_start + cycle * G
            if interleave:
                # +1 reserves the cost of a failed poll itself.
                while max(ctx.clock, last_acq + G) + o + 1 <= slot - o:
                    msg = yield TryRecv()
                    if msg is None:
                        continue  # poll again (costs one step each time)
                    last_acq = ctx.clock - o
                    take(msg)
            if ctx.clock > slot - o:
                raise _overrun(ctx, slot)
            yield WaitUntil(slot - o)
            t_acc = yield Send(dest_id, body, tag=tag_ns + _PAYLOAD)
            if t_acc != slot:
                raise _drift(slot, t_acc)
        t_end = t_start + (h - 1) * G + L + 1
        # Drain the remainder: the schedule bounds every delivery by
        # t_end, so polling until then provably collects everything
        # ("making each processor aware of termination", as the paper
        # requires of this phase).
        while True:
            msg = yield TryRecv()
            if msg is None:
                if ctx.clock >= t_end:
                    break
                continue
            take(msg)
    phases["done"] = ctx.clock
    return RouteOutcome(
        received=received,
        r=r,
        s=s,
        h=h,
        phase_clocks=phases,
        sort_scheme="columnsort" if use_columnsort else "bitonic",
    )


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------

@dataclass
class DetRoutingMeasurement:
    """A full deterministic-routing run and its phase timing."""

    params: LogPParams
    outcomes: list[RouteOutcome]
    result: LogPResult

    @property
    def r(self) -> int:
        return self.outcomes[0].r

    @property
    def s(self) -> int:
        return self.outcomes[0].s

    @property
    def h(self) -> int:
        return self.outcomes[0].h

    @property
    def total_time(self) -> int:
        return self.result.makespan

    def phase_time(self, phase: str) -> int:
        """Max over processors of the clock at the end of ``phase``."""
        return max(o.phase_clocks[phase] for o in self.outcomes)


def measure_det_routing(
    params: LogPParams,
    pairs: Sequence[tuple[int, int]],
    *,
    machine_kwargs: dict | None = None,
) -> DetRoutingMeasurement:
    """Route the relation ``pairs`` (list of ``(src, dest)``) and verify
    delivery: every pair must arrive exactly once, payloads intact.

    The machine runs with ``forbid_stalling=True`` — the protocol is
    stall-free by construction and this harness enforces it.
    """
    p = params.p
    outgoing: list[list[tuple[int, Any]]] = [[] for _ in range(p)]
    for idx, (src, dest) in enumerate(pairs):
        outgoing[src].append((dest, ("pkt", idx)))

    def make_prog(pid: int):
        def prog(ctx: LogPContext):
            outcome = yield from deterministic_route(ctx, outgoing[pid])
            return outcome

        return prog

    machine = LogPMachine(params, forbid_stalling=True, **(machine_kwargs or {}))
    result = machine.run([make_prog(pid) for pid in range(p)])
    outcomes: list[RouteOutcome] = list(result.results)

    # Delivery verification.
    expected: dict[int, set[int]] = {}
    for idx, (_src, dest) in enumerate(pairs):
        expected.setdefault(dest, set()).add(idx)
    for pid, outcome in enumerate(outcomes):
        got = {m.payload[1] for m in outcome.received}
        want = expected.get(pid, set())
        if got != want:
            raise ProgramError(
                f"delivery mismatch at processor {pid}: missing "
                f"{sorted(want - got)[:5]}, spurious {sorted(got - want)[:5]}"
            )
    return DetRoutingMeasurement(params=params, outcomes=outcomes, result=result)
