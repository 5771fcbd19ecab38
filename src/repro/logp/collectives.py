"""Program-level helpers and generic collectives for LogP programs.

Tag dispatch
------------
LogP acquisitions are strictly FIFO in delivery order, so a program that
participates in several protocol phases may acquire a later phase's
message while waiting for an earlier one.  :func:`recv_tag` implements
standard tag matching *at the program level*: mismatching messages are
acquired (paying ``o`` and the gap like any acquisition) and stashed in
the context for whoever asks for them later.  Protocol code built on
``recv_tag`` is therefore robust to arbitrary admissible delivery orders.

Collectives
-----------
Generic k-ary combining/broadcast trees used by example programs and by
tests.  The paper's own Combine-and-Broadcast algorithm of Section 4.1 —
with its specific arity choice and its slotted ``ceil(L/G)=1`` variant —
lives in :mod:`repro.core.cb`; the helpers here are the unopinionated
building blocks.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, TypeVar

from repro.logp.instructions import Compute, LogPContext, Recv, Send, WaitUntil
from repro.models.message import Message
from repro.perf.memo import plan_cache

__all__ = [
    "recv_tag",
    "recv_n_tagged",
    "send_paced",
    "binomial_broadcast",
    "optimal_broadcast",
    "optimal_broadcast_schedule",
    "binary_tree_reduce",
    "kary_tree_children",
    "kary_tree_parent",
    "scatter",
    "gather",
    "ring_allgather",
]

T = TypeVar("T")

#: The one ``Recv`` the tag-dispatch helpers yield: the machine reads an
#: instruction once and never mutates it, so a shared value is safe.
_RECV = Recv()


def recv_tag(ctx: LogPContext, tag: int) -> Generator[Any, Any, Message]:
    """Acquire messages until one carries ``tag``; stash the rest.

    Checks the context stash first, so messages acquired while looking for
    a different tag are not lost.
    """
    for i, msg in enumerate(ctx._stash):
        if msg.tag == tag:
            return ctx._stash.pop(i)
    while True:
        msg = yield _RECV
        if msg.tag == tag:
            return msg
        ctx._stash.append(msg)


def recv_n_tagged(ctx: LogPContext, tag: int, n: int) -> Generator[Any, Any, list[Message]]:
    """Acquire exactly ``n`` messages carrying ``tag`` (stash-aware).

    The same acquisitions as ``n`` calls of :func:`recv_tag`: stashed
    matches first, in stash order, then fresh acquisitions, stashing the
    mismatches (which can never match ``tag`` later).
    """
    out: list[Message] = []
    stash = ctx._stash
    i = 0
    while i < len(stash) and len(out) < n:
        if stash[i].tag == tag:
            out.append(stash.pop(i))
        else:
            i += 1
    while len(out) < n:
        msg = yield _RECV
        if msg.tag == tag:
            out.append(msg)
        else:
            stash.append(msg)
    return out


def send_paced(
    ctx: LogPContext, items: Iterable[tuple[int, Any]], tag: int = 0
) -> Generator[Any, Any, int]:
    """Send ``(dest, payload)`` pairs back to back.

    The machine already enforces the gap ``G`` between submissions, so
    back-to-back ``Send`` instructions are automatically paced one
    submission every ``G`` steps — the pattern used throughout Section 4's
    routing cycles.  Returns the number of messages sent.
    """
    n = 0
    for dest, payload in items:
        yield Send(dest, payload, tag=tag)
        n += 1
    return n


# ---------------------------------------------------------------------------
# k-ary tree shape (used by the generic collectives and by core.cb)
# ---------------------------------------------------------------------------

def kary_tree_parent(rank: int, k: int) -> int | None:
    """Parent of ``rank`` in the complete k-ary tree rooted at 0."""
    if rank == 0:
        return None
    return (rank - 1) // k


def kary_tree_children(rank: int, k: int, p: int) -> list[int]:
    """Children of ``rank`` in the complete k-ary tree on ``p`` nodes."""
    first = k * rank + 1
    return [c for c in range(first, min(first + k, p))]


# ---------------------------------------------------------------------------
# Generic collectives
# ---------------------------------------------------------------------------

def binomial_broadcast(
    ctx: LogPContext, value: T | None, root: int = 0, tag: int = 901
) -> Generator[Any, Any, T]:
    """Binomial-tree broadcast: each informed processor keeps forwarding.

    This is the natural LogP broadcast shape (cf. Karp et al.'s optimal
    broadcast tree): an informed processor sends to progressively nearer
    ranks while earlier recipients forward in parallel.  Completes in
    ``O((L + o + G) log p)`` without stalling (every destination receives
    exactly one message).  Returns the value on every processor.
    """
    p = ctx.p
    if p == 1:
        return value  # type: ignore[return-value]
    rank = (ctx.pid - root) % p
    if rank != 0:
        msg = yield from recv_tag(ctx, tag)
        value = msg.payload
    # Highest power of two below p bounds the forwarding rounds.
    span = 1
    while span < p:
        span *= 2
    # rank r was informed at "level" = position of lowest set bit pattern:
    # forward to rank + span/2^j for decreasing spans past our own level.
    stride = span // 2
    while stride >= 1:
        if rank % (2 * stride) == 0 and rank + stride < p:
            dest = (rank + stride + root) % p
            yield Send(dest, value, tag=tag)
        stride //= 2
    return value  # type: ignore[return-value]


def optimal_broadcast_schedule(
    p: int, params, *, delivery_delay: int | None = None
) -> list[list[int]]:
    """The optimal single-item broadcast tree of Karp et al. (the paper's
    reference [17]), built greedily: at every moment, the processor that
    can *complete* a transmission earliest informs the next processor.

    Returns ``children[rank]`` — the ordered list of ranks each rank
    sends to (rank 0 is the root).  The shape depends on (L, o, G): for
    ``L + 2o <= G`` it degenerates to a star, for large ``L`` it
    approaches the binomial tree, and in between it is the skewed tree
    that makes this broadcast strictly faster than binomial.

    The tree is a pure function of ``(p, L, o, G)`` and every processor
    rebuilds it per broadcast, so it is memoized process-wide; treat the
    returned lists as read-only.
    """
    import heapq

    L = params.L if delivery_delay is None else delivery_delay
    o, G = params.o, params.G

    def build() -> list[list[int]]:
        children: list[list[int]] = [[] for _ in range(p)]
        if p <= 1:
            return children
        # heap of (next_submission_completion_time, rank)
        heap = [(o, 0)]
        informed = 1
        while informed < p:
            t_sub, rank = heapq.heappop(heap)
            child = informed
            informed += 1
            children[rank].append(child)
            ready = t_sub + L + o  # delivered by t_sub + L, acquired +o
            heapq.heappush(heap, (ready + o, child))  # child's first submission
            heapq.heappush(heap, (max(t_sub + G, t_sub + o), rank))
        return children

    return _BROADCAST_CACHE.get((p, L, o, G), build)


_BROADCAST_CACHE = plan_cache("broadcast-tree")


def optimal_broadcast(
    ctx: LogPContext, value: T | None, root: int = 0, tag: int = 905
) -> Generator[Any, Any, T]:
    """Broadcast along the Karp et al. optimal tree; returns the value
    everywhere.  Stall-free: every destination receives exactly one
    message."""
    p = ctx.p
    if p == 1:
        return value  # type: ignore[return-value]
    schedule = optimal_broadcast_schedule(p, ctx.params)
    rank = (ctx.pid - root) % p
    if rank != 0:
        msg = yield from recv_tag(ctx, tag)
        value = msg.payload
    for child in schedule[rank]:
        yield Send((child + root) % p, value, tag=tag)
    return value  # type: ignore[return-value]


def binary_tree_reduce(
    ctx: LogPContext,
    value: T,
    op: Callable[[T, T], T],
    root: int = 0,
    tag: int = 902,
    op_cost: int = 1,
    pace_base: int = 0,
) -> Generator[Any, Any, T | None]:
    """Binary-tree reduction to ``root``; returns the total at the root.

    Children are combined in rank order, so ``op`` may be merely
    associative (non-commutative ops are safe).

    When the capacity ``ceil(L/G)`` is 1, sends are paced onto per-level
    time slots (measured from ``pace_base``): in a sparse tree, a node
    with no children sends its high-level message immediately, which
    could otherwise overlap a sibling's level-0 message at the common
    parent and stall the single in-transit slot.
    """
    p = ctx.p
    params = ctx.params
    rank = (ctx.pid - root) % p
    acc = value
    slotted = params.capacity == 1
    level_span = params.L + 2 * params.o + 2 * params.G
    stride = 1
    while stride < p:
        if rank % (2 * stride) == 0:
            partner = rank + stride
            if partner < p:
                msg = yield from recv_tag(ctx, tag + _round_of(stride))
                acc = op(acc, msg.payload)
                if op_cost:
                    yield Compute(op_cost)
        elif rank % (2 * stride) == stride:
            parent = (rank - stride + root) % p
            if slotted:
                yield WaitUntil(pace_base + _round_of(stride) * level_span)
            yield Send(parent, acc, tag=tag + _round_of(stride))
            break
        stride *= 2
    return acc if rank == 0 else None


def _round_of(stride: int) -> int:
    return stride.bit_length() - 1


def scatter(
    ctx: LogPContext, values: list | None, root: int = 0, tag: int = 906
) -> Generator[Any, Any, Any]:
    """Root sends ``values[j]`` to processor ``j``; returns each
    processor's item.  ``p - 1`` paced submissions from the root —
    stall-free (distinct destinations)."""
    p = ctx.p
    if ctx.pid == root:
        if values is None or len(values) != p:
            raise ValueError(f"scatter root needs exactly p={p} values")
        for j in range(p):
            if j != root:
                yield Send(j, values[j], tag=tag)
        return values[root]
    msg = yield from recv_tag(ctx, tag)
    return msg.payload


def gather(
    ctx: LogPContext, value: T, root: int = 0, tag: int = 907
) -> Generator[Any, Any, list[T] | None]:
    """Everyone sends its value to ``root``; the root returns the list
    indexed by pid, others ``None``.

    The root is a deliberate hot spot: with ``p - 1 > ceil(L/G)`` the
    senders stall (by design — gather is inherently all-to-one; use a
    tree reduce when the combine operator allows it)."""
    p = ctx.p
    if ctx.pid != root:
        yield Send(root, (ctx.pid, value), tag=tag)
        return None
    out: list[Any] = [None] * p
    out[root] = value
    msgs = yield from recv_n_tagged(ctx, tag, p - 1)
    for m in msgs:
        pid, v = m.payload
        out[pid] = v
    return out


def ring_allgather(
    ctx: LogPContext, value: T, tag: int = 908
) -> Generator[Any, Any, list[T]]:
    """All-gather by ring rotation: ``p - 1`` rounds, each processor
    forwards the newest item to its right neighbor.  Bandwidth-optimal
    (every processor sends and receives exactly ``p - 1`` items) and
    stall-free (one in-flight message per destination)."""
    p = ctx.p
    out: list[Any] = [None] * p
    out[ctx.pid] = value
    if p == 1:
        return out
    right = (ctx.pid + 1) % p
    carry: tuple[int, Any] = (ctx.pid, value)
    for _ in range(p - 1):
        yield Send(right, carry, tag=tag)
        msg = yield from recv_tag(ctx, tag)
        carry = msg.payload
        out[carry[0]] = carry[1]
    return out
