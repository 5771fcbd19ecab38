"""Pseudo-streaming supersteps: bounded fast memory as a transformer.

Buurlage et al. (arXiv:1608.07200) model accelerator-shaped machines
where each processor's *fast* memory holds far less than an arbitrary
``h``-relation: a BSP superstep whose ``h`` exceeds the fast-memory
budget must be *streamed* — split into rounds, each moving at most a
chunk of the relation, with a barrier between rounds.

:func:`pseudo_stream` implements that as a **program transformer**: it
wraps any inbox-order-insensitive BSP program and replaces every
original superstep boundary with ``rounds = ceil(h_bound / chunk)``
chunked boundaries.  The wrapped program is driven through a proxy
:class:`~repro.bsp.program.BSPContext`; ``Compute`` charges pass
through, ``Send``s are buffered and released at most ``chunk`` per
round, and every message received during the rounds of one original
boundary is accumulated and delivered to the inner program at its
original superstep index — so the inner program cannot tell it is being
streamed (it only ever sees whole supersteps), and results are
bit-identical to the unstreamed run.

``h_bound`` must be a data-independent per-processor bound on the
original program's ``h_send`` per superstep (all processors must agree
on the round count — it is the analytic ``h`` bound of the workload,
e.g. ``p - 1`` for an all-gather).  The transformer *proves* the bound
at runtime: a processor buffering more than ``rounds·chunk`` sends
raises :class:`~repro.errors.ProgramError` instead of silently
overflowing its fast memory.

The analytic superstep-count bound (checked exactly by the streamed
workloads' cost models)::

    streamed = (base_supersteps - trailing) * ceil(h_bound / chunk) + trailing

where ``trailing`` is 1 if the base program ends with a charged drain
row after its last Sync (work but no communication), else 0 — drain
rows move no data, so streaming never splits them.  ``python -m
repro.experiments run PS`` (the ``streaming_bound`` table) measures it
on both streamed workloads.
"""

from __future__ import annotations

from repro.errors import ProgramError
from repro.workloads.registry import Workload, register

__all__ = [
    "pseudo_stream",
    "stream_rounds",
    "streamed_supersteps",
    "sample_sort_h_bound",
    "register_builtin_streaming",
]


def stream_rounds(h_bound: int, chunk: int) -> int:
    """Rounds one original boundary expands into: ``ceil(h_bound/chunk)``
    (at least 1 — a superstep with no data still needs its barrier)."""
    if chunk < 1:
        raise ProgramError(f"pseudo_stream needs chunk >= 1, got {chunk}")
    return max(1, -(-int(h_bound) // int(chunk)))


def streamed_supersteps(base: int, trailing: int, h_bound: int, chunk: int) -> int:
    """The analytic superstep count of the streamed program."""
    return (base - trailing) * stream_rounds(h_bound, chunk) + trailing


def pseudo_stream(base_program, chunk: int, h_bound: int):
    """Wrap ``base_program`` so every superstep moves at most ``chunk``
    messages per processor (see module docstring).

    The base program must be insensitive to inbox *ordering* within a
    superstep (e.g. it sorts or indexes received payloads by source) —
    streaming delivers the same per-superstep message multiset,
    interleaved by round.
    """
    from repro.bsp.program import BSPContext, Compute, Send, Sync

    rounds = stream_rounds(h_bound, chunk)

    def prog(ctx: BSPContext):
        inner = BSPContext(ctx.pid, ctx.p)
        gen = base_program(inner)
        step = 0
        try:
            item = next(gen)
            while True:
                # Local phase of one inner superstep: pass Computes
                # through, buffer Sends until the inner program Syncs.
                sends: list[Send] = []
                while not isinstance(item, Sync):
                    if isinstance(item, Compute):
                        yield item
                    elif isinstance(item, Send):
                        sends.append(item)
                    else:
                        raise ProgramError(
                            f"pseudo_stream: unknown instruction {item!r}"
                        )
                    item = gen.send(None)
                if len(sends) > rounds * chunk:
                    raise ProgramError(
                        f"pseudo_stream: processor {ctx.pid} buffered "
                        f"{len(sends)} sends in one superstep, exceeding "
                        f"rounds·chunk = {rounds}·{chunk} — h_bound "
                        f"{h_bound} is not a valid per-superstep bound"
                    )
                # Stream the boundary: <= chunk sends per round, with a
                # barrier after each; arrivals (from any round — peers
                # run the same round count in lockstep) accumulate until
                # the inner program's next superstep begins.
                buffered = []
                for rnd in range(rounds):
                    for s in sends[rnd * chunk : (rnd + 1) * chunk]:
                        yield s
                    yield Sync()
                    buffered.extend(ctx.recv_all(None))
                step += 1
                inner._begin_superstep(step, buffered)
                item = gen.send(None)
        except StopIteration as stop:
            return stop.value

    return prog


# -- streamed workload entries ----------------------------------------


def _stream_sample_sort_factory(p, seed, keys_per_proc=32, chunk=8, key_range=1 << 16):
    from repro.programs import bsp_sample_sort_unit_program

    base = bsp_sample_sort_unit_program(keys_per_proc, key_range=key_range, seed=seed)
    return pseudo_stream(base, chunk, sample_sort_h_bound(p, keys_per_proc))


def sample_sort_h_bound(p: int, r: int) -> int:
    """Data-independent per-processor h_send bound for the word-accurate
    sample sort: the root's splitter scatter ``(p-1)²``, the ``p``
    samples, or the full local block ``r`` leaving in the exchange."""
    return max(p, (p - 1) ** 2, r)


def _stream_sample_sort_cost(result, p, params):
    r, chunk = int(params["keys_per_proc"]), int(params["chunk"])
    predicted = streamed_supersteps(4, 1, sample_sort_h_bound(p, r), chunk)
    max_send = max((rec.h_send for rec in result.ledger), default=0)
    return [
        ("supersteps == 3·rounds + 1", result.num_supersteps, predicted, "exact"),
        ("every h_send <= chunk (fast-memory bound)", max_send, chunk, "upper"),
    ]


def _stream_sample_sort_validate(result, p, params):
    from repro.programs import sorted_input_keys

    expected = sorted_input_keys(
        p, int(params["keys_per_proc"]), int(params["key_range"]), int(params["seed"])
    )
    got = [k for pid in range(p) for k in result.results[pid]]
    assert got == expected, "streamed sample sort output is not the sorted input"


def _stream_matvec_factory(p, seed, n=16, chunk=2):
    from repro.programs import bsp_matvec_program

    return pseudo_stream(bsp_matvec_program(n, seed=seed), chunk, p - 1)


def _stream_matvec_cost(result, p, params):
    chunk = int(params["chunk"])
    n = int(params["n"])
    predicted = streamed_supersteps(2, 1, p - 1, chunk)
    max_send = max((rec.h_send for rec in result.ledger), default=0)
    return [
        ("supersteps == rounds + 1", result.num_supersteps, predicted, "exact"),
        ("every h_send <= chunk (fast-memory bound)", max_send, chunk, "upper"),
        ("product w == (n/p)·n", result.ledger[-1].w, (n // p) * n, "exact"),
    ]


def _stream_matvec_validate(result, p, params):
    import numpy as np

    from repro.util.rng import make_rng

    n, seed = int(params["n"]), int(params["seed"])
    rows = n // p
    blocks, slices = [], []
    for pid in range(p):
        rng = make_rng(seed * 7919 + pid)
        blocks.append(rng.random((rows, n)))
        slices.append(rng.random(rows))
    x = np.concatenate(slices)
    for pid in range(p):
        expected = [float(v) for v in blocks[pid] @ x]
        assert result.results[pid] == expected, f"streamed matvec mismatch at {pid}"


def register_builtin_streaming() -> None:
    """Register the two streamed workloads (idempotent via replace)."""
    entries = [
        Workload(
            name="stream-sample-sort",
            family="streaming",
            model="bsp",
            description=(
                "Sample sort under a fast-memory budget: every superstep "
                "moves at most `chunk` words per processor."
            ),
            factory=_stream_sample_sort_factory,
            space={"p": (2, 4), "keys_per_proc": (16, 32), "chunk": (4, 8, 16),
                   "key_range": (1 << 16,)},
            quick={"p": (2, 4), "keys_per_proc": (16,), "chunk": (8,)},
            defaults={"p": 4, "keys_per_proc": 32, "chunk": 8,
                      "key_range": 1 << 16},
            cost_model=_stream_sample_sort_cost,
            validate=_stream_sample_sort_validate,
            supports=lambda p, params: p >= 2
            and int(params["keys_per_proc"]) >= p,
        ),
        Workload(
            name="stream-matvec",
            family="streaming",
            model="bsp",
            description=(
                "Matrix-vector product whose all-gather is streamed in "
                "`chunk`-word rounds."
            ),
            factory=_stream_matvec_factory,
            space={"p": (2, 4, 8), "n": (16, 32), "chunk": (1, 2, 4)},
            quick={"p": (4,), "n": (16,), "chunk": (1, 2)},
            defaults={"p": 4, "n": 16, "chunk": 2},
            cost_model=_stream_matvec_cost,
            validate=_stream_matvec_validate,
            supports=lambda p, params: p >= 2 and int(params["n"]) % p == 0,
        ),
    ]
    for w in entries:
        register(w, replace=True)
