"""BSP sorting-regime programs (Gerbessiotis & Siniolakis, arXiv:1408.6729).

Three sorters over the same key distribution, written so their ledgers
are *word-accurate*: every exchanged key is its own message, so a
superstep's ``h`` is the number of words moved — the quantity the
regime analysis compares.  (The original
:func:`~repro.programs.bsp_examples.bsp_sample_sort_program` sends whole
buckets as single messages; it stays untouched for the golden traces,
and :func:`bsp_sample_sort_unit_program` here is its word-accurate
twin, drawing the identical keys.)

The regime story the three cover:

* **sample sort** — O(1) supersteps, but pays a ``p^2``-word sample
  gather and a ``(p-1)^2``-word splitter scatter; wins at large ``n/p``.
* **bitonic merge-split** — ``log2(p) (log2(p)+1)/2`` rounds, each an
  exact ``r``-relation; no ``p^2`` term, so it wins at small ``n/p``
  where the sample overhead dominates.
* **Columnsort** — 4 fixed ``~r``-relations, valid only once
  ``r >= 2 (p-1)^2``; asymptotically between the two.

``python -m repro.experiments run SRT`` sweeps these over ``n/p`` and
reports the sample-sort/bitonic cost crossover.
"""

from __future__ import annotations

from repro.bsp.program import BSPContext, Compute, Send, Sync
from repro.sorting.bitonic import bitonic_schedule
from repro.sorting.columnsort import columnsort_valid, transpose_dest, untranspose_dest
from repro.sorting.merge_split import merge_split
from repro.util.rng import make_rng

__all__ = [
    "bsp_bitonic_sort_program",
    "bsp_columnsort_program",
    "bsp_sample_sort_unit_program",
    "sorted_input_keys",
]


def _sort_cost(k: int) -> int:
    """The ``k log k`` charge every local sort in this module uses."""
    return k * max(1, k.bit_length())


def sorted_input_keys(p: int, keys_per_proc: int, key_range: int, seed: int) -> list[int]:
    """The globally sorted reference output all three sorters must
    produce: processor ``i`` draws with the sample-sort seed formula."""
    keys: list[int] = []
    for pid in range(p):
        rng = make_rng(seed * 99991 + pid)
        keys.extend(int(k) for k in rng.integers(0, key_range, size=keys_per_proc))
    return sorted(keys)


def bsp_bitonic_sort_program(keys_per_proc: int, key_range: int = 1 << 16, seed: int = 0):
    """Bitonic merge-split sort: ``log2(p)(log2(p)+1)/2`` compare-exchange
    rounds, each moving exactly ``r = keys_per_proc`` words per processor.

    Requires a power-of-two ``p``.  Processor ``i`` returns the ``i``-th
    sorted block; the concatenation over processors is sorted.
    """
    r = keys_per_proc

    def prog(ctx: BSPContext):
        p = ctx.p
        rng = make_rng(seed * 99991 + ctx.pid)
        block = sorted(int(k) for k in rng.integers(0, key_range, size=r))
        yield Compute(_sort_cost(r))
        if p == 1:
            return block
        for rnd in bitonic_schedule(p):
            partner, keep_low = rnd[ctx.pid]
            for k in block:
                yield Send(partner, k, tag=70)
            yield Sync()
            theirs = sorted(ctx.recv_payloads(70))
            block = merge_split(block, theirs, keep_low)
            yield Compute(2 * r)
        return block

    return prog


def bsp_columnsort_program(keys_per_proc: int, key_range: int = 1 << 16, seed: int = 0):
    """Leighton's Columnsort: 4 permutation supersteps around local sorts.

    Processor ``j`` holds column ``j`` (``r`` keys, column-major).  Valid
    only when ``r >= 2 (p-1)^2``; the factory raises early otherwise so
    sweeps can skip invalid grid points loudly.  The shift steps (6-8)
    keep the overflow column on processor ``p - 1``, mirroring
    :func:`repro.sorting.columnsort.columnsort` cell for cell.
    """
    r = keys_per_proc

    def prog(ctx: BSPContext):
        p = ctx.p
        if not columnsort_valid(r, p):
            raise ValueError(
                f"columnsort requires keys_per_proc >= 2(p-1)^2; got r={r}, "
                f"p={p} (needs r >= {2 * (p - 1) ** 2})"
            )
        pid = ctx.pid
        rng = make_rng(seed * 99991 + pid)
        block = sorted(int(k) for k in rng.integers(0, key_range, size=r))
        yield Compute(_sort_cost(r))
        if p == 1:
            return block

        def route(dest_of):
            """One permutation superstep: key with in-column index ``i``
            has column-major rank ``pid*r + i``; ship it to the owner of
            its destination rank (self-destined keys stay local)."""
            kept = []
            for i, k in enumerate(block):
                dest = dest_of(pid * r + i) // r
                if dest == pid:
                    kept.append(k)
                else:
                    yield Send(dest, k, tag=71)
            yield Sync()
            return kept + ctx.recv_payloads(71)

        # steps 2-3: transpose, sort
        block = yield from route(lambda x: transpose_dest(x, r, p))
        block.sort()
        yield Compute(_sort_cost(r))
        # steps 4-5: untranspose, sort
        block = yield from route(lambda x: untranspose_dest(x, r, p))
        block.sort()
        yield Compute(_sort_cost(r))

        # step 6: shift down by half into p+1 virtual columns; the
        # overflow column p lives on processor p-1.
        half = r // 2
        mine: list[tuple[int, int]] = []  # (shifted column, key)
        for i, k in enumerate(block):
            col = (pid * r + i + half) // r
            dest = min(col, p - 1)
            if dest == pid:
                mine.append((col, k))
            else:
                yield Send(dest, (col, k), tag=72)
        yield Sync()
        mine.extend(m.payload for m in ctx.recv_all(72))
        # step 7: sort each shifted column I hold (virtual +-inf pads sort
        # to the outside and are simply absent).
        cols: dict[int, list[int]] = {}
        for col, k in mine:
            cols.setdefault(col, []).append(k)
        for col in cols:
            cols[col].sort()
        yield Compute(_sort_cost(max((len(c) for c in cols.values()), default=1)))
        # step 8: unshift — mirror the reference implementation's index
        # arithmetic exactly (column 0's keys sit above the -inf pad).
        final = []
        for col, keys in cols.items():
            for idx, k in enumerate(keys):
                g = idx if col == 0 else col * r + idx - half
                dest = g // r
                if dest == pid:
                    final.append(k)
                else:
                    yield Send(dest, k, tag=73)
        yield Sync()
        final.extend(ctx.recv_payloads(73))
        final.sort()
        yield Compute(_sort_cost(r))
        return final

    return prog


def bsp_sample_sort_unit_program(
    keys_per_proc: int, key_range: int = 1 << 16, seed: int = 0
):
    """Word-accurate direct sample sort: same four supersteps and the
    same drawn keys as :func:`~repro.programs.bsp_examples.
    bsp_sample_sort_program`, but samples, splitters, and exchanged keys
    travel one word per message so the ledger's ``h`` counts words — the
    ``p^2``-word sample gather the SRT regimes table charges for.
    """
    r = keys_per_proc

    def prog(ctx: BSPContext):
        p = ctx.p
        rng = make_rng(seed * 99991 + ctx.pid)
        keys = sorted(int(k) for k in rng.integers(0, key_range, size=r))
        yield Compute(_sort_cost(r))
        if p == 1:
            return keys

        # Step 2: regular samples -> processor 0, one word per message.
        step = max(1, r // p)
        samples = keys[::step][:p]
        for s in samples:
            yield Send(0, s, tag=80)
        yield Sync()
        if ctx.pid == 0:
            pool = sorted(ctx.recv_payloads(80))
            yield Compute(_sort_cost(len(pool)))
            stride = max(1, len(pool) // p)
            splitters = pool[stride::stride][: p - 1]
            for dest in range(1, p):
                for s in splitters:
                    yield Send(dest, s, tag=81)
            yield Sync()
        else:
            yield Sync()
            splitters = sorted(ctx.recv_payloads(81))

        # Step 3: partition and exchange, one key per message.
        import bisect

        buckets: list[list[int]] = [[] for _ in range(p)]
        for k in keys:
            buckets[bisect.bisect_right(splitters, k)].append(k)
        yield Compute(r)
        for dest in range(p):
            if dest != ctx.pid:
                for k in buckets[dest]:
                    yield Send(dest, k, tag=82)
        yield Sync()
        mine = list(buckets[ctx.pid])
        mine.extend(ctx.recv_payloads(82))
        mine.sort()
        yield Compute(_sort_cost(len(mine)))
        return mine

    return prog
