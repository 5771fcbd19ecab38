"""Pluggable event queues for the discrete-event machine kernels.

Both queues order events by ``(time, kind, seq)`` where ``seq`` is a
global push counter — exactly the order the machines have always used —
so any two queues drive *bit-identical* executions.  They differ only in
how the next event is located:

* :class:`IndexedEventQueue` — the production kernel.  Events are bucketed
  per timestamp with a min-heap over bucket times, so the kernel *skips
  ahead* to the next actionable time and drains each timestamp as one
  sorted batch.  Cost: ``O(E log T_distinct)`` for ``E`` events.

* :class:`TickScanQueue` — the per-tick scanning reference kernel.  It
  advances the clock one tick at a time and, per tick, scans every
  processor's pending-event list for work due now — the classic simulator
  loop whose ``O(T * (p + in_flight))`` cost the event-driven kernel
  exists to avoid.  It is kept as the equivalence oracle for the golden
  trace suite and as the measured baseline of ``bench_kernel``.

Both hand a drive loop one sorted batch per timestamp
(:meth:`~IndexedEventQueue.next_batch`), which the loop walks in place;
:meth:`~IndexedEventQueue.pop` is the same order one event at a time.

Ordering contract (shared by both implementations):

* pushes during the drain of time ``t``'s batch may target ``t`` itself
  (e.g. a zero-overhead submission); they are inserted into the still
  undrained remainder in ``(kind, seq)`` position, matching what a heap
  would do;
* pushes into the past are only legal while the queue is *empty* (the
  machine's quiescence release re-seeds lingering processors at their own,
  possibly older, clocks); the queue then rewinds.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any

from repro.perf.counters import KernelCounters

__all__ = [
    "IndexedEventQueue",
    "TickScanQueue",
    "KERNELS",
    "make_event_queue",
]

#: Selectable kernel names, in (production, reference) order.  Suites
#: parameterized over this tuple (golden traces, ordering contract)
#: cover both.
KERNELS = ("event", "tick")


class _Batches:
    """What both queues share: the batch being drained and its cursor.

    A drive loop asks :meth:`next_batch` for the next timestamp's sorted
    batch of ``(kind, seq, pid, data)`` entries and walks it in place,
    keeping :attr:`cursor` at the index just past the entry it dispatches.
    A push at the batch's own time is insorted at or after the cursor,
    so it lands in ``(kind, seq)`` position among the undrained entries.
    The queue counts dispatched events from the cursor when it moves to
    the next batch, so the walk itself touches no counter.
    """

    def __init__(self, kernel: str) -> None:
        self.counters = KernelCounters(kernel=kernel)
        self._seq = 0  # pushes so far: every push draws the next seq
        self._done = 0  # events handled in earlier batches
        self._cur: list[tuple[int, int, int, Any]] = []
        #: Index, in the current batch, of the first undrained entry.
        self.cursor = 0

    def __len__(self) -> int:
        # Every push draws one seq, so pushes minus dispatched events is
        # what is pending.
        return self._seq - self._done - self.cursor

    def _drained(self) -> int:
        """Fold the drained batch into the event count; returns it."""
        done = self._done = self._done + self.cursor
        self.counters.events = done
        self.cursor = 0
        return done

    def pop(self) -> tuple[int, int, int, Any] | None:
        """Next event as ``(time, kind, pid, data)``, or ``None``: the
        per-event view of the batches, one entry at a time."""
        cur = self._cur
        i = self.cursor
        if i >= len(cur):
            if self.next_batch() is None:
                return None
            cur = self._cur
            i = 0
        self.cursor = i + 1
        self.counters.events += 1
        kind, _seq, pid, data = cur[i]
        return (self._time, kind, pid, data)


class IndexedEventQueue(_Batches):
    """Timestamp-indexed queue with skip-ahead and per-timestamp batches."""

    def __init__(self, p: int = 0) -> None:
        super().__init__("event")
        self._buckets: dict[int, list[tuple[int, int, int, Any]]] = {}
        self._times: list[int] = []  # min-heap; one live entry per bucket
        self._time: int | None = None
        self._prev_time: int | None = None

    def push(self, time: int, kind: int, pid: int, data: Any = None) -> None:
        seq = self._seq = self._seq + 1
        cur_time = self._time
        if cur_time is not None and time <= cur_time:
            if self.cursor < len(self._cur):
                # Mid-batch push: only the current timestamp is admissible.
                if time < cur_time:
                    raise ValueError(
                        f"push into the past: t={time} while draining "
                        f"t={cur_time}"
                    )
                insort(self._cur, (kind, seq, pid, data), lo=self.cursor)
                size = seq - self._done - self.cursor
                if size > self.counters.queue_highwater:
                    self.counters.queue_highwater = size
                return
            # Batch drained: a push at or before the current time re-seeds
            # the queue (quiescence release); rewind and bucket normally.
            self._time = None
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = []
            heapq.heappush(self._times, time)
        bucket.append((kind, seq, pid, data))
        size = seq - self._done - self.cursor
        if size > self.counters.queue_highwater:
            self.counters.queue_highwater = size

    def next_batch(self) -> tuple[int, list[tuple[int, int, int, Any]]] | None:
        """Skip ahead to the next timestamp holding events and return
        ``(time, batch)``, the batch sorted by ``(kind, seq)``; ``None``
        once the queue is empty.  Call it only when the current batch is
        drained."""
        self._drained()
        if not self._times:
            self._cur = []
            return None
        t = heapq.heappop(self._times)
        cur = self._cur = self._buckets.pop(t)
        cur.sort()
        self._time = t
        counters = self.counters
        counters.batches += 1
        prev = self._prev_time if self._prev_time is not None else -1
        if t - prev > 1:
            counters.ticks_skipped += t - prev - 1
        self._prev_time = t
        return t, cur

    def front_snapshot(self, n: int = 8) -> list[dict]:
        """The next (up to) ``n`` pending events, in processing order —
        the ``DeadlockError`` diagnostics' view of what the kernel would
        do next."""
        out: list[dict] = []
        for kind, _seq, pid, _data in self._cur[self.cursor :]:
            if len(out) >= n:
                return out
            out.append({"time": self._time, "kind": kind, "pid": pid})
        for t in sorted(self._buckets):
            for kind, _seq, pid, _data in sorted(self._buckets[t]):
                if len(out) >= n:
                    return out
                out.append({"time": t, "kind": kind, "pid": pid})
        return out


class TickScanQueue(_Batches):
    """Per-tick scanning reference kernel (the pre-event-queue semantics).

    Keeps one pending-event list per processor and, at every clock tick,
    scans all ``p`` lists for events due at that tick.  Never skips a
    tick: ``counters.batches`` counts every tick visited and
    ``counters.ticks_skipped`` stays 0 by construction.
    """

    def __init__(self, p: int) -> None:
        super().__init__("tick")
        self._p = p
        self._pending: list[list[tuple[int, int, int, Any]]] = [
            [] for _ in range(max(1, p))
        ]
        self._time = -1

    def push(self, time: int, kind: int, pid: int, data: Any = None) -> None:
        seq = self._seq = self._seq + 1
        if self.cursor < len(self._cur):
            if time < self._time:
                raise ValueError(
                    f"push into the past: t={time} while scanning t={self._time}"
                )
            if time == self._time:
                insort(self._cur, (kind, seq, pid, data), lo=self.cursor)
                self.counters.queue_highwater = max(
                    self.counters.queue_highwater, len(self)
                )
                return
        elif time <= self._time:
            # Quiescence release may re-seed behind the scan point.
            self._time = time - 1
        slot = pid if 0 <= pid < len(self._pending) else 0
        self._pending[slot].append((time, kind, seq, data))
        self.counters.queue_highwater = max(self.counters.queue_highwater, len(self))

    def next_batch(self) -> tuple[int, list[tuple[int, int, int, Any]]] | None:
        """Scan tick after tick until one has events due; return
        ``(time, batch)`` sorted by ``(kind, seq)``, or ``None`` once
        nothing is pending.  Call it only when the current batch is
        drained."""
        if self._drained() == self._seq:
            self._cur = []
            return None
        while True:
            self._time += 1
            self.counters.batches += 1
            due: list[tuple[int, int, int, Any]] = []
            # The per-tick scanning loop: visit every processor's
            # pending list at every single tick.
            for pid, events in enumerate(self._pending):
                if not events:
                    continue
                keep = []
                for time, kind, seq, data in events:
                    if time == self._time:
                        due.append((kind, seq, pid, data))
                    else:
                        keep.append((time, kind, seq, data))
                self._pending[pid] = keep
            if due:
                due.sort()
                self._cur = due
                return self._time, due

    def front_snapshot(self, n: int = 8) -> list[dict]:
        out: list[dict] = []
        for kind, _seq, pid, _data in self._cur[self.cursor :]:
            out.append({"time": self._time, "kind": kind, "pid": pid})
        rest = [
            (time, kind, seq, pid)
            for pid, events in enumerate(self._pending)
            for time, kind, seq, _data in events
        ]
        rest.sort()
        out.extend({"time": t, "kind": k, "pid": pid} for t, k, _s, pid in rest)
        return out[:n]


def make_event_queue(kernel: str, p: int):
    """Instantiate the named kernel's queue for a ``p``-processor machine."""
    if kernel == "event":
        return IndexedEventQueue(p)
    if kernel == "tick":
        return TickScanQueue(p)
    raise ValueError(f"unknown kernel {kernel!r}; choose from {KERNELS}")
