"""The service core: cache → dedup → miss lanes, on one asyncio loop.

:class:`SimulationService` turns the campaign machinery into a serving
backend.  One :meth:`~SimulationService.submit` call resolves a
:class:`~repro.engine.request.RunRequest` through three tiers, cheapest
first:

1. **cache hit** — the request's content-addressed key (the same
   :func:`~repro.campaign.spec.point_key` campaign points use) is
   already ``ok`` in the :class:`~repro.campaign.store.ShardedStore`;
   the store's index gives the record's byte range, one ``pread``
   returns its stored JSON bytes, and nothing is parsed, serialized or
   computed.
2. **in-flight dedup** — an identical request is being computed right
   now; this submit awaits the same future, so N concurrent identical
   requests cost one computation and produce N responses.
3. **miss** — the request joins the pending batch of its *lane*; once
   the lane's previous batch is done, the lane's dispatch loop ships up
   to ``max_batch`` pending misses as one job.  Every finished point is
   appended to the store *as it lands* (crash durability is the
   store's: fsynced JSONL, torn-tail healing on reopen) and its waiters
   are resolved from the computing thread via ``call_soon_threadsafe``
   with the record bytes the append stored — the same bytes a later hit
   reads back.

With ``workers <= 1`` (the ``experiments serve`` default) there are two
lanes, chosen by :func:`computes_in_worker` from the request's chain:

* a native ``bsp`` or ``logp`` miss computes in the server's own
  interpreter, through :func:`~repro.campaign.pool.run_pool`, and starts
  as soon as its lane is free;
* every other chain — a guest simulated on another model, on a network
  or on ``dist``, which costs several times more — computes in **one
  persistent worker process**, forked by :meth:`~SimulationService.start`
  before the store opens or any thread starts.  It runs one point at a
  time through :func:`~repro.campaign.pool.execute_point` in its main
  thread, where ``SIGALRM`` enforces ``timeout_s``.

So a cheap native miss never queues behind a theorem-chain point.  A
worker that dies fails only the point it was running (``crashed``, never
served as a hit), and the next cross-chain miss forks a replacement.
The worker ignores SIGINT and exits when the server closes it or dies.

With ``workers > 1`` every miss goes to one lane whose jobs spawn
``workers`` pool processes each; such a job first waits
``batch_window_s`` to coalesce more misses and spread that start-up.

The store is sharded by key prefix, so several service processes can
share one cache directory: each sees the others' finished points after
:meth:`~SimulationService.reload`, and concurrent appends land in
per-shard append-only files.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_ready

from repro.engine.request import RunRequest
from repro.obs.metrics import Histogram

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "SimulationService",
    "computes_in_worker",
]

#: Chains whose misses compute in the server: a guest run on its own
#: model's machine.
NATIVE_CHAINS = frozenset({"bsp", "logp"})

#: Seconds :meth:`SimulationService.close` lets the worker finish its
#: point before terminating it.
STOP_GRACE_S = 1.0

#: Seconds past ``timeout_s`` the server waits for the worker's reply
#: before it records the point ``timeout`` and replaces the worker (the
#: worker's alarm could not interrupt it).
REPLY_GRACE_S = 30.0


def computes_in_worker(request: RunRequest) -> bool:
    """The lane rule: does a miss of ``request`` compute in the worker
    process rather than in the server?

    The chain decides, because the request shows it and the cost
    follows it: at registry defaults a native ``bsp``/``logp`` point
    takes 0.3–2.1 ms, a ``bsp-on-logp`` point 2.7–22 ms
    (docs/SERVICE.md, "Miss lanes").  A cheap cross-chain point pays
    one pipe round trip for the rule having no cost threshold; a large
    native point still computes in the server.
    """
    return request.chain not in NATIVE_CHAINS


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`SimulationService`.

    Parameters
    ----------
    store_dir:
        Root of the sharded result store (shared across servers).
    shards:
        Key-prefix shard count; pinned in ``shards.json`` at first open.
    workers:
        Pool processes per miss job.  ``<= 1`` computes native misses
        in the server and every other chain's misses in one persistent
        worker process (:func:`computes_in_worker`); ``> 1`` sends every
        miss to a pool of that many processes, spawned per job.
    timeout_s:
        Per-point timeout (``None`` = unbounded).
    batch_window_s:
        With ``workers > 1``, how long the dispatcher waits after the
        first pending miss to coalesce more misses into the same pool
        job.  Unused with ``workers <= 1``: those jobs start at once.
    max_batch:
        Upper bound on points per job.
    """

    store_dir: str
    shards: int = 16
    workers: int = 0
    timeout_s: float | None = 60.0
    batch_window_s: float = 0.01
    max_batch: int = 64


class ServiceStats:
    """Serving counters that must reconcile exactly.

    Invariant (checked by :meth:`reconciled` once the service is idle):
    every request issued is counted under exactly one outcome, so
    ``requests == served == hit + dedup + miss``.  ``failed`` is an
    overlay — responses whose computed entry was not ``ok`` — and
    ``pool_jobs`` / ``pool_points`` count the jobs and points computed
    in either lane (at a 100 % hit rate they stay zero).
    ``worker_points`` counts the points the worker process answered and
    ``worker_peak_rss_mb`` is the largest peak resident set it reported
    (Linux ``ru_maxrss``, in MB).
    """

    OUTCOMES = ("hit", "dedup", "miss")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.served = 0
        self.failed = 0
        self.pool_jobs = 0
        self.pool_points = 0
        self.worker_points = 0
        self.worker_peak_rss_mb = 0.0
        self.counts = {o: 0 for o in self.OUTCOMES}
        self.latency = {
            o: Histogram(name=f"service.latency.{o}") for o in self.OUTCOMES
        }

    def record(self, outcome: str, seconds: float, *, ok: bool = True) -> None:
        self.served += 1
        self.counts[outcome] += 1
        if not ok:
            self.failed += 1
        self.latency[outcome].observe(seconds)

    def hit_rate(self) -> float:
        return self.counts["hit"] / self.served if self.served else 0.0

    def reconciled(self) -> bool:
        return self.requests == self.served == sum(self.counts.values())

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "served": self.served,
            "hit": self.counts["hit"],
            "dedup": self.counts["dedup"],
            "miss": self.counts["miss"],
            "failed": self.failed,
            "pool_jobs": self.pool_jobs,
            "pool_points": self.pool_points,
            "worker_points": self.worker_points,
            "worker_peak_rss_mb": round(self.worker_peak_rss_mb, 2),
            "hit_rate": round(self.hit_rate(), 6),
            "reconciled": self.reconciled(),
            "latency": {o: h.as_dict() for o, h in self.latency.items()},
        }


def _worker_main(requests, requests_writer, replies_reader, replies, timeout_s):
    """Body of the worker process: compute one point per request until
    the stop message (``None``), the end of the request pipe, or the
    server's exit.  Each reply is ``(entry, ru_maxrss)``."""
    import resource
    import signal

    from repro.campaign.pool import execute_point
    from repro.campaign.targets import resolve_target

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the server's to handle
    requests_writer.close()  # the server's ends: EOF comes when it exits
    replies_reader.close()
    target_fn = resolve_target("request")
    server = mp.parent_process().sentinel
    while True:
        if server in wait_ready([requests, server]):
            return
        try:
            item = requests.recv()
        except EOFError:
            return
        if item is None:
            return
        entry = execute_point(target_fn, item, timeout_s)
        try:
            replies.send(
                (entry, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            )
        except OSError:  # the server is gone
            return


class _Worker:
    """The persistent worker process and its two pipes.

    :meth:`run` is called from one lane thread at a time; :meth:`stop`
    may run concurrently with it, so both take ``_lock`` around the
    process handle.  Only :meth:`_reap` waits for the process's exit
    status, so no two threads ever race for it.
    """

    def __init__(self, timeout_s: float | None) -> None:
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._proc = self._requests = self._replies = None
        self._stopped = False

    def spawn(self) -> None:
        # fork, explicitly: the worker starts as a copy of the imported
        # server and imports nothing (forkserver is 3.14's default).
        ctx = mp.get_context("fork")
        requests, requests_writer = ctx.Pipe(duplex=False)
        replies_reader, replies = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(requests, requests_writer, replies_reader, replies,
                  self.timeout_s),
            name="repro-service-worker",
            daemon=True,
        )
        proc.start()
        requests.close()
        replies.close()
        self._proc, self._requests, self._replies = (
            proc, requests_writer, replies_reader)

    def run(self, item: dict) -> tuple[dict, int | None] | None:
        """Compute one point in the worker: its store entry and the
        worker's ``ru_maxrss`` (``None`` when the worker died first), or
        ``None`` once :meth:`stop` has been called."""
        with self._lock:
            if self._stopped:
                return None
            if self._proc is None:
                self.spawn()
            try:
                self._requests.send(item)
            except OSError:  # it died idle, so the point never started
                self._reap()
                self.spawn()
                self._requests.send(item)
            proc, replies = self._proc, self._replies
        limit = None if self.timeout_s is None else self.timeout_s + REPLY_GRACE_S
        ready = wait_ready([replies, proc.sentinel], limit)
        if replies in ready:
            try:
                return replies.recv()
            except EOFError:
                pass
        with self._lock:
            if self._stopped:
                return None
            self._reap(kill=True)
        if ready:
            status = "crashed"
            error = "worker process died while running this point"
        else:
            status = "timeout"
            error = (f"point {item['key']} exceeded {self.timeout_s}s and "
                     f"its worker did not answer; worker replaced")
        return {
            "key": item["key"],
            "index": item["index"],
            "point": item["point"],
            "status": status,
            "record": None,
            "error": error,
            "wall_s": 0.0,
        }, None

    def stop(self) -> None:
        """Ask the worker to exit after its current point, and terminate
        it if it has not within :data:`STOP_GRACE_S`."""
        with self._lock:
            self._stopped = True
            proc = self._proc
            if proc is None:
                return
            try:
                self._requests.send(None)
            except OSError:
                pass
        for end in (proc.terminate, proc.kill):
            if wait_ready([proc.sentinel], STOP_GRACE_S):
                return
            end()

    def reap(self) -> None:
        """Collect the exited worker; call once no lane thread runs."""
        with self._lock:
            self._reap()

    def _reap(self, kill: bool = False) -> None:
        if self._proc is None:
            return
        if kill:
            self._proc.kill()
        self._proc.join()
        self._requests.close()
        self._replies.close()
        self._proc = self._requests = self._replies = None


class _Lane:
    """One miss queue, drained by its own dispatch loop; ``compute(items)``
    runs a batch in a thread and reports each point to ``_on_result``."""

    def __init__(self, compute) -> None:
        self.compute = compute
        self.pending: list[tuple[str, RunRequest, asyncio.Future]] = []
        self.kick = asyncio.Event()
        self.task: asyncio.Task | None = None


class SimulationService:
    """Async request front-end over the campaign cache and its miss
    lanes."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stats = ServiceStats()
        self.store = None
        self.fingerprint: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._worker: _Worker | None = None
        self._lanes: list[_Lane] = []
        self._closing = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "SimulationService":
        from repro.campaign.fingerprint import code_fingerprint
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import ShardedStore

        self._loop = asyncio.get_running_loop()
        if self.config.workers <= 1:
            # Fork first: the worker then holds no store fd, and the
            # server has started no thread yet.
            self._worker = _Worker(self.config.timeout_s)
            self._worker.spawn()
        try:
            self.fingerprint = code_fingerprint()
            spec = CampaignSpec(name="service", target="request")
            store = ShardedStore(self.config.store_dir, shards=self.config.shards)
            await asyncio.to_thread(store.open, spec, self.fingerprint)
        except BaseException:
            await self.close()
            raise
        self.store = store
        self._lanes = [_Lane(self._compute_in_pool)]
        if self._worker is not None:
            self._lanes.append(_Lane(self._compute_in_worker))
        for i, lane in enumerate(self._lanes):
            lane.task = asyncio.create_task(
                self._dispatch_loop(lane), name=f"service-dispatch-{i}"
            )
        return self

    async def close(self) -> None:
        self._closing = True
        for lane in self._lanes:
            lane.kick.set()
        if self._worker is not None:
            await asyncio.to_thread(self._worker.stop)
        for lane in self._lanes:
            if lane.task is not None:
                await lane.task
                lane.task = None
        if self._worker is not None:
            self._worker.reap()
            self._worker = None
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_result(
                    ("failed", b"null", "service closed before this point ran")
                )
        self._inflight.clear()
        if self.store is not None:
            await asyncio.to_thread(self.store.close)
            self.store = None

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the serving path ----------------------------------------------

    async def submit(self, request: RunRequest | dict) -> dict:
        """Resolve one request: cache hit, in-flight join, or computed.

        Returns a response dict: ``{ok, key, outcome, status, record,
        error}`` with ``outcome`` one of ``hit | dedup | miss``.  The
        ``record`` is the record's stored JSON bytes (``b"null"`` for a
        point that produced none), so hit, dedup and miss return
        byte-identical records; ``json.loads`` it for the object.
        """
        req = RunRequest.coerce(request)
        key = req.key(self.fingerprint)
        self.stats.requests += 1
        t0 = time.perf_counter()

        found = self.store.get(key)
        if found is not None and found[0] == "ok":
            self.stats.record("hit", time.perf_counter() - t0)
            return self._response(key, "hit", "ok", found[1], None)

        outcome = "dedup"
        fut = self._inflight.get(key)
        if fut is None:
            outcome = "miss"
            fut = self._loop.create_future()
            self._inflight[key] = fut
            lane = self._lanes[-1] if computes_in_worker(req) else self._lanes[0]
            lane.pending.append((key, req, fut))
            lane.kick.set()
        status, record, error = await asyncio.shield(fut)
        self.stats.record(outcome, time.perf_counter() - t0, ok=status == "ok")
        return self._response(key, outcome, status, record, error)

    def reload(self) -> int:
        """Fold in points other servers appended to the shared store."""
        return self.store.reload()

    @staticmethod
    def _response(key: str, outcome: str, status, record: bytes, error) -> dict:
        return {
            "ok": status == "ok",
            "key": key,
            "outcome": outcome,
            "status": status,
            "record": record,
            "error": error,
        }

    # -- miss lanes ----------------------------------------------------

    def _resolve(self, key: str, landed: tuple) -> None:
        """Loop-thread continuation for one landed point: ``landed`` is
        its ``(status, record bytes, error)``."""
        fut = self._inflight.pop(key, None)
        if fut is not None and not fut.done():
            fut.set_result(landed)

    def _on_result(self, entry: dict) -> None:
        """Computing thread, one finished point: persist it first
        (fsynced, so the point survives a kill), then wake its waiters
        with the record's stored bytes."""
        record = self.store.append(entry)
        self._loop.call_soon_threadsafe(
            self._resolve, entry["key"],
            (entry["status"], record, entry.get("error")),
        )

    def _compute_in_pool(self, items: list[dict]) -> None:
        from repro.campaign import pool

        pool.run_pool(
            "request",
            items,
            workers=max(1, self.config.workers),
            timeout_s=self.config.timeout_s,
            on_result=self._on_result,
        )

    def _compute_in_worker(self, items: list[dict]) -> None:
        for item in items:
            if self._closing:
                return
            landed = self._worker.run(item)
            if landed is None:  # stopped by close()
                return
            entry, maxrss = landed
            if maxrss is not None:
                self.stats.worker_points += 1
                self.stats.worker_peak_rss_mb = max(
                    self.stats.worker_peak_rss_mb, maxrss / 1024.0)
            self._on_result(entry)

    async def _dispatch_loop(self, lane: _Lane) -> None:
        """Ship the lane's pending misses, batch by batch.  One batch
        runs at a time; misses arriving meanwhile queue up for the next
        one.  Only a job bound for pool processes (``workers > 1``)
        first waits ``batch_window_s`` to coalesce more misses: each
        such job spawns its processes anew, while the other jobs have no
        start-up cost to spread."""
        while True:
            await lane.kick.wait()
            lane.kick.clear()
            if self._closing:
                return
            if self.config.workers > 1 and self.config.batch_window_s > 0:
                await asyncio.sleep(self.config.batch_window_s)
            batch = lane.pending[: self.config.max_batch]
            del lane.pending[: len(batch)]
            if lane.pending:
                lane.kick.set()  # leftovers start the next batch
            if not batch:
                continue
            items = [
                {"key": key, "index": i, "point": req.to_dict()}
                for i, (key, req, _fut) in enumerate(batch)
            ]
            self.stats.pool_jobs += 1
            self.stats.pool_points += len(items)
            try:
                await asyncio.to_thread(lane.compute, items)
                if self._closing:
                    return  # close() fails the points it stopped
                landed = ("crashed", b"null",
                          "pool finished without reporting this point")
            except Exception as exc:  # noqa: BLE001 — keep serving
                error = f"pool dispatch failed: {type(exc).__name__}: {exc}"
                landed = ("failed", b"null", error)
            # Points the job never reported.  A reported point's future
            # is already done (its _resolve was queued first), and the
            # key may already name a resubmission's future.
            for key, _req, fut in batch:
                if not fut.done():
                    self._resolve(key, landed)
