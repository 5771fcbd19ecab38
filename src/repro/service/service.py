"""The service core: cache → dedup → batch → pool, on one asyncio loop.

:class:`SimulationService` turns the campaign machinery into a serving
backend.  One :meth:`~SimulationService.submit` call resolves a
:class:`~repro.engine.request.RunRequest` through three tiers, cheapest
first:

1. **cache hit** — the request's content-addressed key (the same
   :func:`~repro.campaign.spec.point_key` campaign points use) is
   already ``ok`` in the :class:`~repro.campaign.store.ShardedStore`;
   the stored record is returned without touching the pool.
2. **in-flight dedup** — an identical request is being computed right
   now; this submit awaits the same future, so N concurrent identical
   requests cost one computation and produce N responses.
3. **miss** — the request joins the pending batch; once the previous
   job is done the dispatch loop ships up to ``max_batch`` pending
   misses as one chunked job to the campaign's work-stealing pool
   (:func:`~repro.campaign.pool.run_pool`).  Only a job bound for
   worker processes (``workers > 1``) first waits a short window to
   coalesce more misses.  Every finished point is appended to the
   store *as it lands* (crash durability is the store's: fsynced JSONL,
   torn-tail healing on reopen) and its waiters are resolved from the
   pool callback thread via ``call_soon_threadsafe``.

The store is sharded by key prefix, so several service processes can
share one cache directory: each sees the others' finished points after
:meth:`~SimulationService.reload`, and concurrent appends land in
per-shard append-only files.

``workers <= 1`` computes misses in-process (no worker process is ever
spawned, and a miss that finds the dispatcher idle starts at once) —
the configuration the hit-path benchmark uses to prove cache hits never
cost a process.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.engine.request import RunRequest
from repro.obs.metrics import Histogram

__all__ = ["ServiceConfig", "ServiceStats", "SimulationService"]


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
        Pool processes for miss batches; ``<= 1`` computes in-process.
    timeout_s:
        Per-point timeout forwarded to the pool (``None`` = unbounded).
    batch_window_s:
        With ``workers > 1``, how long the dispatcher waits after the
        first pending miss to coalesce more misses into the same pool
        job.  Unused with ``workers <= 1``: an in-process job starts at
        once.
    max_batch:
        Upper bound on points per pool job.
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
    ``pool_jobs`` / ``pool_points`` count what actually reached the
    pool (at a 100 % hit rate they stay zero).
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
            "hit_rate": round(self.hit_rate(), 6),
            "reconciled": self.reconciled(),
            "latency": {o: h.as_dict() for o, h in self.latency.items()},
        }


class SimulationService:
    """Async request front-end over the campaign cache and pool."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.stats = ServiceStats()
        self.store = None
        self.fingerprint: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[tuple[str, RunRequest]] = []
        self._kick: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._closing = False

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "SimulationService":
        from repro.campaign.fingerprint import code_fingerprint
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import ShardedStore

        self._loop = asyncio.get_running_loop()
        self.fingerprint = code_fingerprint()
        spec = CampaignSpec(name="service", target="request")
        store = ShardedStore(self.config.store_dir, shards=self.config.shards)
        await asyncio.to_thread(store.open, spec, self.fingerprint)
        self.store = store
        self._kick = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="service-dispatch"
        )
        return self

    async def close(self) -> None:
        self._closing = True
        if self._kick is not None:
            self._kick.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        for key, fut in list(self._inflight.items()):
            if not fut.done():
                fut.set_result(
                    {"key": key, "status": "failed", "record": None,
                     "error": "service closed before this point ran"}
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
        error}`` with ``outcome`` one of ``hit | dedup | miss``.
        """
        req = RunRequest.coerce(request)
        key = req.key(self.fingerprint)
        self.stats.requests += 1
        t0 = time.perf_counter()

        entry = self.store.get(key)
        if entry is not None and entry.get("status") == "ok":
            self.stats.record("hit", time.perf_counter() - t0)
            return self._response(key, entry, "hit")

        fut = self._inflight.get(key)
        if fut is not None:
            entry = await asyncio.shield(fut)
            ok = entry.get("status") == "ok"
            self.stats.record("dedup", time.perf_counter() - t0, ok=ok)
            return self._response(key, entry, "dedup")

        fut = self._loop.create_future()
        self._inflight[key] = fut
        self._pending.append((key, req))
        self._kick.set()
        entry = await asyncio.shield(fut)
        ok = entry.get("status") == "ok"
        self.stats.record("miss", time.perf_counter() - t0, ok=ok)
        return self._response(key, entry, "miss")

    def reload(self) -> int:
        """Fold in points other servers appended to the shared store."""
        return self.store.reload()

    @staticmethod
    def _response(key: str, entry: dict, outcome: str) -> dict:
        return {
            "ok": entry.get("status") == "ok",
            "key": key,
            "outcome": outcome,
            "status": entry.get("status"),
            "record": entry.get("record"),
            "error": entry.get("error"),
        }

    # -- miss dispatch -------------------------------------------------

    def _resolve(self, key: str, entry: dict) -> None:
        """Loop-thread continuation for one landed point."""
        fut = self._inflight.pop(key, None)
        if fut is not None and not fut.done():
            fut.set_result(entry)

    async def _dispatch_loop(self) -> None:
        """Ship pending misses to the pool, batch by batch.  One batch
        runs at a time; misses arriving meanwhile queue up for the next
        one.  Only a job bound for worker processes first waits
        ``batch_window_s`` to coalesce more misses: each such job spawns
        its processes anew, while an in-process job has no start-up
        cost to spread."""
        from repro.campaign.pool import run_pool

        while True:
            await self._kick.wait()
            self._kick.clear()
            if self._closing:
                return
            if self.config.workers > 1 and self.config.batch_window_s > 0:
                await asyncio.sleep(self.config.batch_window_s)
            batch = self._pending[: self.config.max_batch]
            del self._pending[: len(batch)]
            if self._pending:
                self._kick.set()  # leftovers start the next batch
            if not batch:
                continue
            items = [
                {"key": key, "index": i, "point": req.to_dict()}
                for i, (key, req) in enumerate(batch)
            ]
            self.stats.pool_jobs += 1
            self.stats.pool_points += len(items)
            loop = self._loop

            def on_result(entry: dict) -> None:
                # Pool callback thread: persist first (fsynced, so the
                # point survives a kill), then wake the waiters.
                self.store.append(entry)
                loop.call_soon_threadsafe(self._resolve, entry["key"], entry)

            try:
                await asyncio.to_thread(
                    run_pool,
                    "request",
                    items,
                    workers=max(1, self.config.workers),
                    timeout_s=self.config.timeout_s,
                    on_result=on_result,
                )
            except Exception as exc:  # noqa: BLE001 — keep serving
                error = f"pool dispatch failed: {type(exc).__name__}: {exc}"
                for item in items:
                    self._resolve(
                        item["key"],
                        {"key": item["key"], "index": item["index"],
                         "point": item["point"], "status": "failed",
                         "record": None, "error": error},
                    )
                continue
            for item in items:  # points the pool never reported
                self._resolve(
                    item["key"],
                    {"key": item["key"], "index": item["index"],
                     "point": item["point"], "status": "crashed",
                     "record": None,
                     "error": "pool finished without reporting this point"},
                )
