"""The serving core: dedup, hit path, failure isolation, crash healing.

All asyncio tests drive the loop through ``asyncio.run`` inside plain
sync test functions — the CI environment has no pytest-asyncio.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.service import ServiceConfig, SimulationService

DOC = {"chain": "bsp", "program": "prefix", "p": 4}
#: A cross-chain point the worker lane computes in well under a second
#: and one it takes the better part of a second over.
CROSS = {"chain": "bsp-on-logp", "program": "prefix", "p": 4}
SLOW_CROSS = {"chain": "bsp-on-logp", "workload": "stream-sample-sort", "p": 16}


def _config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(store_dir=str(tmp_path / "store"), shards=4, workers=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_service(tmp_path, body, **overrides):
    """Start a service, run ``await body(svc)``, close — one liner for
    sync tests."""

    async def _main():
        async with SimulationService(_config(tmp_path, **overrides)) as svc:
            return await body(svc)

    return asyncio.run(_main())


class TestDedup:
    def test_n_concurrent_identical_one_pool_job_n_responses(self, tmp_path):
        n = 8

        async def body(svc):
            responses = await asyncio.gather(*(svc.submit(DOC) for _ in range(n)))
            return responses, svc.stats

        responses, stats = run_service(tmp_path, body)
        assert len(responses) == n
        assert all(r["ok"] for r in responses)
        assert len({r["key"] for r in responses}) == 1
        outcomes = sorted(r["outcome"] for r in responses)
        assert outcomes.count("miss") == 1
        assert outcomes.count("dedup") == n - 1
        # one computation: one pool job carrying exactly one point
        assert stats.pool_jobs == 1
        assert stats.pool_points == 1
        assert stats.reconciled()

    def test_identical_records_for_all_waiters(self, tmp_path):
        async def body(svc):
            return await asyncio.gather(*(svc.submit(DOC) for _ in range(4)))

        responses = run_service(tmp_path, body)
        first = responses[0]["record"]
        assert first is not None
        assert all(r["record"] == first for r in responses)

    def test_distinct_requests_do_not_dedupe(self, tmp_path):
        async def body(svc):
            return (
                await asyncio.gather(
                    svc.submit({**DOC, "seed": 1}), svc.submit({**DOC, "seed": 2})
                ),
                svc.stats,
            )

        responses, stats = run_service(tmp_path, body)
        assert {r["outcome"] for r in responses} == {"miss"}
        assert stats.pool_points == 2


class TestMissDispatch:
    """The batch window coalesces misses only for worker-process jobs."""

    @pytest.fixture
    def jobs(self, monkeypatch):
        """Record each pool job's keys; compute it in-process, so no
        worker process is spawned whatever ``workers`` says."""
        from repro.campaign import pool

        real_run_pool = pool.run_pool
        recorded = []

        def run_pool(target, items, *, workers, timeout_s, on_result):
            recorded.append([item["key"] for item in items])
            return real_run_pool(target, items, workers=1,
                                 timeout_s=timeout_s, on_result=on_result)

        monkeypatch.setattr(pool, "run_pool", run_pool)
        return recorded

    def test_in_process_miss_starts_without_the_window(self, tmp_path, jobs):
        async def body(svc):
            t0 = time.perf_counter()
            resp = await svc.submit(DOC)
            return resp, time.perf_counter() - t0

        resp, elapsed = run_service(tmp_path, body, workers=0,
                                    batch_window_s=5.0)
        assert resp["ok"] and resp["outcome"] == "miss"
        assert elapsed < 1.0
        assert jobs == [[resp["key"]]]

    def test_worker_jobs_coalesce_within_the_window(self, tmp_path, jobs):
        async def body(svc):
            first = asyncio.create_task(svc.submit({**DOC, "seed": 1}))
            await asyncio.sleep(0.05)
            second = asyncio.create_task(svc.submit({**DOC, "seed": 2}))
            return await asyncio.gather(first, second), svc.stats

        responses, stats = run_service(tmp_path, body, workers=2,
                                       batch_window_s=0.2)
        assert all(r["ok"] and r["outcome"] == "miss" for r in responses)
        assert jobs == [[r["key"] for r in responses]]
        assert stats.pool_jobs == 1 and stats.pool_points == 2


async def _until_sent(svc, points: int) -> None:
    """Wait until ``points`` misses have been handed to a lane, and a
    little longer, so the worker has the last one."""
    deadline = time.monotonic() + 10.0
    while svc.stats.pool_points < points:
        assert time.monotonic() < deadline, "the miss never reached a lane"
        await asyncio.sleep(0.005)
    await asyncio.sleep(0.3)


class TestMissLanes:
    """With ``workers <= 1``, native misses compute in the server and
    every other chain's in one persistent worker process."""

    def test_native_miss_answered_while_a_cross_chain_point_computes(
            self, tmp_path):
        async def body(svc):
            order = []

            async def submit(doc):
                resp = await svc.submit(doc)
                order.append(doc["chain"])
                return resp

            slow = asyncio.create_task(submit(SLOW_CROSS))
            await _until_sent(svc, 1)
            native = asyncio.create_task(submit(DOC))
            return order, await asyncio.gather(slow, native), svc.stats

        order, responses, stats = run_service(tmp_path, body)
        assert all(r["ok"] and r["outcome"] == "miss" for r in responses)
        assert order == ["bsp", "bsp-on-logp"]
        assert stats.pool_points == 2 and stats.worker_points == 1
        assert stats.worker_peak_rss_mb > 0

    def test_mixed_concurrent_traffic_reconciles(self, tmp_path):
        """Both lanes at once, every point submitted three times, with
        thread switches forced often: one computation per key, each in
        its own lane, and the counters reconcile."""
        import sys

        native = [{**DOC, "seed": s} for s in range(8)]
        cross = [{**CROSS, "seed": s} for s in range(4)]

        async def body(svc):
            docs = (native + cross) * 3
            responses = await asyncio.wait_for(
                asyncio.gather(*(svc.submit(d) for d in docs)), 60)
            return responses, svc.stats

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            responses, stats = run_service(tmp_path, body)
        finally:
            sys.setswitchinterval(interval)
        assert all(r["ok"] for r in responses)
        assert stats.counts == {"hit": 0, "dedup": 24, "miss": 12}
        assert stats.reconciled()
        assert stats.pool_points == 12 and stats.worker_points == 4

    def test_worker_record_equals_the_in_process_record(self, tmp_path):
        from repro.campaign.targets import run_point
        from repro.engine.request import RunRequest

        async def body(svc):
            return await svc.submit(CROSS), svc.stats

        resp, stats = run_service(tmp_path, body)
        assert resp["ok"] and stats.worker_points == 1
        want = run_point("request", RunRequest.coerce(CROSS).to_dict())
        assert json.loads(resp["record"]) == json.loads(json.dumps(want))

    def test_native_traffic_leaves_the_worker_idle(self, tmp_path):
        async def body(svc):
            await asyncio.gather(*(svc.submit({**DOC, "seed": s})
                                   for s in range(3)))
            return svc.stats.as_dict()

        stats = run_service(tmp_path, body)
        assert stats["pool_points"] == 3
        assert stats["worker_points"] == 0
        assert stats["worker_peak_rss_mb"] == 0

    def test_killed_worker_fails_its_point_and_is_replaced(self, tmp_path):
        async def body(svc):
            first = asyncio.create_task(svc.submit(SLOW_CROSS))
            await _until_sent(svc, 1)
            os.kill(svc._worker._proc.pid, signal.SIGKILL)
            crashed = await first
            again = await svc.submit(SLOW_CROSS)
            after = await svc.submit(CROSS)
            return crashed, again, after, svc.stats

        crashed, again, after, stats = run_service(tmp_path, body)
        assert crashed["status"] == "crashed" and not crashed["ok"]
        assert "worker process died" in crashed["error"]
        assert again["outcome"] == "miss" and again["ok"]  # not a hit
        assert after["outcome"] == "miss" and after["ok"]
        assert stats.reconciled() and stats.failed == 1
        assert stats.pool_points == 3 and stats.worker_points == 2

    def test_point_over_timeout_is_interrupted(self, tmp_path):
        async def body(svc):
            return await svc.submit(SLOW_CROSS), await svc.submit(CROSS)

        slow, after = run_service(tmp_path, body, timeout_s=0.2)
        assert slow["status"] == "timeout" and "exceeded 0.2s" in slow["error"]
        assert after["ok"] and after["outcome"] == "miss"

    def test_failed_start_leaves_no_worker(self, tmp_path):
        from repro.errors import ParameterError

        run_service(tmp_path, lambda svc: asyncio.sleep(0))  # pins 4 shards
        with pytest.raises(ParameterError, match="shard"):
            run_service(tmp_path, lambda svc: asyncio.sleep(0), shards=8)
        assert multiprocessing.active_children() == []

    def test_close_stops_a_point_in_flight(self, tmp_path):
        long_point = {**SLOW_CROSS, "p": 32}  # seconds of work

        async def body():
            svc = await SimulationService(_config(tmp_path)).start()
            task = asyncio.create_task(svc.submit(long_point))
            await _until_sent(svc, 1)
            t0 = time.perf_counter()
            await svc.close()
            return time.perf_counter() - t0, await task

        elapsed, resp = asyncio.run(body())
        assert elapsed < 3.0
        assert resp["error"] == "service closed before this point ran"
        assert multiprocessing.active_children() == []


class TestHitPath:
    def test_cache_hit_never_touches_the_pool(self, tmp_path):
        async def body(svc):
            miss = await svc.submit(DOC)
            jobs_after_miss = svc.stats.pool_jobs
            hits = [await svc.submit(DOC) for _ in range(5)]
            return miss, jobs_after_miss, hits, svc.stats

        miss, jobs_after_miss, hits, stats = run_service(tmp_path, body)
        assert miss["outcome"] == "miss"
        assert all(h["outcome"] == "hit" for h in hits)
        assert all(h["record"] == miss["record"] for h in hits)
        # no additional dispatch happened for any of the hits
        assert stats.pool_jobs == jobs_after_miss == 1
        assert stats.pool_points == 1
        assert stats.counts["hit"] == 5
        assert stats.reconciled()

    def test_records_are_the_stored_bytes(self, tmp_path):
        async def body(svc):
            miss = await svc.submit(DOC)
            hit = await svc.submit(DOC)
            return miss, hit, svc.store.get(miss["key"])

        miss, hit, stored = run_service(tmp_path, body)
        assert stored == ("ok", miss["record"])
        assert isinstance(hit["record"], bytes) and hit["record"] == miss["record"]
        assert json.loads(hit["record"])["cost_check"]

    def test_hits_survive_service_restart(self, tmp_path):
        async def first(svc):
            await svc.submit(DOC)
            return svc.stats.pool_points

        async def second(svc):
            return await svc.submit(DOC), svc.stats

        assert run_service(tmp_path, first) == 1
        resp, stats = run_service(tmp_path, second)
        assert resp["outcome"] == "hit"
        assert stats.pool_points == 0  # fresh service, cache did the work

    def test_invalid_request_rejected_before_counting(self, tmp_path):
        async def body(svc):
            with pytest.raises(Exception, match="unknown guest model"):
                await svc.submit({"chain": "mpi"})
            return svc.stats

        stats = run_service(tmp_path, body)
        assert stats.requests == 0 and stats.reconciled()


class TestFailureIsolation:
    def test_failed_point_fails_only_its_waiters(self, tmp_path):
        bad = {"chain": "bsp-on-dist", "program": "nope", "p": 2}

        async def body(svc):
            good, bad_resp = await asyncio.gather(
                svc.submit(DOC), svc.submit(bad)
            )
            return good, bad_resp, svc.stats

        good, bad_resp, stats = run_service(tmp_path, body)
        assert good["ok"]
        assert not bad_resp["ok"] and bad_resp["status"] == "failed"
        assert bad_resp["error"]
        assert stats.failed == 1
        assert stats.reconciled()

    def test_failed_points_are_retried_not_cached(self, tmp_path):
        bad = {"chain": "bsp-on-dist", "program": "nope", "p": 2}

        async def body(svc):
            first = await svc.submit(bad)
            second = await svc.submit(bad)
            return first, second, svc.stats

        first, second, stats = run_service(tmp_path, body)
        assert not first["ok"] and not second["ok"]
        # the failed entry is not served as a cache hit
        assert second["outcome"] == "miss"


class TestCrashHealing:
    """Kill-mid-request: a torn line in a shard's JSONL (what a killed
    append leaves) must be quarantined on the next open, and the torn
    point recomputed — the store's healing, exercised through the
    service."""

    def test_torn_tail_healed_and_recomputed(self, tmp_path):
        async def first(svc):
            resp = await svc.submit(DOC)
            return resp["key"], svc.store.shard_for(resp["key"])

        key, shard = run_service(tmp_path, first)

        # Simulate a mid-append kill: append a torn (truncated) JSON
        # fragment for a *different* key to the shard's results file.
        results = tmp_path / "store" / f"shard-{shard:02x}" / "results.jsonl"
        good_lines = results.read_text()
        torn = json.dumps({"key": "feedfacecafe", "status": "ok"})[:25]
        results.write_text(good_lines + torn)

        async def second(svc):
            healed = svc.store._stores[shard].quarantined
            resp = await svc.submit(DOC)
            return healed, resp

        healed, resp = run_service(tmp_path, second)
        assert healed == 1  # the fragment was quarantined on open
        quarantine = tmp_path / "store" / f"shard-{shard:02x}" / "results.quarantine"
        assert quarantine.exists()
        # the intact entry survived: served as a hit, not recomputed
        assert resp["ok"] and resp["outcome"] == "hit"

    def test_torn_tail_of_the_request_itself_recomputes(self, tmp_path):
        async def first(svc):
            resp = await svc.submit(DOC)
            return svc.store.shard_for(resp["key"])

        shard = run_service(tmp_path, first)
        results = tmp_path / "store" / f"shard-{shard:02x}" / "results.jsonl"
        raw = results.read_text().splitlines()[-1]
        # tear the just-written entry itself: half a line, no newline
        results.write_text(raw[: len(raw) // 2])

        async def second(svc):
            resp = await svc.submit(DOC)
            return resp, svc.stats

        resp, stats = run_service(tmp_path, second)
        assert resp["ok"]
        assert resp["outcome"] == "miss"  # healed away, so recomputed
        assert stats.pool_points == 1


class TestStatsSnapshot:
    def test_as_dict_shape_and_observe_service(self, tmp_path):
        from repro.obs import Observation

        async def body(svc):
            await asyncio.gather(*(svc.submit(DOC) for _ in range(3)))
            await svc.submit(DOC)
            return svc.stats

        stats = run_service(tmp_path, body)
        doc = stats.as_dict()
        assert doc["requests"] == 4 == doc["served"]
        assert doc["hit"] + doc["dedup"] + doc["miss"] == 4
        assert doc["reconciled"] is True
        assert set(doc["latency"]) == {"hit", "dedup", "miss"}

        obs = Observation()
        obs.observe_service(stats)
        m = obs.metrics.as_dict()
        assert m["counters"]["service.served{layer=service}"] == 4
        assert m["counters"]["service.missed{layer=service}"] == doc["miss"]
        assert m["counters"]["service.deduped{layer=service}"] == doc["dedup"]
        assert "service.hit_rate{layer=service}" in m["gauges"]
        assert any(k.startswith("service.latency_s") for k in m["histograms"])
