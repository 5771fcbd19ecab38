"""Worker pool: isolation of failures, timeouts, and dying workers."""

import os
import threading

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.pool import execute_point, run_pool
from repro.campaign.targets import resolve_target


def demo_spec(modes, name="pool-test", **kwargs) -> CampaignSpec:
    return CampaignSpec(
        name=name, target="demo", grid=(("mode", tuple(modes)), ("x", (1, 2))), **kwargs
    )


def collect(target, items, **kwargs):
    out = []
    stats = run_pool(target, items, on_result=out.append, **kwargs)
    return out, stats


class TestExecutePoint:
    def test_ok(self):
        entry = execute_point(
            resolve_target("demo"), {"key": "k", "index": 0, "point": {"x": 3}}, None
        )
        assert entry["status"] == "ok"
        assert entry["record"] == {"x": 3, "y": 9, "seed": 0}

    def test_exception_becomes_failed_not_raised(self):
        entry = execute_point(
            resolve_target("demo"),
            {"key": "k", "index": 0, "point": {"mode": "fail"}},
            None,
        )
        assert entry["status"] == "failed"
        assert "RuntimeError" in entry["error"]

    def test_timeout_interrupts_the_point(self):
        entry = execute_point(
            resolve_target("demo"),
            {"key": "k", "index": 0, "point": {"mode": "timeout", "sleep_s": 30}},
            0.2,
        )
        assert entry["status"] == "timeout"
        assert entry["wall_s"] < 5


class TestSerial:
    def test_statuses_and_order(self):
        spec = demo_spec(["ok", "fail"])
        items = spec.items("fp")
        out, stats = collect("demo", items, workers=1, timeout_s=None)
        assert [e["status"] for e in out] == ["ok", "ok", "failed", "failed"]
        assert stats.workers == 1

    def test_stop_after_truncates(self):
        items = demo_spec(["ok"]).items("fp")
        out, _ = collect("demo", items, workers=1, timeout_s=None, stop_after=1)
        assert len(out) == 1


class TestParallel:
    def test_parallel_records_equal_serial(self):
        spec = CampaignSpec(name="p", target="demo", grid=(("x", tuple(range(8))),))
        items = spec.items("fp")
        serial, _ = collect("demo", items, workers=1, timeout_s=None)
        parallel, stats = collect("demo", items, workers=2, timeout_s=None)
        project = lambda es: sorted(  # noqa: E731
            (e["key"], e["status"], tuple(sorted(e["record"].items()))) for e in es
        )
        assert project(parallel) == project(serial)
        assert stats.workers == 2

    def test_worker_crash_fails_only_its_point(self):
        spec = CampaignSpec(
            name="c", target="demo", grid=(("x", (1, 2, 3)), ("mode", ("ok", "crash")))
        )
        items = spec.items("fp")
        out, stats = collect("demo", items, workers=2, timeout_s=None)
        by_status = {}
        for e in out:
            by_status.setdefault(e["status"], []).append(e)
        assert len(by_status["ok"]) == 3
        assert len(by_status["crashed"]) == 3
        assert all(e["record"] is None for e in by_status["crashed"])
        assert stats.crashed_workers >= 1

    def test_ok_point_before_a_crash_in_its_chunk_stays_ok(self):
        """Chunks of [ok, crash]: the worker reports the ok point and
        dies on the next one at once.  Each report must reach the parent
        before the worker runs on, or the ok point is blamed for the
        crash.  The ok point sleeps briefly, so everything the worker
        sent before it has long been delivered, and only its own
        ``done`` is at stake."""
        spec = CampaignSpec(
            name="c",
            target="demo",
            grid=(("x", tuple(range(8))), ("mode", ("timeout", "crash"))),
            base={"sleep_s": 0.05},
        )
        items = spec.items("fp")
        assert [item["point"]["mode"] for item in items[:2]] == ["timeout", "crash"]
        out, _ = collect("demo", items, workers=2, timeout_s=None)
        status = {e["key"]: e["status"] for e in out}
        assert len(status) == len(items) == 16
        for item in items:
            want = "ok" if item["point"]["mode"] == "timeout" else "crashed"
            assert status[item["key"]] == want, item["point"]

    def test_concurrent_large_reports_arrive_whole(self):
        """More workers than cores, each report larger than a pipe's
        atomic write: the shared result pipe must deliver every entry
        intact, never two senders' bytes interleaved."""
        pad = "p" * 16384
        spec = CampaignSpec(
            name="s", target="demo", grid=(("x", tuple(range(48))),), base={"pad": pad}
        )
        items = spec.items("fp")
        # A garbled pipe blocks the parent's read, so bound the wait.
        runs = []
        runner = threading.Thread(
            target=lambda: runs.append(collect("demo", items, workers=4, timeout_s=None)),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60)
        assert runs, "the pool never finished: a report was lost or garbled"
        out, _ = runs[0]
        assert sorted(e["key"] for e in out) == sorted(item["key"] for item in items)
        for e in out:
            assert e["status"] == "ok"
            assert e["point"]["pad"] == pad
            assert e["record"]["y"] == e["point"]["x"] ** 2

    def test_all_points_crashing_does_not_kill_the_campaign(self):
        # Every worker dies, the respawn budget drains, and the isolated
        # single-shot fallback still lands an entry for every point.
        items = CampaignSpec(
            name="c", target="demo", grid=(("x", (1, 2, 3, 4)),), base={"mode": "crash"}
        ).items("fp")
        out, stats = collect("demo", items, workers=2, timeout_s=None)
        assert len(out) == 4
        assert all(e["status"] == "crashed" for e in out)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="speedup assertion needs >= 4 cores (ISSUE acceptance host)",
    )
    def test_parallel_speedup_on_multicore(self):
        import time

        spec = CampaignSpec(
            name="s",
            target="demo",
            grid=(("x", tuple(range(8)),),),
            base={"mode": "timeout", "sleep_s": 0.25},
        )
        items = spec.items("fp")
        t0 = time.perf_counter()
        collect("demo", items, workers=1, timeout_s=None)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        collect("demo", items, workers=4, timeout_s=None)
        parallel = time.perf_counter() - t0
        assert parallel < serial / 2
