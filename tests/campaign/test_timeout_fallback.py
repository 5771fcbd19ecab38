"""S2: per-point timeouts still fire where SIGALRM cannot.

``execute_point`` normally arms ``signal.setitimer`` (main thread of a
worker process).  Called from a non-main thread, or on a platform
without ``setitimer``, it must degrade to a watchdog thread that still
reports ``timeout`` — loudly, via ``RuntimeWarning``, because the
overrunning target cannot be interrupted."""

import threading
import time

import pytest

from repro.campaign.pool import execute_point


def item(key: str = "k") -> dict:
    return {"key": key, "index": 0, "point": {"x": 1}}


def sleepy(point):
    time.sleep(5.0)
    return {"never": "reached"}


def quick(point):
    return {"x": point["x"]}


def angry(point):
    raise ValueError("boom")


class TestWatchdogWhenSetitimerMissing:
    def test_timeout_fires_with_a_visible_warning(self, monkeypatch):
        monkeypatch.delattr("signal.setitimer")
        with pytest.warns(RuntimeWarning, match="cannot\\s+interrupt"):
            entry = execute_point(sleepy, item(), timeout_s=0.2)
        assert entry["status"] == "timeout"
        assert entry["record"] is None
        assert "watchdog" in entry["error"]

    def test_fast_target_still_ok(self, monkeypatch):
        monkeypatch.delattr("signal.setitimer")
        entry = execute_point(quick, item(), timeout_s=5.0)
        assert entry["status"] == "ok"
        assert entry["record"] == {"x": 1}

    def test_raising_target_still_failed(self, monkeypatch):
        monkeypatch.delattr("signal.setitimer")
        entry = execute_point(angry, item(), timeout_s=5.0)
        assert entry["status"] == "failed"
        assert "ValueError: boom" in entry["error"]


class TestWatchdogOffTheMainThread:
    def run_in_thread(self, target_fn, timeout_s):
        box = {}

        def body():
            box["entry"] = execute_point(target_fn, item(), timeout_s)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return box["entry"]

    def test_timeout_fires_without_sigalrm(self):
        with pytest.warns(RuntimeWarning, match="watchdog"):
            entry = self.run_in_thread(sleepy, timeout_s=0.2)
        assert entry["status"] == "timeout"

    def test_ok_path_unaffected(self):
        entry = self.run_in_thread(quick, timeout_s=5.0)
        assert entry["status"] == "ok"
        assert entry["record"] == {"x": 1}


def test_no_timeout_means_no_watchdog_and_no_alarm():
    entry = execute_point(quick, item(), timeout_s=None)
    assert entry["status"] == "ok"
    assert threading.active_count() >= 1  # nothing left lingering is best-effort


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _SlowFinalizer:
    def __del__(self):
        _spin(0.3)  # the point's first alarms land here


def finalizing(point):
    _SlowFinalizer()  # finalized at once
    _spin(3.0)
    return {"never": "reached"}


@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_alarm_swallowed_by_a_finalizer_fires_again():
    """Python swallows an exception raised in ``__del__``, so an alarm
    landing there is lost; the alarm repeats until the point stops."""
    entry = execute_point(finalizing, item(), timeout_s=0.1)
    assert entry["status"] == "timeout"
    assert entry["wall_s"] < 2.0
