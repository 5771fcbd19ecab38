"""Multiprocessing worker pool: chunked work-stealing, crash isolation.

The pool shards a campaign's pending points across ``workers`` OS
processes.  Scheduling is *chunked work-stealing*: the parent splits the
work list into small chunks on a shared queue and every worker pulls its
next chunk when it finishes the last one, so fast workers naturally
steal load from slow ones without any balancing logic in the parent.

Failure philosophy mirrors :mod:`repro.faults`, lifted to the harness:

* a point that **raises** fails that point (``status="failed"``);
* a point that exceeds the per-point **timeout** is interrupted inside
  the worker via ``SIGALRM`` (``status="timeout"``); where the alarm
  cannot fire (non-main thread, no ``setitimer``) a watchdog thread
  still times the point out, loudly warning that it cannot interrupt it;
* a worker process that **dies** (segfault, ``os._exit``, OOM-kill)
  fails only the point it had started — the parent re-queues the rest
  of the dead worker's chunk, spawns a replacement (bounded by a respawn
  budget), and the campaign keeps going.  If every worker is gone and
  the budget is spent, the parent finishes the remaining points serially
  rather than deadlock.

Every completed point is reported to the caller *as it lands* via the
``on_result`` callback (the runner appends it to the
:class:`~repro.campaign.store.ResultStore` immediately — that is what
makes kill-and-resume lossless).

Workers report over one pipe with synchronous sends (:class:`_Outbox`),
not a ``multiprocessing.Queue``: a queue hands messages to a feeder
thread, and a worker that dies by ``os._exit`` takes whatever the thread
has not flushed with it.  A lost ``done`` would leave the parent blaming
an ``ok`` point for the crash of the next point in its chunk.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time

__all__ = ["run_pool", "execute_point"]

#: Upper bound on points per chunk; small chunks keep stealing granular.
MAX_CHUNK = 8

#: Seconds between repeats of a point's alarm once it has fired, until
#: the point stops.  An alarm that lands while the interpreter runs a
#: finalizer (an object's ``__del__``, say) raises its ``TimeoutError``
#: there, where Python swallows it; the next alarm raises again.
ALARM_REPEAT_S = 0.1


def _watchdog_execute(target_fn, point: dict, timeout_s: float, key: str):
    """Timeout fallback where SIGALRM cannot fire (non-main thread, or a
    platform without ``setitimer``): run the target in a daemon thread
    and give up waiting after ``timeout_s``.  The point is reported as
    ``timeout`` either way, but unlike the alarm path the target cannot
    be *interrupted* — it keeps running in its thread until the process
    exits, so the degradation is surfaced as a ``RuntimeWarning`` rather
    than hidden.  Returns ``(status, record, error)``."""
    import threading
    import warnings

    box: dict = {}

    def _body() -> None:
        try:
            box["record"] = target_fn(point)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            box["error"] = f"{type(exc).__name__}: {exc}"

    thread = threading.Thread(
        target=_body, daemon=True, name=f"campaign-watchdog-{key}"
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        warnings.warn(
            f"point {key}: SIGALRM unavailable here, so the watchdog "
            f"thread timed the point out after {timeout_s}s but cannot "
            f"interrupt it; the target keeps running in a daemon thread "
            f"until this process exits",
            RuntimeWarning,
            stacklevel=3,
        )
        return "timeout", None, f"point {key} exceeded {timeout_s}s (watchdog)"
    if "error" in box:
        return "failed", None, box["error"]
    return "ok", box.get("record"), None


def execute_point(target_fn, item: dict, timeout_s: float | None) -> dict:
    """Run one point under an optional timeout; never raises.

    The timeout is enforced by ``SIGALRM``/``setitimer`` when possible
    (main thread of a worker process — the normal pool path).  Called
    from a non-main thread or a platform without ``setitimer``, it
    degrades to a watchdog thread (:func:`_watchdog_execute`): same
    ``timeout`` status, but with a visible ``RuntimeWarning`` because
    the overrunning target cannot actually be interrupted.

    Returns the store entry: ``{key, index, point, status, record,
    error, wall_s}`` with ``status`` one of ``ok | failed | timeout``.
    """
    import signal
    import threading

    key, index, point = item["key"], item["index"], item["point"]
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise TimeoutError(f"point {key} exceeded {timeout_s}s")

    t0 = time.perf_counter()
    status, record, error = "ok", None, None
    old_handler = None
    if timeout_s is not None and not use_alarm:
        status, record, error = _watchdog_execute(target_fn, point, timeout_s, key)
        return {
            "key": key,
            "index": index,
            "point": point,
            "status": status,
            "record": record,
            "error": error,
            "wall_s": round(time.perf_counter() - t0, 6),
        }
    if use_alarm:
        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s, ALARM_REPEAT_S)
    try:
        record = target_fn(point)
    except TimeoutError as exc:
        status, error = "timeout", str(exc)
    except Exception as exc:  # noqa: BLE001 — isolation is the point
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    return {
        "key": key,
        "index": index,
        "point": point,
        "status": status,
        "record": record,
        "error": error,
        "wall_s": round(time.perf_counter() - t0, 6),
    }


class _Outbox:
    """Worker-to-parent message pipe whose ``put`` returns only once the
    message is in the pipe, so it survives the sender's death.  The lock
    keeps concurrent senders' messages whole."""

    def __init__(self, ctx) -> None:
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._lock = ctx.Lock()

    def put(self, msg) -> None:
        with self._lock:
            self._writer.send(msg)

    def get(self, timeout: float):
        """The next message, or ``None`` after ``timeout`` seconds."""
        return self._reader.recv() if self._reader.poll(timeout) else None

    def pending(self) -> bool:
        return self._reader.poll(0)

    def close(self) -> None:
        self._reader.close()
        self._writer.close()


def _worker_main(worker_id: int, target_name: str, timeout_s, task_q, result_q):
    """Worker process body: pull chunks until the ``None`` sentinel."""
    from repro.campaign.targets import resolve_target

    try:
        target_fn = resolve_target(target_name)
    except Exception as exc:  # bad target: fail fast, visibly
        result_q.put(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    busy = 0.0
    while True:
        chunk = task_q.get()
        if chunk is None:
            break
        result_q.put(("chunk", worker_id, [item["key"] for item in chunk]))
        for item in chunk:
            result_q.put(("start", worker_id, item["key"]))
            entry = execute_point(target_fn, item, timeout_s)
            entry["worker"] = worker_id
            busy += entry["wall_s"]
            result_q.put(("done", worker_id, entry))
    result_q.put(("exit", worker_id, busy))


def _isolated_main(target_name: str, item: dict, timeout_s, result_q) -> None:
    """Single-shot subprocess body for :func:`_run_isolated`."""
    from repro.campaign.targets import resolve_target

    entry = execute_point(resolve_target(target_name), item, timeout_s)
    result_q.put(entry)


def _run_isolated(ctx, target_name: str, item: dict, timeout_s) -> dict:
    """Run one point in a dedicated subprocess; a dying process yields a
    ``crashed`` entry instead of killing the caller."""
    result_q = ctx.Queue()
    proc = ctx.Process(
        target=_isolated_main,
        args=(target_name, item, timeout_s, result_q),
        daemon=True,
    )
    t0 = time.perf_counter()
    proc.start()
    grace = (timeout_s or 0) + 30.0
    entry = None
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            entry = result_q.get(timeout=0.25)
            break
        except queue_mod.Empty:
            if not proc.is_alive():
                # One more non-blocking look: the child may have exited
                # right after queueing its result.
                try:
                    entry = result_q.get_nowait()
                except queue_mod.Empty:
                    entry = None
                break
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=2.0)
    result_q.cancel_join_thread()
    if entry is None:
        entry = {
            "key": item["key"],
            "index": item["index"],
            "point": item["point"],
            "status": "crashed",
            "record": None,
            "error": "isolated worker process died while running this point",
            "wall_s": round(time.perf_counter() - t0, 6),
        }
    entry["worker"] = -1
    return entry


def _chunks(items: list, workers: int) -> list[list]:
    if not items:
        return []
    size = max(1, min(MAX_CHUNK, len(items) // (workers * 4) or 1))
    return [items[i : i + size] for i in range(0, len(items), size)]


class PoolStats:
    """What the pool can say about its own efficiency."""

    def __init__(self) -> None:
        self.workers = 0
        self.respawns = 0
        self.crashed_workers = 0
        self.busy_s = 0.0
        self.wall_s = 0.0

    def utilization(self) -> float:
        denom = self.workers * self.wall_s
        return self.busy_s / denom if denom else 0.0


def run_pool(
    target_name: str,
    items: list[dict],
    *,
    workers: int,
    timeout_s: float | None,
    on_result,
    stop_after: int | None = None,
) -> PoolStats:
    """Shard ``items`` over ``workers`` processes; report entries via
    ``on_result`` as they complete.

    ``stop_after`` simulates a kill for resume testing and the CI smoke:
    once that many entries have landed, outstanding workers are
    terminated and the remaining points are left unrun (the store keeps
    what finished).
    """
    stats = PoolStats()
    stats.workers = workers
    t_start = time.perf_counter()
    if workers <= 1 or len(items) <= 1:
        from repro.campaign.targets import resolve_target

        target_fn = resolve_target(target_name)
        done = 0
        for item in items:
            if stop_after is not None and done >= stop_after:
                break
            entry = execute_point(target_fn, item, timeout_s)
            entry["worker"] = 0
            on_result(entry)
            stats.busy_s += entry["wall_s"]
            done += 1
        stats.workers = 1
        stats.wall_s = time.perf_counter() - t_start
        return stats

    ctx = mp.get_context()
    task_q = ctx.Queue()
    result_q = _Outbox(ctx)
    for chunk in _chunks(items, workers):
        task_q.put(chunk)

    procs: dict[int, mp.Process] = {}
    next_id = 0

    def _spawn() -> None:
        nonlocal next_id
        proc = ctx.Process(
            target=_worker_main,
            args=(next_id, target_name, timeout_s, task_q, result_q),
            daemon=True,
        )
        proc.start()
        procs[next_id] = proc
        next_id += 1

    for _ in range(workers):
        _spawn()

    remaining = {item["key"] for item in items}
    by_key = {item["key"]: item for item in items}
    claimed: dict[int, list[str]] = {}  # worker -> chunk keys not yet done
    started: dict[int, str] = {}  # worker -> key currently executing
    respawn_budget = workers
    sentinels_sent = False
    exited: set[int] = set()
    done_count = 0
    stopping = False

    def _record(entry: dict) -> None:
        nonlocal done_count
        remaining.discard(entry["key"])
        on_result(entry)
        done_count += 1

    def _handle_crash(worker_id: int) -> None:
        """Fail the in-flight point, requeue the rest of the chunk."""
        nonlocal respawn_budget
        stats.crashed_workers += 1
        key = started.pop(worker_id, None)
        chunk_keys = claimed.pop(worker_id, [])
        if key is not None and key in remaining:
            item = by_key[key]
            _record(
                {
                    "key": key,
                    "index": item["index"],
                    "point": item["point"],
                    "status": "crashed",
                    "record": None,
                    "error": "worker process died while running this point",
                    "wall_s": 0.0,
                    "worker": worker_id,
                }
            )
        requeue = [by_key[k] for k in chunk_keys if k in remaining]
        if requeue:
            task_q.put(requeue)
        if respawn_budget > 0 and not stopping:
            respawn_budget -= 1
            stats.respawns += 1
            _spawn()

    def _finish_isolated() -> None:
        """Last resort (all workers dead, or orphaned points nobody will
        ever claim): run each leftover point in its own single-shot
        subprocess, so a point that kills its process cannot take the
        campaign down with it."""
        nonlocal stopping
        while True:
            try:
                task_q.get_nowait()
            except queue_mod.Empty:
                break
        for key in sorted(remaining, key=lambda k: by_key[k]["index"]):
            if stop_after is not None and done_count >= stop_after:
                stopping = True
                break
            entry = _run_isolated(ctx, target_name, by_key[key], timeout_s)
            stats.busy_s += entry["wall_s"]
            _record(entry)

    idle_rounds = 0
    while remaining and not stopping:
        msg = result_q.get(timeout=0.25)
        if msg is not None:
            idle_rounds = 0
            kind, worker_id, payload = msg
            if kind == "chunk":
                claimed[worker_id] = list(payload)
            elif kind == "start":
                started[worker_id] = payload
            elif kind == "done":
                started.pop(worker_id, None)
                keys = claimed.get(worker_id)
                if keys and payload["key"] in keys:
                    keys.remove(payload["key"])
                stats.busy_s += payload.get("wall_s", 0.0)
                _record(payload)
                if stop_after is not None and done_count >= stop_after:
                    stopping = True
            elif kind == "exit":
                exited.add(worker_id)
            elif kind == "fatal":
                for proc in procs.values():
                    proc.terminate()
                raise RuntimeError(f"campaign worker {worker_id}: {payload}")
            continue
        # No message: reap dead workers and their in-flight work.  A
        # worker seen dead has sent everything it ever will, so once the
        # pipe is empty its last reports have all been handled.
        idle_rounds += 1
        dead = [
            wid
            for wid, proc in procs.items()
            if wid not in exited and not proc.is_alive()
        ]
        if dead and result_q.pending():
            continue
        for wid in dead:
            procs[wid].join(timeout=0)
            exited.add(wid)
            _handle_crash(wid)
        if remaining and all(
            wid in exited or not p.is_alive() for wid, p in procs.items()
        ):
            # Every worker is gone and the respawn budget is spent.
            _finish_isolated()
            break
        if remaining and idle_rounds >= 20 and not started:
            # Workers alive but idle, nothing in flight, results missing:
            # a worker died between claiming a chunk and reporting it.
            # The orphaned points will never be claimed — run them here.
            _finish_isolated()
            break

    # Shut down: sentinels for live workers, terminate on stop_after.
    if stopping:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
    elif not sentinels_sent:
        for _ in procs:
            task_q.put(None)
        sentinels_sent = True
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            p.is_alive() for p in procs.values()
        ):
            msg = result_q.get(timeout=0.1)
            if msg is None:
                continue
            if msg[0] == "done":  # late result from a straggler
                started.pop(msg[1], None)
                if msg[2]["key"] in remaining:
                    stats.busy_s += msg[2].get("wall_s", 0.0)
                    _record(msg[2])
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
    for proc in procs.values():
        proc.join(timeout=2.0)
    task_q.cancel_join_thread()
    result_q.close()
    stats.wall_s = time.perf_counter() - t_start
    return stats
