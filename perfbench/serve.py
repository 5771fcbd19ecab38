"""The ``serve-*`` workloads: a server process driven over TCP.

The benchmark prewarms a sharded store, launches ``python -m
repro.experiments serve`` on it with the CLI defaults (or, for the
traced run, ``traced_server.py``, which installs the layer wrappers
first), and drives it from one asyncio process over ``CONNECTIONS``
connections:

* ``serve-hot`` — closed loop, one request outstanding per connection:
  warm hits, dedup pairs (every connection sends the same fresh point
  at the same slot) and solo cheap misses.
* ``serve-cold`` — open loop: seeded Poisson arrivals at a fixed rate,
  every request a distinct miss, cheap native points and expensive
  theorem-chain points.  Latency is measured from the scheduled send
  time.

After the run the server's ``stats`` op must reconcile.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import design
from digest import record_digest
from hostspeed import Calibration

#: Seconds between host-speed probes in the load generator.
PROBE_EVERY_S = 0.1

#: serve-cold validity: the generator may run at most this late (p99)...
MAX_LAG_P99_S = 0.050
#: ...and the server may hold at most this many seconds of arrivals
#: when the schedule ends.
MAX_BACKLOG_S = 1.0


class Server:
    """One server process on an ephemeral port."""

    def __init__(self, root: Path, store: Path, log: Path, spans_out: Path | None = None):
        self.root, self.store, self.log, self.spans_out = root, store, log, spans_out
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until it listens; returns the seconds taken."""
        cmd = [sys.executable]
        if self.spans_out is not None:
            cmd += [str(self.root / "perfbench" / "traced_server.py"), str(self.spans_out)]
        else:
            cmd += ["-m", "repro.experiments"]
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0",
                "--store", str(self.store), *design.SERVER_ARGS]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        t0 = time.perf_counter()
        with open(self.log, "a") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r} (see {self.log})")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        return elapsed

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


async def prewarm(store: Path, docs: list[dict]) -> list[dict]:
    """Compute the warm set into ``store`` with an in-process service."""
    from repro.service import ServiceConfig, SimulationService

    cfg = ServiceConfig(store_dir=str(store), shards=16, workers=0, batch_window_s=0.0)
    async with SimulationService(cfg) as svc:
        return list(await asyncio.gather(*(svc.submit(d) for d in docs)))


# Each sent request is recorded as
# (conn, ready, due, send, recv, universe, index, kind, response):
# ``ready`` is when the connection could start on it, ``due`` when it was
# due to be sent (after a dedup pair's rendezvous, or its scheduled time).


async def drive_hot(clients, seed: int, seconds: float, unis: dict) -> tuple:
    """Returns ``(records, lags_s, backlog, issued)``; a closed loop has
    no schedule to lag behind, so the last three are trivial."""
    n = len(clients)
    warm, fresh = unis["warm"], unis["fresh"]
    hit_rngs = [random.Random(f"serve-hot:{seed}:hits:{c}") for c in range(n)]
    order = list(range(len(fresh)))
    random.Random(f"serve-hot:{seed}:fresh").shuffle(order)
    fresh_iter = itertools.cycle(order)  # a point sent twice is a hit
    blocks: dict[int, tuple] = {}
    pairs: dict[int, list] = {}
    records: list[tuple] = []
    issued = [0]
    deadline = time.perf_counter() + seconds

    async def loop(c: int) -> None:
        slot = 0
        ready = time.perf_counter()
        while ready < deadline:
            b, s = divmod(slot, design.HOT_BLOCK)
            if b not in blocks:
                blocks[b] = design.hot_block(seed, b)
            pair_slots, solos = blocks[b]
            if s in pair_slots:
                if slot not in pairs:
                    pairs[slot] = [asyncio.Barrier(n), next(fresh_iter)]
                entry = pairs[slot]
                uni, index, kind = "fresh", entry[1], "pair"
                try:
                    await entry[0].wait()
                except asyncio.BrokenBarrierError:
                    pass  # the other connection has finished: send alone
            elif s in solos[c]:
                uni, index, kind = "fresh", next(fresh_iter), "solo"
            else:
                uni, index, kind = "warm", hit_rngs[c].randrange(len(warm)), "hit"
            doc = unis[uni][index]
            issued[0] += 1
            due = send = time.perf_counter()
            response = await clients[c].run(doc)
            recv = time.perf_counter()
            records.append((c, ready, due, send, recv, uni, index, kind, response))
            ready = recv
            slot += 1
        for entry in pairs.values():
            await entry[0].abort()

    await asyncio.gather(*(loop(c) for c in range(n)))
    return records, [], 0, issued[0]


async def drive_cold(clients, seed: int, seconds: float, unis: dict, stats_client, cal):
    """Returns ``(records, lags_s, backlog, issued)``.

    The schedule's offsets are reference-host seconds: the generator's
    clock runs at the host's current speed (``cal``, see
    :mod:`hostspeed`), so the offered load, and with it the depth of
    every queue, is the same whether the shared host runs fast or slow.
    At a fixed wall-clock rate a 30 % slower host would block 30 % more
    cheap misses behind expensive ones and move every tail percentile.
    """
    schedule = design.cold_schedule(seed, seconds, len(unis["fresh"]), len(unis["expensive"]))
    records: list[tuple] = []
    lags: list[float] = []

    async def one(c: int, due: float, uni: str, index: int) -> None:
        send = time.perf_counter()
        lags.append(send - due)
        response = await clients[c].run(unis[uni][index])
        recv = time.perf_counter()
        records.append((c, due, due, send, recv, uni, index, uni, response))

    cal.sample()
    clock_ref, clock_wall = -0.05, time.perf_counter()
    tasks = []
    for i, (offset, uni, index) in enumerate(schedule):
        due = clock_wall + (offset - clock_ref) / cal.current()
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        clock_ref, clock_wall = offset, due
        tasks.append(asyncio.create_task(one(i % len(clients), due, uni, index)))
    stats = await stats_client.stats()
    backlog = stats["requests"] - stats["served"] + (len(schedule) - stats["requests"])
    await asyncio.gather(*tasks)
    return records, lags, backlog, len(tasks)


def check_responses(records, tables) -> tuple[int, list[str]]:
    from repro.obs.check import CostCheckReport

    failed, errors = 0, []
    for rec in records:
        uni, index, kind, response = rec[5], rec[6], rec[7], rec[8]
        error = None
        if not response.get("ok"):
            error = f"not ok: {response.get('error')}"
        elif kind == "hit" and response.get("outcome") != "hit":
            error = f"warm point served as {response.get('outcome')}"
        else:
            record = response["record"]
            got, want = record_digest(record), tables[uni][index][0]
            if got != want:
                error = f"digest {got} != recorded {want}"
            elif not CostCheckReport.from_dict(record["cost_check"]).ok():
                error = "cost check failed"
        if error is not None:
            failed += 1
            if len(errors) < 20:
                errors.append(f"{uni}[{index}]: {error}")
    return failed, errors


def reconcile(stats: dict, issued: int, records: list[tuple]) -> list[str]:
    """The serving invariants, as failure messages (empty when they hold)."""
    problems = []
    outcomes = stats["hit"] + stats["dedup"] + stats["miss"]
    if not (stats["requests"] == stats["served"] == outcomes) or not stats["reconciled"]:
        problems.append(f"requests {stats['requests']} != hit+dedup+miss {outcomes}")
    if not issued == len(records) == stats["requests"]:
        problems.append(
            f"issued {issued}, answered {len(records)}, "
            f"server requests {stats['requests']} differ")
    distinct = {(r[5], r[6]) for r in records if r[7] != "hit"}
    if stats["pool_points"] != len(distinct):
        problems.append(f"pool_points {stats['pool_points']} != distinct misses {len(distinct)}")
    return problems


def measure(workload: str, seed: int, seconds: float, tables: dict, work: Path,
            root: Path, *, setups: int = 1, spans_out: Path | None = None) -> dict:
    """Prewarm, launch the server ``setups`` times (the last one serves),
    drive it, check and reconcile.  Returns raw measurements."""
    unis = design.universes()
    store = work / "store"
    warm = asyncio.run(prewarm(store, unis["warm"]))
    bad_warm = [r for r in warm if not r["ok"]]
    if bad_warm:
        raise RuntimeError(f"prewarm failed: {bad_warm[0]}")
    setup_s = []
    cal = Calibration()
    server = Server(root, store, work / "server.log", spans_out)
    try:
        for i in range(setups):
            cal.sample()
            t0 = time.perf_counter()
            elapsed = server.start()
            cal.sample()
            setup_s.append(elapsed * cal.factor(t0, t0 + elapsed))
            if i < setups - 1:
                server.stop()

        async def go():
            from repro.service import ServiceClient

            clients = [await ServiceClient.connect("127.0.0.1", server.port)
                       for _ in range(design.CONNECTIONS)]
            control = await ServiceClient.connect("127.0.0.1", server.port)

            async def probing():
                while True:
                    cal.sample()
                    await asyncio.sleep(PROBE_EVERY_S)

            prober = asyncio.create_task(probing())
            try:
                if workload == "serve-hot":
                    out = await drive_hot(clients, seed, seconds, unis)
                else:
                    out = await drive_cold(clients, seed, seconds, unis, control, cal)
                return (*out, await control.stats())
            finally:
                prober.cancel()
                for client in clients + [control]:
                    await client.close()

        records, lags, backlog, issued, stats = asyncio.run(go())
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    failed, errors = check_responses(records, tables)
    problems = reconcile(stats, issued, records)
    return {
        "records": records,
        "calibration": cal,
        "lags": lags,
        "backlog": backlog,
        "stats": stats,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "failed": failed,
        "errors": errors,
        "problems": problems,
    }
