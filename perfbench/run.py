"""End-to-end benchmark over the simulator stack and the serving path.

    python3 perfbench/run.py --workload sim-theorems --seed 1 --seconds 15 --trace 0

Workloads (see ``design.py`` and ``README.md``):

* ``sim-theorems`` — direct ``build_stack(req).run()`` over theorem
  chains (bsp-on-logp, bsp-on-logp-on-network, logp-on-bsp), p 8-64;
* ``sim-network``  — the same harness on ``bsp-on-network``, p 64-256;
* ``serve-hot``    — a server process, closed loop, mostly cache hits;
* ``serve-cold``   — the same server, open loop, every request a miss.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats that measurement as a baseline, then runs
the workload again with every layer's entry points wrapped, and reports
per-layer self times, counts, ratios and shares, the tracing overhead,
and whether the layer self times reconcile with the traced total.

Every response is checked (cost checks, validators, recorded digests of
the simulated statistics, serving reconciliation).  The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``; the exit code is 1 when anything was wrong, 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sim-theorems", "sim-network", "serve-hot", "serve-cold")

#: Layer self times must sum to the traced total within this share.
RECONCILE_TOLERANCE = 0.05
#: Set-up is measured this many times per run; the median is reported.
SIM_SETUPS = 7
SERVE_SETUPS = 5
#: serve-hot runs are cut into this many equal windows (simulator runs
#: into their stratified rounds); metrics are medians over them, so a
#: slow stretch of the host cannot move them.  serve-cold is one window:
#: its pace is the schedule's, and its tail needs every sample.
SEGMENTS = 10
#: Hard stop for one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170

SETUP_SNIPPET = (
    "import repro.engine.request, repro.engine.stack, repro.obs, "
    "repro.workloads; print('ready', flush=True)"
)


def pct(values, q: int) -> float:
    """The ``q``-th percentile (1..99) by linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_sim(env) -> list[float]:
    """Seconds from process start until the request path is importable,
    scaled to reference-host seconds."""
    from hostspeed import Calibration

    cal = Calibration()
    times = []
    for _ in range(SIM_SETUPS):
        cal.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate()
        cal.sample()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
        times.append((t1 - t0) * cal.factor(t0, t1))
    return times


# -- one measurement -----------------------------------------------------------


def run_sim(workload, seed, seconds, tables, tracer=None) -> dict:
    import sim

    raw = sim.measure(workload, seed, seconds, tables[workload], tracer)
    segments = [
        dict(seg, rate=len(seg["lat"]) / seg["busy_s"],
             events_rate=seg["events"] / seg["busy_s"])
        for seg in raw["segments"]
    ]
    return {
        "raw": raw,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "segments": segments,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_serve(workload, seed, seconds, tables, work: Path, *, setups, spans_out=None) -> dict:
    import serve

    raw = serve.measure(workload, seed, seconds, tables, work, ROOT,
                        setups=setups, spans_out=spans_out)
    records, cal = raw["records"], raw["calibration"]
    cheap_kind = "hit" if workload == "serve-hot" else "fresh"
    start, end = min(r[1] for r in records), max(r[4] for r in records)
    n_segments = SEGMENTS if workload == "serve-hot" else 1
    width = (end - start) / n_segments
    segments = [{"lat": [], "cheap": [], "events": 0} for _ in range(n_segments)]
    simulated = set()
    for r in records:
        seg = segments[min(n_segments - 1, int((r[2] - start) / width))]
        x = (r[4] - r[2]) * cal.factor(r[2], r[4])
        seg["lat"].append(x)
        if r[7] == cheap_kind:
            seg["cheap"].append(x)
        if r[7] != "hit" and (r[5], r[6]) not in simulated:
            simulated.add((r[5], r[6]))
            seg["events"] += tables[r[5]][r[6]][1]
    for i, seg in enumerate(segments):
        lo = start + i * width
        busy = width * cal.factor(lo, lo + width)
        seg["rate"], seg["events_rate"] = len(seg["lat"]) / busy, seg["events"] / busy
    problems = list(raw["problems"])
    if workload == "serve-cold":
        lag99 = pct(raw["lags"], 99)
        if lag99 > serve.MAX_LAG_P99_S:
            problems.append(f"invalid run: generator lag p99 {lag99 * 1e3:.1f} ms")
        if raw["backlog"] > serve.MAX_BACKLOG_S * serve.design.COLD_RATE:
            problems.append(f"invalid run: backlog {raw['backlog']} at schedule end")
    return {
        "raw": raw,
        "attempted": len(records),
        "failed": raw["failed"],
        "errors": raw["errors"] + problems,
        "problems": problems,
        "segments": segments,
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"],
    }


def end_to_end(m: dict, setup_s: float) -> dict:
    """Each rate and percentile is the median over the run's segments of
    that segment's value, so one noisy stretch cannot move it."""
    segs = m["segments"]

    def med(fn, key="lat"):
        return statistics.median(fn(s) for s in segs if s[key])

    return {
        "setup_s": (setup_s, "s"),
        "req_per_s": (med(lambda s: s["rate"]), "1/s"),
        "latency_p50_ms": (med(lambda s: pct(s["lat"], 50)) * 1e3, "ms"),
        "latency_p90_ms": (med(lambda s: pct(s["lat"], 90)) * 1e3, "ms"),
        "latency_p99_ms": (med(lambda s: pct(s["lat"], 99)) * 1e3, "ms"),
        "cheap_latency_p99_ms": (med(lambda s: pct(s["cheap"], 99), "cheap") * 1e3, "ms"),
        "sim_events_per_s": (med(lambda s: s["events_rate"]), "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def latencies(m: dict) -> list[float]:
    return [x for seg in m["segments"] for x in seg["lat"]]


# -- main -------------------------------------------------------------------------


def _timeout(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import design
    from digest import load_table

    seed = design.DEFAULT_SEED if args.seed is None else args.seed
    table = load_table()
    if table["design"] != design.design_hash():
        print("perfbench: digests.json is stale; rerun record_digests.py", file=sys.stderr)
        return 2
    tables = table["tables"]

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    import repro.experiments  # noqa: F401 — compile once, outside set-up timing
    import repro.service  # noqa: F401

    ok = False
    try:
        if args.trace:
            from profile_layers import traced_run

            result = traced_run(args.workload, seed, args.seconds, tables, work)
        else:
            result = untraced_run(args.workload, seed, args.seconds, tables, work, env)
        ok = result["correct"]
    finally:
        signal.alarm(0)
        if ok:
            shutil.rmtree(work, ignore_errors=True)
    for line in result.pop("report"):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0 if ok else 1


def untraced_run(workload, seed, seconds, tables, work, env) -> dict:
    if workload.startswith("sim-"):
        setups = setup_sim(env)
        m = run_sim(workload, seed, seconds, tables)
    else:
        m = run_serve(workload, seed, seconds, tables, work, setups=SERVE_SETUPS)
        setups = m["setup_s"]
    metrics = end_to_end(m, statistics.median(setups))
    return summarize(workload, m, metrics, m["failed"] == 0 and not m.get("problems"))


def summarize(workload, m, metrics, correct) -> dict:
    report = [f"{workload}: {m['attempted']} attempted, {m['failed']} failed, "
              f"{len(latencies(m))} timed in {len(m['segments'])} segments"]
    report += [f"  {name:28s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
    report += [f"  ERROR {e}" for e in m["errors"]]
    return {
        "correct": bool(correct),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


if __name__ == "__main__":
    raise SystemExit(main())
