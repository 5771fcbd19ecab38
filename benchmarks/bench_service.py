"""Service throughput benchmark: served-requests/sec vs cache hit rate.

Drives an in-process :class:`~repro.service.SimulationService` through
three phases at target hit rates **0% / 50% / 95%** and reports
served-requests/sec for each — the served-throughput-vs-hit-rate curve
that characterizes the serving tier the way slowdown curves characterize
the simulators.

Per phase, a request population is built so that the chosen fraction of
submissions repeats already-cached points (prewarmed before the timed
region) while the rest are distinct cold misses.  The service runs with
``workers=0`` and every request is a native ``bsp`` point, so misses
compute *in a thread of the service's own process* and its worker
process stays idle.  The phase results thus double as the acceptance
proof for the hit path:

* at every hit rate the stats must **reconcile exactly**:
  ``requests == served == hit + dedup + miss``;
* ``pool_points`` must equal the number of *distinct* cold points — at
  95% hit rate the cache-hit majority is served without the pool seeing
  a single extra point.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json

The JSON artifact goes through the schema-versioned
:func:`repro.campaign.io.dump_json` emitter (kind ``bench_service``).

This file is importable under pytest's ``bench_*.py`` collection but
defines no tests; it is an argparse CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.campaign.io import dump_json  # noqa: E402
from repro.service import ServiceConfig, SimulationService  # noqa: E402
from repro.util.tables import render_table  # noqa: E402

#: (label, target hit fraction) — the acceptance criteria's three points.
HIT_RATES = (("cold", 0.0), ("warm", 0.5), ("hot", 0.95))


def _doc(i: int, *, seed: int = 0) -> dict:
    """The i-th distinct request: same tiny chain, distinct seed axis —
    distinct content-addressed keys, near-identical compute cost."""
    return {"chain": "bsp", "program": "prefix", "p": 4, "seed": seed + i}


def _phase_population(label: str, hit_fraction: float, total: int) -> tuple:
    """Build (prewarm_docs, request_docs): ``hit_fraction`` of the
    requests cycle over the prewarmed keys, the rest are distinct cold
    points.  Seeds are namespaced per phase so phases never share keys."""
    base = [lbl for lbl, _ in HIT_RATES].index(label) * 1_000_000
    hits = round(total * hit_fraction)
    misses = total - hits
    warm_pool = max(1, min(hits, max(1, misses // 2))) if hits else 0
    prewarm = [_doc(i, seed=base) for i in range(warm_pool)]
    requests = [_doc(warm_pool + i, seed=base) for i in range(misses)]
    requests += [prewarm[i % warm_pool] for i in range(hits)]
    # Interleave hits and misses so the served mix is steady, not phased.
    requests.sort(key=lambda d: d["seed"] % 7)
    return prewarm, requests


async def _run_phase(svc: SimulationService, label: str,
                     hit_fraction: float, total: int) -> dict:
    prewarm, requests = _phase_population(label, hit_fraction, total)
    for doc in prewarm:  # sequential: these are the cache's warm set
        resp = await svc.submit(doc)
        assert resp["ok"], f"prewarm failed: {resp}"
    svc.stats.reset()
    t0 = time.perf_counter()
    responses = await asyncio.gather(*(svc.submit(d) for d in requests))
    wall_s = time.perf_counter() - t0
    assert all(r["ok"] for r in responses), "phase had failing responses"

    stats = svc.stats
    distinct_misses = len({r["key"] for r in responses
                           if r["outcome"] in ("miss", "dedup")})
    issued = len(requests)
    # -- acceptance: counters reconcile exactly with requests issued --
    assert stats.reconciled(), stats.as_dict()
    assert stats.requests == issued, (stats.requests, issued)
    served_sum = sum(stats.counts.values())
    assert served_sum == issued, (served_sum, issued)
    # -- acceptance: the pool saw only the distinct cold points --
    assert stats.pool_points == distinct_misses, (
        stats.pool_points, distinct_misses)
    return {
        "label": label,
        "target_hit_rate": hit_fraction,
        "requests": issued,
        "wall_s": round(wall_s, 6),
        "served_per_s": round(issued / wall_s, 2) if wall_s else None,
        "observed_hit_rate": round(stats.hit_rate(), 6),
        "hit": stats.counts["hit"],
        "dedup": stats.counts["dedup"],
        "miss": stats.counts["miss"],
        "pool_jobs": stats.pool_jobs,
        "pool_points": stats.pool_points,
        "reconciled": stats.reconciled(),
        "latency_ms": {
            outcome: {
                "mean": round(h.mean * 1000, 4) if h.count else None,
                "max": round(h.max * 1000, 4) if h.count else None,
                "count": h.count,
            }
            for outcome, h in stats.latency.items()
        },
    }


def measure(total: int) -> dict:
    async def _main() -> list[dict]:
        out = []
        with tempfile.TemporaryDirectory(prefix="bench-service-") as d:
            cfg = ServiceConfig(store_dir=d, shards=8, workers=0)
            async with SimulationService(cfg) as svc:
                for label, rate in HIT_RATES:
                    out.append(await _run_phase(svc, label, rate, total))
        return out

    phases = asyncio.run(_main())
    return {
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "requests_per_phase": total,
        "workers": 0,
        "phases": phases,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small request population (CI smoke)",
    )
    parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="requests per phase (default 200, or 60 with --quick)",
    )
    parser.add_argument(
        "--out", metavar="PATH",
        help="write the report JSON (schema kind 'bench_service')",
    )
    args = parser.parse_args(argv)
    total = args.requests or (60 if args.quick else 200)

    report = measure(total)
    rows = [
        (
            ph["label"],
            f"{ph['target_hit_rate']:.0%}",
            f"{ph['observed_hit_rate']:.0%}",
            ph["requests"],
            ph["served_per_s"],
            ph["hit"],
            ph["dedup"],
            ph["miss"],
            ph["pool_points"],
            "yes" if ph["reconciled"] else "NO",
        )
        for ph in report["phases"]
    ]
    print(render_table(
        ["phase", "target hit", "observed", "requests", "served/s",
         "hit", "dedup", "miss", "pool pts", "reconciled"],
        rows,
        title=f"service throughput vs hit rate ({total} requests/phase, "
        f"workers=0: bsp misses compute in-process)",
    ))
    if args.out:
        path = dump_json(args.out, "bench_service", report)
        print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
