"""Kernel throughput benchmark + CI regression gate.

Measures events/second of the production kernel (``kernel="event"``:
skip-ahead queue, active-set router with its array pass for wide
multi-port relations) against the per-tick scanning reference
(``kernel="tick"``) on fixed workloads, and records both into
``BENCH_kernel.json`` at the repo root (schema v2)::

    "workloads": {
      "<name>": {
        "floor": 1.0,                # absolute speedup floor (gated kernel)
        "baseline": {...tick...},
        "kernels": {
          "event": {..., "speedup": <vs tick>}
        }
      }
    }

Each workload's ``speedup`` is the median over interleaved tick/event
pairs of the per-pair wall-clock ratio, each pair flipping which kernel
runs first (:func:`paired`); ``wall_s`` is each kernel's median wall.

The gate (``--check``) is per-workload and two-sided:

* the **gated kernel** (``event`` — what the experiments run) must beat
  the tick reference on *every* workload: ``speedup >= floor`` (1.0)
  absolutely, regardless of what the committed file says.
* it must also stay within ``gate_ratio`` (0.8) of its committed
  speedup — the machine-speed-robust regression check (ratios of ratios
  cancel the host's absolute speed).

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # measure
    PYTHONPATH=src python benchmarks/bench_kernel.py --update   # rewrite json
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --check  # CI
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --out b.json

``--quick`` times half as many pairs (3 per workload, 10 for
``--obs-check``) at the same workload sizes, so speedups stay comparable
to the committed file.
``--out`` writes the measured report to a path of your choice (the CI
artifact) without touching the committed baseline.

The routing workloads pre-build their packet paths outside the timed
region: the benchmark gates the *kernels*, and workload generation
(h-relation sampling, path routing) is identical constant work for every
kernel that would only dilute the ratios.

This file is importable under pytest's ``bench_*.py`` collection but
defines no tests; it is an argparse CLI.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.campaign.io import dump_json, load_json  # noqa: E402
from repro.core.bsp_on_logp import simulate_bsp_on_logp  # noqa: E402
from repro.logp.machine import LogPMachine  # noqa: E402
from repro.models.params import LogPParams  # noqa: E402
from repro.networks import Hypercube  # noqa: E402
from repro.networks.routing_sim import (  # noqa: E402
    RoutingConfig,
    build_paths,
    route_h_relation,
    route_packets,
)
from repro.perf import clear_plan_caches  # noqa: E402
from repro.programs import logp_broadcast_program, logp_sum_program  # noqa: E402
from repro.routing.workloads import balanced_h_relation  # noqa: E402

BENCH_FILE = _REPO_ROOT / "BENCH_kernel.json"

#: Schema stamp of the committed benchmark file (see repro.campaign.io).
BENCH_KIND = "repro.bench.kernel"

#: Schema version of the per-kernel layout this module writes and reads.
BENCH_VERSION = 2

#: Regression tolerance: fail when measured speedup < RATIO * committed.
GATE_RATIO = 0.8

#: Absolute per-workload speedup floor for the gated kernel: the
#: production kernel must never lose to the tick reference.
FLOOR = 1.0

#: The kernel the floor applies to — what experiments actually run.
GATED_KERNEL = "event"

#: Kernels measured against the tick baseline, in report order.
MEASURED_KERNELS = (GATED_KERNEL,)

#: Interleaved tick/event pairs timed per workload with ``--quick``
#: (twice as many without).
KERNEL_PAIRS_QUICK = 3


def _run_bsp_on_logp_sweep(kernel: str, obs=None) -> int:
    """The acceptance workload: 64-processor BSP-on-LogP over an (L, G)
    sweep in the latency-dominated regime (offline Hall routing, so the
    h-relations ride pinned slots and the clock is mostly idle air the
    tick kernel has to scan through).  Returns events processed."""
    events = 0
    from repro.programs import bsp_prefix_program

    for L, G in ((128, 8), (256, 8), (512, 8)):
        params = LogPParams(p=64, L=L, o=2, G=G)
        rep = simulate_bsp_on_logp(
            params,
            bsp_prefix_program(),
            routing="offline",
            machine_kwargs={"kernel": kernel},
            obs=obs,
        )
        events += rep.logp.kernel.events
    return events


def _run_logp_machine(kernel: str) -> int:
    """Raw LogP machine: collectives at p=64 with large L."""
    events = 0
    for prog, params in (
        (logp_sum_program(), LogPParams(p=64, L=64, o=2, G=2)),
        (logp_broadcast_program(), LogPParams(p=64, L=96, o=2, G=3)),
    ):
        res = LogPMachine(params, kernel=kernel).run(prog)
        events += res.kernel.events
    return events


def _run_routing_singleport_faulty(kernel: str) -> int:
    """Single-port routing with a 0.9 link-fault rate: the long-tail
    regime (most packets delivered, a few retried for hundreds of steps)
    where the active-node set shrinks far below the node count."""
    cfg = RoutingConfig(
        single_port=True, link_fault_rate=0.9, seed=9, kernel=kernel
    )
    out = route_h_relation(Hypercube(256), 8, seed=1, config=cfg)
    return out.kernel.events


#: Pre-built routing inputs, keyed by (p, h, seed): path construction is
#: kernel-independent setup, kept outside the timed region.
_ROUTING_INPUTS: dict = {}


def _routing_inputs(p: int, h: int, seed: int):
    key = (p, h, seed)
    if key not in _ROUTING_INPUTS:
        topo = Hypercube(p)
        pairs = balanced_h_relation(topo.p, h, seed=seed)
        _ROUTING_INPUTS[key] = (topo, build_paths(topo, pairs, seed=seed + 1))
    return _ROUTING_INPUTS[key]


def _run_routing_multiport_dense(kernel: str) -> int:
    """Dense multi-port routing — the tick scan's best case (every
    created edge stays busy) and the scalar active-set loop's worst;
    the workload the router's array pass exists for."""
    topo, paths = _routing_inputs(64, 256, 1)
    out = route_packets(topo, paths, RoutingConfig(kernel=kernel))
    return out.kernel.events


def _run_routing_multiport_dense_xl(kernel: str) -> int:
    """The dense regime at ROADMAP scale: a 512-relation on the
    256-node hypercube (~half a million transmissions, ~2k live links
    per step) — large enough that per-step array passes amortize and the
    array pass pulls away from both scalar loops."""
    topo, paths = _routing_inputs(256, 512, 1)
    out = route_packets(topo, paths, RoutingConfig(kernel=kernel))
    return out.kernel.events


WORKLOADS = {
    "bsp_on_logp_p64": _run_bsp_on_logp_sweep,
    "logp_machine_p64": _run_logp_machine,
    "routing_singleport_faulty": _run_routing_singleport_faulty,
    "routing_multiport_dense": _run_routing_multiport_dense,
    "routing_multiport_dense_xl": _run_routing_multiport_dense_xl,
}


def paired(base, other, pairs: int, *, sweeps: int = 1,
           clock=time.perf_counter):
    """Time ``base`` against ``other`` in ``pairs`` interleaved pairs.

    A pair calls the two sides alternately, ``sweeps`` times each, and
    the next pair flips which side goes first, so host drift (frequency
    scaling, a noisy neighbour) lands on both sides rather than on
    whichever is timed last.  Returns ``(ratio, walls, events)``: the
    median over the pairs of each pair's ``other / base`` wall-clock
    ratio, each side's median wall per call, and each side's event
    count.  The median ignores the pairs a burst of drift spoiled.
    Best-of-N per side, timed side after side, read +59.6% comparing
    two identical code paths."""
    sides = (base, other)
    ratios, walls, events = [], ([], []), [0, 0]
    for i in range(pairs):
        wall = [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)) * sweeps:
            clear_plan_caches()
            t0 = clock()
            events[side] = sides[side]()
            wall[side] += clock() - t0
        for side in (0, 1):
            walls[side].append(wall[side] / sweeps)
        ratios.append(wall[1] / wall[0])
    return (
        statistics.median(ratios),
        tuple(statistics.median(w) for w in walls),
        tuple(events),
    )


def _kernel_entry(kernel: str, events: int, wall: float) -> dict:
    return {
        "kernel": kernel,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall) if wall else 0,
    }


def run_all(pairs: int, clock=time.perf_counter) -> dict:
    """Measure every workload: the gated kernel against the tick
    reference in ``pairs`` interleaved pairs.  Its ``speedup`` is the
    median of the per-pair tick/event wall ratios."""
    workloads = {}
    for name, fn in WORKLOADS.items():
        fn(GATED_KERNEL)  # untimed: the first call builds cached inputs
        kernels = {}
        for kernel in MEASURED_KERNELS:
            speedup, walls, events = paired(
                lambda k=kernel: fn(k), lambda: fn("tick"), pairs, clock=clock
            )
            if events[0] != events[1]:
                raise AssertionError(
                    f"{name}: kernels diverged — {kernel} processed "
                    f"{events[0]} events, tick {events[1]}"
                )
            kernels[kernel] = {
                **_kernel_entry(kernel, events[0], walls[0]),
                "speedup": round(speedup, 2),
            }
        workloads[name] = {
            "floor": FLOOR,
            "baseline": _kernel_entry("tick", events[1], walls[1]),
            "kernels": kernels,
        }
    return {
        "updated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "gate_ratio": GATE_RATIO,
        "gated_kernel": GATED_KERNEL,
        "workloads": workloads,
    }


def print_report(report: dict) -> None:
    print(
        f"{'workload':28s} {'tick ev/s':>12s} "
        + " ".join(f"{k + ' ev/s':>14s} {'x':>6s}" for k in MEASURED_KERNELS)
    )
    total = {k: 0 for k in ("tick", *MEASURED_KERNELS)}
    for name, entry in report["workloads"].items():
        total["tick"] += entry["baseline"]["events_per_s"]
        cols = []
        for k in MEASURED_KERNELS:
            cur = entry["kernels"][k]
            total[k] += cur["events_per_s"]
            cols.append(f"{cur['events_per_s']:>14,d} {cur['speedup']:>5.2f}x")
        print(
            f"{name:28s} {entry['baseline']['events_per_s']:>12,d} "
            + " ".join(cols)
        )
    print(
        f"{'aggregate':28s} {total['tick']:>12,d} "
        + " ".join(f"{total[k]:>14,d} {'':>6s}" for k in MEASURED_KERNELS)
    )


#: Disabled-instrumentation overhead gate (--obs-check): running with
#: ``Observation(enabled=False)`` must cost < 5% extra wall clock vs no
#: observation at all — a disabled observation is normalized to ``None``
#: at every constructor boundary, so the hot loops are byte-identical.
OBS_OVERHEAD_LIMIT = 0.05

#: Interleaved base/disabled pairs ``--obs-check`` times with
#: ``--quick`` (twice as many without), and the sweeps each side of a
#: pair runs: one sweep per side let per-pair ratios of two identical
#: sides spread 0.67-1.21.
OBS_PAIRS_QUICK = 10
OBS_SWEEPS = 2


def obs_check(pairs: int) -> int:
    from repro.obs import Observation

    ratio, _walls, (base_events, disabled_events) = paired(
        lambda: _run_bsp_on_logp_sweep("event"),
        lambda: _run_bsp_on_logp_sweep(
            "event", obs=Observation(enabled=False)
        ),
        pairs,
        sweeps=OBS_SWEEPS,
    )
    overhead = ratio - 1.0
    if disabled_events != base_events:
        print(
            f"FAIL  obs-check: event counts diverged "
            f"({disabled_events} with disabled obs vs {base_events})"
        )
        return 1
    ok = overhead < OBS_OVERHEAD_LIMIT
    print(
        f"{'ok  ' if ok else 'FAIL'}  obs-check: bsp_on_logp_p64 disabled-"
        f"instrumentation overhead {overhead * 100:+.1f}% "
        f"(median of {pairs} interleaved pairs of {OBS_SWEEPS} sweeps; "
        f"limit {OBS_OVERHEAD_LIMIT * 100:.0f}%)"
    )
    return 0 if ok else 1


def _committed_speedup(committed_entry: dict | None, kernel: str) -> float | None:
    """The committed speedup for ``kernel``, reading both the v2 layout
    (``kernels.<name>.speedup``) and the legacy v1 one (a single
    event-kernel ``speedup``)."""
    if committed_entry is None:
        return None
    ref = committed_entry.get("kernels", {}).get(kernel)
    if ref is not None:
        return ref.get("speedup")
    if kernel == "event":  # v1 files measured only the event kernel
        return committed_entry.get("speedup")
    return None


def check(report: dict, committed: dict | None) -> int:
    """Per-workload gate; returns the number of failures.

    Two conditions per workload (see module docstring): the gated
    kernel's absolute ``floor``, and each kernel's ``gate_ratio`` of its
    committed speedup.  The floor binds even when the workload has no
    committed entry yet — a brand-new workload cannot ship below 1.0x.
    """
    failures = 0
    committed_workloads = (committed or {}).get("workloads", {})
    gate_ratio = (committed or {}).get("gate_ratio", GATE_RATIO)
    for name, entry in report["workloads"].items():
        ref_entry = committed_workloads.get(name)
        if ref_entry is None and committed is not None:
            print(f"WARN  {name}: not in committed {BENCH_FILE.name}")
        for kernel, current in entry["kernels"].items():
            threshold = 0.0
            reasons = []
            if kernel == GATED_KERNEL:
                floor = entry.get("floor", FLOOR)
                threshold = max(threshold, floor)
                reasons.append(f"floor {floor:.2f}x")
            ref_speedup = _committed_speedup(ref_entry, kernel)
            if ref_speedup is not None:
                ratio_floor = gate_ratio * ref_speedup
                threshold = max(threshold, ratio_floor)
                reasons.append(
                    f"{gate_ratio:.2f} x committed {ref_speedup:.2f}x"
                )
            if not reasons:
                continue
            ok = current["speedup"] >= threshold
            if not ok:
                failures += 1
            print(
                f"{'ok  ' if ok else 'FAIL'}  {name} [{kernel}]: speedup "
                f"{current['speedup']:.2f}x (gate {threshold:.2f}x = "
                f"max of {', '.join(reasons)})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="time half as many pairs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail when any workload's gated-kernel speedup drops below "
        f"{FLOOR}x, or any kernel regresses >"
        f"{round((1 - GATE_RATIO) * 100)}%% vs the committed "
        f"{BENCH_FILE.name}",
    )
    parser.add_argument(
        "--update", action="store_true", help=f"rewrite {BENCH_FILE.name}"
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="also write the measured report to PATH (the CI artifact)",
    )
    parser.add_argument(
        "--obs-check",
        action="store_true",
        help=f"fail when a disabled Observation adds >="
        f"{round(OBS_OVERHEAD_LIMIT * 100)}%% wall clock on bsp_on_logp_p64",
    )
    args = parser.parse_args(argv)

    obs_pairs = OBS_PAIRS_QUICK if args.quick else 2 * OBS_PAIRS_QUICK
    if args.obs_check and not (args.check or args.update or args.out):
        return obs_check(obs_pairs)

    report = run_all(KERNEL_PAIRS_QUICK if args.quick else 2 * KERNEL_PAIRS_QUICK)
    print_report(report)

    rc = 0
    if args.obs_check:
        rc = max(rc, obs_check(obs_pairs))
    if args.check:
        if not BENCH_FILE.exists():
            print(f"FAIL  committed {BENCH_FILE.name} missing")
            rc = 1
        else:
            committed = load_json(
                BENCH_FILE,
                kind=BENCH_KIND,
                allow_legacy=True,
                max_version=BENCH_VERSION,
            )
            rc = max(rc, 1 if check(report, committed) else 0)
    if args.update:
        dump_json(BENCH_FILE, BENCH_KIND, report, version=BENCH_VERSION)
        print(f"wrote {BENCH_FILE}")
    if args.out:
        out = dump_json(args.out, BENCH_KIND, report, version=BENCH_VERSION)
        print(f"wrote {out}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
