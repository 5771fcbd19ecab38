"""Unit tests for the kernel benchmark's per-workload regression gate.

The gate logic lives in ``benchmarks/bench_kernel.py`` (an argparse CLI,
imported here by file path).  These tests feed ``check()`` synthetic
reports so the rules are pinned without running any timed workload:

* the one measured kernel (``event``) is the gated kernel, with an
  absolute 1.0x floor on every workload — binding even for workloads
  with no committed baseline;
* it must also stay within the ratio gate of its committed speedup;
* committed baselines are read in both the v2 per-kernel layout and the
  legacy v1 event-only one;
* ``--obs-check`` times its two sides in interleaved pairs and gates the
  median of the per-pair ratios (``paired_overhead``, on a fake clock).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_kernel.py"
)
_spec = importlib.util.spec_from_file_location("bench_kernel", BENCH_PATH)
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)


def entry(event=None, floor=1.0) -> dict:
    kernels = {}
    if event is not None:
        kernels["event"] = {"speedup": event}
    return {"floor": floor, "kernels": kernels}


def report(**workloads) -> dict:
    return {"workloads": workloads}


class TestAbsoluteFloor:
    def test_event_is_the_one_gated_kernel(self):
        assert bench_kernel.GATED_KERNEL == "event"
        assert bench_kernel.MEASURED_KERNELS == ("event",)

    def test_sub_floor_gated_kernel_fails(self):
        rep = report(dense=entry(event=0.93))
        assert bench_kernel.check(rep, committed=None) == 1

    def test_floor_binds_without_committed_entry(self):
        """A brand-new workload cannot ship below 1.0x: the floor fires
        even when the committed file has never seen the workload."""
        committed = {"workloads": {}, "gate_ratio": 0.8}
        rep = report(brand_new=entry(event=0.5))
        assert bench_kernel.check(rep, committed) == 1

    def test_floor_binds_even_when_committed_speedup_is_low(self):
        """A low committed speedup must not relax the absolute floor."""
        committed = {
            "workloads": {"dense": entry(event=0.4)},
            "gate_ratio": 0.8,
        }
        rep = report(dense=entry(event=0.9))
        assert bench_kernel.check(rep, committed) == 1

    def test_at_floor_passes(self):
        rep = report(dense=entry(event=1.0))
        assert bench_kernel.check(rep, committed=None) == 0

    def test_per_workload_floor_override(self):
        rep = report(dense=entry(event=1.3, floor=1.5))
        assert bench_kernel.check(rep, committed=None) == 1


class TestRatioGate:
    def test_regression_against_committed_fails(self):
        committed = {
            "workloads": {"w": entry(event=2.0)},
            "gate_ratio": 0.8,
        }
        rep = report(w=entry(event=1.5))  # 1.5 < 0.8 * 2.0
        assert bench_kernel.check(rep, committed) == 1

    def test_within_ratio_passes(self):
        committed = {
            "workloads": {"w": entry(event=2.0)},
            "gate_ratio": 0.8,
        }
        rep = report(w=entry(event=1.7))
        assert bench_kernel.check(rep, committed) == 0

    def test_failures_accumulate_per_kernel_and_workload(self):
        committed = {
            "workloads": {"w": entry(event=2.0), "u": entry(event=3.0)},
            "gate_ratio": 0.8,
        }
        rep = report(
            w=entry(event=0.9),  # ratio fail + floor fail: one failure
            u=entry(event=2.0),  # ratio fail
            v=entry(event=0.8),  # floor fail (uncommitted workload)
        )
        assert bench_kernel.check(rep, committed) == 3


class TestCommittedSpeedupLayouts:
    def test_v2_per_kernel_layout(self):
        e = entry(event=2.5)
        assert bench_kernel._committed_speedup(e, "event") == 2.5
        assert bench_kernel._committed_speedup(e, "tick") is None

    def test_legacy_v1_event_only_layout(self):
        legacy = {"speedup": 2.0, "baseline": {}, "current": {}}
        assert bench_kernel._committed_speedup(legacy, "event") == 2.0
        assert bench_kernel._committed_speedup(legacy, "tick") is None

    def test_missing_entry(self):
        assert bench_kernel._committed_speedup(None, "event") is None


class FakeHost:
    """A clock that only the timed sides advance: each run costs its
    base cost, inflated by ``drift`` per run so far (a host that slows
    down as the benchmark goes on)."""

    def __init__(self, drift: float = 0.0) -> None:
        self.now, self.drift, self.calls = 0.0, drift, []

    def clock(self) -> float:
        return self.now

    def side(self, name: str, cost: float, events: int):
        def run() -> int:
            self.calls.append(name)
            self.now += cost * (1 + self.drift * len(self.calls))
            return events

        return run


class TestPairedOverhead:
    def overhead(self, host, base_cost, other_cost, pairs, base_events=1,
                 other_events=1):
        return bench_kernel.paired_overhead(
            host.side("base", base_cost, base_events),
            host.side("other", other_cost, other_events),
            pairs, clock=host.clock,
        )

    def test_each_pair_flips_which_side_goes_first(self):
        host = FakeHost()
        self.overhead(host, 1.0, 1.0, 4)
        assert host.calls == ["base", "other", "other", "base"] * 2

    def test_reads_the_ratio_and_both_event_counts(self):
        overhead, base_events, other_events = self.overhead(
            FakeHost(), 1.0, 1.03, 5, base_events=7, other_events=9)
        assert overhead == pytest.approx(0.03)
        assert (base_events, other_events) == (7, 9)

    def test_host_drift_lands_on_both_sides(self):
        """Identical sides on a host slowing 2% per run: the interleaved
        median reads ~0, where timing every base run first and comparing
        best-of-N would read +16%."""
        overhead, _, _ = self.overhead(FakeHost(drift=0.02), 1.0, 1.0, 8)
        assert abs(overhead) < 0.01
