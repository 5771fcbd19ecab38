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
* both gates time their two sides in interleaved pairs that alternate
  which side goes first, and read the median of the per-pair ratios
  (``paired``, on a fake clock): ``--check`` as each workload's
  speedup, ``--obs-check`` as its overhead.
"""

from __future__ import annotations

import importlib.util
import itertools
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
    """A clock that only the timed sides advance.  Each call of a side
    costs its next cost (a list cycles, one entry per call), inflated by
    ``drift`` per call so far (a host that slows down as the benchmark
    goes on)."""

    def __init__(self, drift: float = 0.0) -> None:
        self.now, self.drift, self.calls = 0.0, drift, []

    def clock(self) -> float:
        return self.now

    def side(self, name: str, cost, events: int):
        costs = itertools.cycle(cost if isinstance(cost, list) else [cost])

        def run() -> int:
            self.calls.append(name)
            self.now += next(costs) * (1 + self.drift * len(self.calls))
            return events

        return run


class TestPairedOverhead:
    """``paired``, the pairing helper behind both gates."""

    def paired(self, host, base_cost, other_cost, pairs, base_events=1,
               other_events=1, sweeps=1):
        return bench_kernel.paired(
            host.side("base", base_cost, base_events),
            host.side("other", other_cost, other_events),
            pairs, sweeps=sweeps, clock=host.clock,
        )

    def test_each_pair_flips_which_side_goes_first(self):
        host = FakeHost()
        self.paired(host, 1.0, 1.0, 4)
        assert host.calls == ["base", "other", "other", "base"] * 2

    def test_sweeps_alternate_inside_a_pair(self):
        host = FakeHost()
        self.paired(host, 1.0, 1.0, 2, sweeps=3)
        assert host.calls == ["base", "other"] * 3 + ["other", "base"] * 3

    def test_reads_the_ratio_and_both_event_counts(self):
        ratio, walls, events = self.paired(
            FakeHost(), 1.0, 1.03, 5, base_events=7, other_events=9)
        assert ratio == pytest.approx(1.03)
        assert walls == pytest.approx((1.0, 1.03))
        assert events == (7, 9)

    def test_ratio_is_the_median_of_per_pair_ratios(self):
        """Per-pair ratios 2, 3 and 10: the median is 3, where the mean
        would read 5 and the ratio of the best walls 2."""
        ratio, walls, _ = self.paired(FakeHost(), 1.0, [2.0, 3.0, 10.0], 3)
        assert ratio == pytest.approx(3.0)
        assert walls == pytest.approx((1.0, 3.0))

    def test_a_pair_sums_its_sweeps(self):
        """Three sweeps per side: each pair's ratio is the ratio of the
        sums (2+4+6) / (1+1+1) = 4; the wall is per sweep."""
        ratio, walls, _ = self.paired(
            FakeHost(), 1.0, [2.0, 4.0, 6.0], 1, sweeps=3)
        assert ratio == pytest.approx(4.0)
        assert walls == pytest.approx((1.0, 4.0))

    def test_host_drift_lands_on_both_sides(self):
        """Identical sides on a host slowing 2% per run: the interleaved
        median reads ~1, where timing every base run first and comparing
        best-of-N would read 1.16."""
        ratio, _, _ = self.paired(FakeHost(drift=0.02), 1.0, 1.0, 8)
        assert abs(ratio - 1) < 0.01


class TestKernelSpeedup:
    """``run_all`` reads each workload's speedup as the median of
    interleaved tick/event pairs."""

    def run_all(self, monkeypatch, event_costs, tick_costs, pairs):
        host = FakeHost()
        sides = {
            "event": host.side("event", event_costs, 40),
            "tick": host.side("tick", tick_costs, 40),
        }
        calls = []

        def workload(kernel: str) -> int:
            calls.append(kernel)
            if len(calls) == 1:
                return 40  # run_all's untimed warm-up call
            return sides[kernel]()

        monkeypatch.setattr(bench_kernel, "WORKLOADS", {"w": workload})
        report = bench_kernel.run_all(pairs, clock=host.clock)
        return host, calls[0], report["workloads"]["w"]

    def test_speedup_is_the_median_of_pair_ratios(self, monkeypatch):
        _, _, measured = self.run_all(
            monkeypatch, 1.0, [4.0, 1.5, 3.0, 2.5, 30.0], 5)
        assert measured["kernels"]["event"]["speedup"] == 3.0
        assert measured["baseline"]["wall_s"] == 3.0
        assert measured["kernels"]["event"]["events"] == 40

    def test_pair_order_alternates(self, monkeypatch):
        host, warmup, _ = self.run_all(monkeypatch, 1.0, 2.0, 4)
        assert warmup == "event"
        assert host.calls == ["event", "tick", "tick", "event"] * 2

    def test_gate_reads_the_median(self, monkeypatch):
        """One burst-spoiled pair (0.5x) does not fail a workload whose
        other pairs read 2x against a committed 2x."""
        _, _, measured = self.run_all(monkeypatch, 1.0, [2.0, 0.5, 2.0], 3)
        committed = {"workloads": {"w": entry(event=2.0)}, "gate_ratio": 0.8}
        assert bench_kernel.check(report(w=measured), committed) == 0
