"""The event kernel's two router paths, pinned against the tick reference.

``route_packets`` routes a relation with the numpy array pass or the
scalar active-set loop, chosen from the relation itself
(``_vectorizes``).  The tests below call both private paths directly, on
inputs from each side of that choice, so each path stays pinned to the
reference scan whichever one the selector picks: outcome, per-link
occupancy and the full hop trace, with lossy links included.
"""

from __future__ import annotations

import pytest

from repro.networks import Hypercube
from repro.networks.routing_sim import (
    VECTOR_MIN_PACKETS,
    RoutingConfig,
    _route_packets_array,
    _route_packets_event,
    _route_packets_tick,
    _vectorizes,
    build_paths,
)
from repro.obs import Observation
from repro.routing.workloads import balanced_h_relation

PATHS = {
    "event": _route_packets_event,
    "array": _route_packets_array,
}


def balanced(p: int, h: int, *, valiant: bool = False) -> list[list[int]]:
    topo = Hypercube(p)
    pairs = balanced_h_relation(topo.p, h, seed=3)
    return build_paths(topo, pairs, valiant=valiant, seed=4)


def gather(p: int) -> list[list[int]]:
    """Every host sends ``p`` packets to host 0: the p² sample gather of
    sample sort, a hot spot with ``h = p²``."""
    topo = Hypercube(p)
    return build_paths(topo, [(src, 0) for src in range(p) for _ in range(p)])


#: (name, paths, selector's choice) — inputs from both sides of the rule.
INPUTS = [
    ("balanced_at_floor", balanced(32, 16), True),
    ("balanced_valiant", balanced(64, 8, valiant=True), True),
    ("balanced_wide", balanced(64, 48), True),  # > one initial-append slice
    ("balanced_small", balanced(16, 4), False),
    ("gather_p32", gather(32), False),
]


def run(route, paths, fault_rate: float):
    config = RoutingConfig(link_fault_rate=fault_rate, seed=11)
    outcome, occupancy, hops = route(paths, config, Observation(trace=True))
    return {
        "time": outcome.time,
        "packets": outcome.packets,
        "total_hops": outcome.total_hops,
        "max_queue": outcome.max_queue,
        "retransmissions": outcome.retransmissions,
        "events": outcome.kernel.events,
        "batches": outcome.kernel.batches,
        "occupancy": occupancy,
        "hops": hops,
    }, outcome.kernel


@pytest.mark.parametrize("fault_rate", [0.0, 0.25], ids=["clean", "faulty"])
@pytest.mark.parametrize("name,paths,_vectorized", INPUTS, ids=[c[0] for c in INPUTS])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_path_matches_tick(path, name, paths, _vectorized, fault_rate):
    reference, _ = run(_route_packets_tick, paths, fault_rate)
    produced, counters = run(PATHS[path], paths, fault_rate)
    assert reference["hops"], "the hop trace is actually populated"
    if fault_rate:
        assert reference["retransmissions"] > 0, "faults actually fired"
    assert produced == reference, f"{path} path diverged from tick on {name}"
    assert counters.kernel == "event"


@pytest.mark.parametrize("fault_rate", [0.0, 0.25], ids=["clean", "faulty"])
@pytest.mark.parametrize("name,paths,_vectorized", INPUTS, ids=[c[0] for c in INPUTS])
def test_paths_report_identical_counters(name, paths, _vectorized, fault_rate):
    """Whichever path runs, the result carries the same event-kernel
    ledger, so the choice never shows in an outcome."""
    _, scalar = run(_route_packets_event, paths, fault_rate)
    _, array = run(_route_packets_array, paths, fault_rate)
    assert array.as_dict() == scalar.as_dict()


class TestSelector:
    def test_balanced_relation_vectorizes_and_gather_does_not(self):
        assert _vectorizes(balanced(32, 16), RoutingConfig())
        assert not _vectorizes(gather(32), RoutingConfig())

    @pytest.mark.parametrize("name,paths,vectorized", INPUTS, ids=[c[0] for c in INPUTS])
    def test_choice_on_each_input(self, name, paths, vectorized):
        assert _vectorizes(paths, RoutingConfig()) is vectorized

    def test_packet_floor(self):
        paths = balanced(32, 16)
        assert len(paths) == VECTOR_MIN_PACKETS
        assert not _vectorizes(paths[:-1], RoutingConfig())

    @pytest.mark.parametrize(
        "config",
        [RoutingConfig(single_port=True), RoutingConfig(priority="farthest")],
        ids=["single_port", "farthest"],
    )
    def test_only_multiport_fifo_vectorizes(self, config):
        assert not _vectorizes(balanced(32, 16), config)
