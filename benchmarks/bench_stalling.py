"""Experiment ST — the stalling analyses of Sections 2.2 and 3.

The ``ST`` builder's tables: the hot-spot drain rate (stalling keeps
the destination at full bandwidth), the adversarial convoy vs the
``O(G h^2)`` worst case, the BSP simulation of *stalling* cycles via
sorting (the end-of-§3 technique), whose per-cycle cost exhibits the
``O(((l+g)/G) log p)`` flavour (log^2 with our Batcher network), a
stalling program under the naive windows vs the sorted decomposition,
and Section 2.2's buffer anomaly.
"""

from repro.core.stalling import (
    measure_hotspot,
    measure_stall_storm,
    simulate_stalling_cycle_on_bsp,
)
from repro.models.params import BSPParams, LogPParams
from repro.routing.workloads import random_destinations

EXPERIMENT = "ST"


def test_hotspot_report(paper_tables, benchmark):
    records = paper_tables["stalling_hotspot"].records
    params = LogPParams(**records[0]["params"])
    benchmark.pedantic(lambda: measure_hotspot(params, 16), rounds=1, iterations=1)
    for rec in records:
        assert rec["makespan"] <= rec["predicted"] + params.G, rec


def test_storm_report(paper_tables, benchmark):
    records = paper_tables["stalling_storm"].records
    params = LogPParams(**records[0]["params"])
    benchmark.pedantic(lambda: measure_stall_storm(params, 8), rounds=1, iterations=1)
    for rec in records:
        assert rec["makespan"] <= rec["bound"], rec


def test_stalling_cycle_on_bsp_report(paper_tables, benchmark):
    logp = LogPParams(p=8, L=8, o=1, G=2)
    bsp = BSPParams(p=8, g=2, l=8)
    pairs = random_destinations(8, 6, seed=7)
    benchmark.pedantic(
        lambda: simulate_stalling_cycle_on_bsp(bsp, logp, pairs), rounds=1, iterations=1
    )


def test_stalling_program_on_bsp_naive_vs_sorted(paper_tables):
    """End of §3: simulating *stalling* LogP programs on BSP.

    The naive Theorem-1 window simulation still executes a stalling
    program (BSP routes any h-relation), but its per-cycle h blows past
    ceil(L/G) and the superstep cost with it; the sorting/prefix
    technique decomposes each over-capacity cycle into
    ceil(h/ceil(L/G)) capacity-bounded sub-supersteps at polylog cost."""
    (rec,) = paper_tables["stalling_program_on_bsp"].records
    assert rec["naive_delivered"] == rec["k"]  # delivered despite "stalling"
    assert rec["naive_window_h"] > rec["capacity"]
    assert rec["sorted_tail_h_recv"] <= rec["capacity"]


def test_buffer_growth_anomaly(paper_tables):
    """Section 2.2's G > L buffer argument, as numbers: the receiver's
    buffer grows linearly in the message count."""
    first, _, last = paper_tables["buffer_growth"].records
    growth = (last["messages"] - first["messages"]) // 3
    assert last["highwater"] >= first["highwater"] + growth
