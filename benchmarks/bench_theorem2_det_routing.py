"""Experiment TH2 — **Theorem 2**: deterministic BSP-on-LogP routing.

The ``TH2`` builder sweeps the relation degree ``h`` through the Section
4.2 protocol over the ``th2-grid`` campaign spec (the ``theorem2``
target; one record per point), and a fixed small ``h`` across ``p``;
this bench compares the measured slowdown against the paper's
``S(L, G, p, h)``: ``O(log p)`` for small ``h``, approaching ``O(1)`` as
``h`` grows (the ``h = Omega(p^eps + L log p)`` regime), with the
sorting phase dominating exactly where the paper says it does.
"""

import pytest

from repro.campaign import run_point
from repro.campaign.builtin import TH2_GRID as SPEC

EXPERIMENT = "TH2"


@pytest.fixture(scope="module")
def sweep(paper_tables):
    records = paper_tables["theorem2_det_routing"].records
    assert len(records) == len(SPEC)
    return {rec["h"]: rec for rec in records}


def test_theorem2_report(paper_tables, publish_json, benchmark):
    benchmark.pedantic(
        lambda: run_point("theorem2", {**dict(SPEC.base), "h": 8, "seed": 99}),
        rounds=1,
        iterations=1,
    )
    table = paper_tables["theorem2_det_routing"]
    publish_json(table.name, {"campaign": SPEC.as_dict(), "records": table.records})


def test_slowdown_decreases_with_h(sweep):
    """The crossover shape: per-unit cost falls as h grows, with a
    visible drop when the large-r scheme (Columnsort) takes over."""
    ratios = [rec["observed_slowdown"] for rec in sweep.values()]
    assert ratios[-1] < 0.65 * ratios[0]
    # the scheme switch happens inside the sweep
    schemes = [rec["scheme"] for rec in sweep.values()]
    assert "bitonic" in schemes and "columnsort" in schemes


def test_protocol_discovers_degree(sweep):
    for h, rec in sweep.items():
        assert rec["h_discovered"] == h


def test_sort_dominates_small_h_cycles_dominate_large_h(sweep):
    assert sweep[1]["t_sort"] > sweep[1]["t_cycles"]
    assert sweep[64]["t_cycles"] >= 0.5 * (dict(SPEC.base)["G"] * 64)


def test_small_h_slowdown_grows_polylog_in_p(paper_tables):
    """The S = O(log p) regime (O(log^2 p) with our Batcher substitute):
    the per-unit cost of routing a fixed small h grows polylogarithmically
    as p quadruples — nowhere near linearly."""
    ratios = {
        rec["p"]: rec["observed_slowdown"]
        for rec in paper_tables["theorem2_p_growth"].records
    }
    # quadrupling p: polylog growth (< 3x per step), far below linear (4x)
    assert ratios[16] / ratios[4] < 3.0
    assert ratios[64] / ratios[16] < 3.0
    assert ratios[64] / ratios[4] < 16 / 2  # << the linear ratio 16


def test_large_h_within_constant_of_optimal(sweep):
    """For h large the protocol's time approaches O(Gh + L): the
    measured/optimal ratio must be bounded (paper: S = O(1) there;
    Columnsort's 4 half-again-sized rounds put the constant near ~15)."""
    h = max(sweep)
    assert sweep[h]["total_time"] / sweep[h]["ideal"] <= 20.0
    # and strictly better than what the log^2 p network scheme gives at
    # the largest h it is still selected for
    h_bitonic = max(h for h, rec in sweep.items() if rec["scheme"] == "bitonic")
    assert sweep[h]["observed_slowdown"] < sweep[h_bitonic]["observed_slowdown"]
