"""Experiment APP — a full BSP application (the paper's §6 radix-sort
example) executed on LogP under all three routing modes, with per-phase
timing.

The qualitative shape the paper predicts: the on-line deterministic
protocol pays a large constant (its sorting phase), the randomized
protocol with known h is near the off-line optimum, and all three agree
with the native BSP results exactly.
"""

import pytest

from repro.core.bsp_on_logp import simulate_bsp_on_logp
from repro.models.params import LogPParams
from repro.programs import bsp_prefix_program

EXPERIMENT = "APP"


@pytest.fixture(scope="module")
def runs(paper_tables):
    """routing mode -> its record."""
    return {rec["routing"]: rec for rec in paper_tables["bsp_on_logp_modes"].records}


def test_modes_report(runs, benchmark):
    benchmark.pedantic(
        lambda: simulate_bsp_on_logp(
            LogPParams(p=8, L=16, o=1, G=2), bsp_prefix_program(), routing="offline"
        ),
        rounds=1,
        iterations=1,
    )


def test_all_modes_sort_correctly(runs):
    for mode, rec in runs.items():
        assert rec["sorted"], mode


def test_expected_ordering_of_modes(runs):
    """offline <= randomized < deterministic in total time."""
    assert runs["offline"]["logp_time"] <= runs["randomized"]["logp_time"] * 1.2
    assert runs["randomized"]["logp_time"] < runs["deterministic"]["logp_time"]


def test_offline_near_paper_S(runs):
    rec = runs["offline"]
    assert rec["slowdown"] <= 3.0 * rec["predicted_slowdown"]


def test_multi_superstep_routing_linear_in_sum_h(runs):
    """Section 4.3's sequence claim: the communication phases of T
    supersteps cost O(G * sum h_i) under the known-h protocols."""
    for mode in ("offline", "randomized"):
        rec = runs[mode]
        params = LogPParams(**rec["params"])
        budget = 4 * params.G * rec["sum_h"] + rec["supersteps"] * 6 * params.L
        assert rec["t_route"] <= budget, (mode, rec["t_route"], budget)
