"""Experiment P1 — **Propositions 1/2**: Combine-and-Broadcast cost.

The ``P1`` builder measures T_CB (from the latest join, as Prop. 2
defines T_synch) across machine sizes and capacities through the ``cb``
campaign target, whose record checks it against the Prop. 1 lower bound
and the paper's explicit upper bound ``3 (L+o) log p / log(1 + ceil(L/G))``
(widened by :data:`~repro.models.cost.CB_ENGINE_SLACK`).
"""

import operator

import pytest

from repro.core.cb import measure_cb
from repro.models.cost import CB_ENGINE_SLACK, cb_time_upper
from repro.models.params import LogPParams
from repro.obs.check import CostCheckReport

EXPERIMENT = "P1"


@pytest.fixture(scope="module")
def sweep(paper_tables):
    records = paper_tables["cb_synchronization"].records
    for rec in records:
        assert rec["sum_everywhere"], rec
        assert rec["stall_free"], rec
    return records


def test_cb_report(paper_tables, benchmark):
    benchmark.pedantic(
        lambda: measure_cb(LogPParams(p=128, L=8, o=1, G=2), [1] * 128, operator.add),
        rounds=1,
        iterations=1,
    )


def test_within_constant_of_bounds(sweep):
    """The record's check: T_CB >= the Prop. 1 lower bound and
    T_CB <= CB_ENGINE_SLACK x the paper's upper bound."""
    for rec in sweep:
        check = CostCheckReport.from_dict(rec["cost_check"])
        assert len(check.residuals) == 2, rec
        check.assert_ok()


def test_logarithmic_scaling_in_p(sweep):
    """Equal multiplicative steps in p add roughly equal time."""
    by_cfg = {}
    for rec in sweep:
        by_cfg.setdefault((rec["L"], rec["G"]), {})[rec["p"]] = rec["t_cb"]
    for cfg, times in by_cfg.items():
        d1 = times[32] - times[8]
        d2 = times[128] - times[32]
        d3 = times[512] - times[128]
        assert d3 <= 2.0 * max(d1, 1), cfg
        assert d2 <= 2.0 * max(d1, 1), cfg


def test_capacity_speeds_synchronization(sweep):
    """Prop 1's log(1 + ceil(L/G)) denominator: higher capacity, faster CB."""
    at_p = {rec["capacity"]: rec["t_cb"] for rec in sweep if rec["p"] == 512 and rec["L"] == 8}
    assert at_p[4] <= at_p[2] <= at_p[1]


def test_staggered_joins_measured_from_last():
    params = LogPParams(p=64, L=8, o=1, G=2)
    joins = [(i * 17) % 300 for i in range(params.p)]
    m = measure_cb(params, [1] * params.p, operator.add, joins=joins, op_cost=0)
    assert m.latest_join == max(joins)
    assert m.t_cb <= CB_ENGINE_SLACK * cb_time_upper(params)
