"""Experiment TH3 — **Theorem 3**: randomized routing of known-degree
h-relations.

The ``TH3`` builder regenerates the theorem's trade-off: with
``R = (1 + beta) h / ceil(L/G)`` batches the protocol is stall-free
w.h.p. and finishes in ``O(G h)``; shrinking R accelerates the round
phase but raises the stall probability.  Its last row runs the paper's
own (astronomically conservative) constants.
"""

import pytest

from repro.core.rand_routing import measure_rand_routing
from repro.models.cost import theorem3_failure_bound
from repro.models.params import LogPParams
from repro.routing.workloads import balanced_h_relation

EXPERIMENT = "TH3"


@pytest.fixture(scope="module")
def records(paper_tables):
    return paper_tables["theorem3_rand_routing"].records


@pytest.fixture(scope="module")
def sweep(records):
    """R -> the R-grid row's record (the paper-constants row excluded)."""
    return {rec["R"]: rec for rec in records if not rec["paper_constants"]}


def _params(rec) -> LogPParams:
    return LogPParams(**rec["params"])


def test_theorem3_report(records, benchmark):
    params = _params(records[0])
    pairs = balanced_h_relation(params.p, records[0]["h"], seed=123)
    benchmark.pedantic(
        lambda: measure_rand_routing(params, pairs, seed=0, R=8), rounds=1, iterations=1
    )
    (paper,) = [rec for rec in records if rec["paper_constants"]]
    # paper constants: overwhelming success probability
    assert all(run["clean"] for run in paper["runs"])


def test_stall_probability_monotone_in_R(sweep):
    stall_counts = {R: sum(r["stalled"] for r in rec["runs"]) for R, rec in sweep.items()}
    assert stall_counts[16] <= stall_counts[8] <= stall_counts[4] <= stall_counts[2]


def test_adequate_R_mostly_clean(sweep):
    assert len(sweep[16]["runs"]) == 10
    assert sum(r["clean"] for r in sweep[16]["runs"]) >= 9


def test_time_linear_in_R_when_clean(sweep):
    for R, rec in sweep.items():
        params = _params(rec)
        for r in rec["runs"]:
            if r["clean"]:
                assert r["total_time"] <= 2 * (params.L + params.o) * R + 8 * params.L


def test_chernoff_bound_conservative(sweep):
    """Empirical stall frequency must not exceed the analytic bound
    (evaluated at the effective beta of each R)."""
    for R, rec in sweep.items():
        params, h = _params(rec), rec["h"]
        beta_hat = R * params.capacity / h - 1.0
        if beta_hat <= 0:
            continue  # bound vacuous
        bound = theorem3_failure_bound(h, params, beta_hat)
        freq = sum(r["stalled"] for r in rec["runs"]) / len(rec["runs"])
        assert freq <= bound + 0.35  # finite-sample slack
