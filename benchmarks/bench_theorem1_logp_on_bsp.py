"""Experiment TH1 — **Theorem 1**: stall-free LogP on BSP.

The ``TH1`` builder runs the :data:`~repro.campaign.builtin.TH1_TABLE`
grid — (kernel, g/G, l/L) points, each a ``logp-on-bsp``
:class:`~repro.engine.request.RunRequest` through the ``request``
campaign target — and every assertion below consumes the JSON records
that target emitted, the same records a campaign over the spec caches
on disk.  The claims: across the grid the measured slowdown of the
cycle simulation stays under ``O(1 + g/G + l/L)`` (each record's
``slowdown vs predicted`` residual is an ``upper`` row) and per-cycle
h-relations stay within the capacity ``ceil(L/G)``.
"""

import pytest

from repro.campaign import run_campaign, run_point
from repro.campaign.builtin import TH1_TABLE as SPEC
from repro.obs.check import CostCheckReport
from repro.util.intmath import ceil_div

EXPERIMENT = "TH1"


@pytest.fixture(scope="module")
def sweep(paper_tables):
    records = paper_tables["theorem1_logp_on_bsp"].records
    assert len(records) == len(SPEC)
    out = {}
    for rec in records:
        req = rec["request"]
        assert rec["outputs_match"], req
        params = req["params"]
        out[(req["program"], params["g"] // params["G"], params["l"] // params["L"])] = rec
    return out


def _kernels(sweep):
    return sorted({kernel for kernel, _gs, _ls in sweep})


def test_theorem1_report(paper_tables, publish_json, benchmark):
    benchmark.pedantic(
        lambda: run_point(SPEC.target, SPEC.points()[0]),
        rounds=1,
        iterations=1,
    )
    table = paper_tables["theorem1_logp_on_bsp"]
    publish_json(table.name, {"campaign": SPEC.as_dict(), "records": table.records})


def test_slowdown_below_prediction(sweep):
    """Every record's cost check holds: the host ledger is exact and the
    slowdown sits under the theorem's upper bound."""
    for key, rec in sweep.items():
        check = CostCheckReport.from_dict(rec["cost_check"])
        assert any(r.name == "slowdown vs predicted" and r.kind == "upper"
                   for r in check.residuals), key
        check.assert_ok()


def test_capacity_bound_holds(sweep):
    for key, rec in sweep.items():
        params = rec["request"]["params"]
        assert rec["max_window_h"] <= ceil_div(params["L"], params["G"]), key


def test_matched_machine_constant_slowdown(sweep):
    """On the matched machine the slowdown is a small constant (<= the
    predicted 1 + g/G + l/L = 5 here)."""
    for kname in _kernels(sweep):
        assert sweep[(kname, 1, 1)]["slowdown"] <= 5.0


def test_slowdown_monotone_in_g_and_l(sweep):
    for kname in _kernels(sweep):
        base = sweep[(kname, 1, 1)]["slowdown"]
        assert sweep[(kname, 4, 1)]["slowdown"] >= base
        assert sweep[(kname, 1, 4)]["slowdown"] >= base
        assert sweep[(kname, 8, 8)]["slowdown"] >= sweep[(kname, 4, 4)]["slowdown"]


def test_rerun_is_fully_cached(sweep, tmp_path):
    """A second run over the same spec against a warm store computes
    nothing — every record is served from the content-addressed cache,
    byte-identical to the first run's."""
    store = tmp_path / "store"
    first = run_campaign(SPEC, store_dir=store)
    second = run_campaign(SPEC, store_dir=store)
    assert first.ran == len(SPEC) and first.cached == 0
    assert second.ran == 0 and second.cached == len(SPEC)
    assert second.records() == first.records()
