"""CostModelCheck: the paper's closed forms as residual assertions."""

import math

import pytest

from repro import BSPParams, LogPParams, Stack
from repro.errors import ParameterError
from repro.networks import Hypercube
from repro.obs import CostModelCheck, CostResidual
from repro.obs.check import CostCheckReport
from repro.programs import bsp_prefix_program, logp_sum_program

PARAMS = LogPParams(p=8, L=8, o=1, G=2)


class TestResidual:
    def test_exact(self):
        assert CostResidual("x", 5, 5).ok()
        assert not CostResidual("x", 5, 6).ok()

    def test_upper(self):
        assert CostResidual("x", 5, 6, "upper").ok()
        assert CostResidual("x", 6, 6, "upper").ok()
        assert not CostResidual("x", 7, 6, "upper").ok()

    def test_unknown_kind_is_rejected_not_judged(self):
        report = CostCheckReport.from_dict({"model": "m", "residuals": [
            {"name": "x", "kind": "estimate", "observed": 1, "predicted": 1},
        ]})
        with pytest.raises(ParameterError, match="'x' has unknown kind 'estimate'"):
            report.ok()

    def test_factor_band(self):
        band = CostResidual.FACTOR_BAND
        assert CostResidual("x", band, 1.0, "factor").ok()
        assert not CostResidual("x", band * 1.01, 1.0, "factor").ok()
        assert CostResidual("x", 1.0 / band, 1.0, "factor").ok()
        assert not CostResidual("x", 0.9 / band, 1.0, "factor").ok()

    def test_ratio_guards_zero_prediction(self):
        assert CostResidual("x", 0, 0).ratio == 1.0
        assert math.isinf(CostResidual("x", 3, 0).ratio)


class TestReport:
    def test_assert_ok_lists_failures(self):
        rep = CostCheckReport(model="m")
        rep.add("good", 1, 1)
        rep.add("bad", 2, 1)
        assert rep.failures() and not rep.ok()
        with pytest.raises(AssertionError, match="bad"):
            rep.assert_ok()

    def test_render_and_as_dict(self):
        rep = CostCheckReport(model="m")
        rep.add("r", 3, 4, "upper")
        text = rep.render()
        assert "CostModelCheck — m" in text and "upper" in text
        d = rep.as_dict()
        assert d["residuals"][0]["residual"] == -1


class TestCheckDispatch:
    def test_bsp_ledger_is_the_formula(self):
        result = Stack(bsp_prefix_program()).on_bsp(BSPParams(p=8, g=2, l=16)).run()
        rep = CostModelCheck.check(result)
        rep.assert_ok()
        assert all(r.kind == "exact" for r in rep.residuals)
        assert rep.max_abs_residual == 0

    def test_logp_bounds_need_trace(self):
        from repro.logp.machine import LogPMachine

        result = LogPMachine(PARAMS, record_trace=True).run(logp_sum_program())
        rep = CostModelCheck.check(result)
        rep.assert_ok()
        names = {r.name for r in rep.residuals}
        assert "max delivery latency <= L" in names
        assert "min end-to-end >= 2o + 1" in names

    def test_theorem1_report(self):
        rep1 = Stack(logp_sum_program(), model="logp", params=PARAMS).on_bsp().run()
        rep = CostModelCheck.check(rep1)
        rep.assert_ok()
        names = {r.name for r in rep.residuals}
        assert "window == floor(L/2)" in names
        assert "slowdown vs predicted" in names

    def test_theorem2_report(self):
        rep2 = Stack(bsp_prefix_program()).on_logp(PARAMS).run()
        CostModelCheck.check(rep2).assert_ok()

    def test_three_layer_report(self):
        rep3 = (
            Stack(bsp_prefix_program())
            .on_logp(PARAMS)
            .on_network(Hypercube(8))
            .run()
        )
        CostModelCheck.check(rep3).assert_ok()

    def test_unknown_result_raises(self):
        with pytest.raises(TypeError):
            CostModelCheck.check(object())

    def test_detail_rows_capped(self):
        class Rec:
            def __init__(self, i):
                self.index = i
                self.w = 1
                self.h = 0
                self.cost = 1  # params.superstep_cost(1, 0) == 1 with g=1,l=0
                self.retry_cost = 0
                self.retries = 0

        class Fake:
            params = BSPParams(p=2, g=1, l=0)
            ledger = [Rec(i) for i in range(100)]
            total_cost = 100

        rep = CostModelCheck.check_bsp(Fake())
        # 64 detail rows + 1 total row
        assert len(rep.residuals) == CostModelCheck.MAX_DETAIL_ROWS + 1
        rep.assert_ok()
