"""The public target registry: register_target and the request target."""

import pytest

from repro.campaign import TARGETS, register_target, resolve_target, run_point
from repro.errors import ParameterError


@pytest.fixture
def scratch_registry():
    """Snapshot TARGETS so tests can register freely without leaking."""
    before = dict(TARGETS)
    yield TARGETS
    TARGETS.clear()
    TARGETS.update(before)


class TestRegisterTarget:
    def test_direct_and_decorator_forms(self, scratch_registry):
        def square(point, obs=None):
            return {"y": point["x"] ** 2}

        assert register_target("square", square) is square
        assert resolve_target("square") is square

        @register_target("cube")
        def cube(point, obs=None):
            return {"y": point["x"] ** 3}

        assert run_point("cube", {"x": 3}) == {"y": 27}

    def test_duplicate_name_is_a_clear_error(self, scratch_registry):
        register_target("dup", lambda point, obs=None: {})
        with pytest.raises(ParameterError, match="already registered"):
            register_target("dup", lambda point, obs=None: {})

    def test_replace_overrides(self, scratch_registry):
        register_target("v", lambda point, obs=None: {"v": 1})
        register_target("v", lambda point, obs=None: {"v": 2}, replace=True)
        assert run_point("v", {}) == {"v": 2}

    def test_empty_name_and_non_callable_rejected(self, scratch_registry):
        with pytest.raises(ParameterError, match="non-empty string"):
            register_target("  ", lambda point, obs=None: {})
        with pytest.raises(ParameterError, match="must be callable"):
            register_target("notfn", 42)

    def test_unknown_target_error_mentions_the_registry(self):
        with pytest.raises(ParameterError, match="register_target"):
            resolve_target("no-such-target")

    def test_builtins_are_registered_through_the_public_api(self):
        assert set(TARGETS) == {
            "request", "workload", "theorem2", "cb", "demo", "dist"
        }

    def test_no_prefixed_target_forms(self):
        """Stack chains and experiment tables are ``request`` points or
        CLI tables, not ``chain:``/``experiment:`` targets."""
        for name in ("chain:bsp-on-logp", "experiment:TH1", "theorem1"):
            with pytest.raises(ParameterError, match="unknown campaign target"):
                resolve_target(name)


class TestRequestTarget:
    def test_run_point_request(self):
        record = run_point("request", {"chain": "bsp-on-logp", "p": 4})
        assert record["request"]["chain"] == "bsp-on-logp"
        assert record["chain"]  # human-readable stack description
        assert record["slowdown"] > 0

    def test_request_target_metrics_flag(self):
        record = run_point(
            "request", {"chain": "bsp", "p": 4, "metrics": True}
        )
        assert "metrics" in record and record["metrics"]["counters"]

    def test_request_target_rejects_bad_points(self):
        with pytest.raises(ParameterError, match="unknown guest model"):
            run_point("request", {"chain": "mpi"})

    def test_theorem1_point_is_a_request(self):
        """A th1-grid point is a logp-on-bsp RunRequest document whose
        record carries the Theorem 1 row and its cost check."""
        from repro.campaign import CAMPAIGNS

        spec = CAMPAIGNS["th1-grid"]
        assert spec.target == "request"
        point = spec.points()[0]
        record = run_point(spec.target, point)
        assert record["request"]["chain"] == "logp-on-bsp"
        assert record["request"]["params"] == point["params"]
        assert record["chain"] == "logp -> bsp"
        assert record["outputs_match"] is True
        assert record["cost_check"]["residuals"]


class TestPaperBoundsHold:
    """Every point of the built-in Theorem 1 grid and of the P x L x G
    Combine-and-Broadcast sweep passes its own record's cost check."""

    def test_every_th1_grid_point_is_under_the_theorem1_bound(self):
        from repro.campaign import CAMPAIGNS
        from repro.obs.check import CostCheckReport

        spec = CAMPAIGNS["th1-grid"]
        for point in spec.points():
            check = CostCheckReport.from_dict(run_point(spec.target, point)["cost_check"])
            slowdown = [r for r in check.residuals if r.name == "slowdown vs predicted"]
            assert [r.kind for r in slowdown] == ["upper"], point
            check.assert_ok()

    @pytest.mark.parametrize("p", [8, 64, 512])
    def test_every_cb_point_is_within_its_bounds(self, p):
        from repro.obs.check import CostCheckReport

        for L in (8, 16):
            for G in (2, 8):
                record = run_point("cb", {"p": p, "L": L, "o": 1, "G": G})
                assert record["stall_free"] and record["sum_everywhere"], record
                CostCheckReport.from_dict(record["cost_check"]).assert_ok()
