"""RunRequest schema v2 (workload/args) and its downstream consumers:
build_stack, the campaign ``workload`` target, and the service cache."""

import asyncio

import pytest

from repro.engine.request import RunRequest, build_stack
from repro.errors import ParameterError


def jacobi_request(**overrides) -> RunRequest:
    fields = dict(chain="bsp", workload="jacobi", args={"n": 48, "iters": 2}, p=4)
    fields.update(overrides)
    return RunRequest(**fields)


class TestSchema:
    def test_round_trips_through_dict(self):
        req = jacobi_request()
        doc = req.to_dict()
        assert doc["workload"] == "jacobi"
        assert doc["args"] == {"iters": 2, "n": 48}
        assert RunRequest.from_dict(doc) == req

    def test_bare_requests_omit_workload_fields(self):
        doc = RunRequest(chain="bsp", p=4).to_dict()
        assert "workload" not in doc and "args" not in doc

    def test_version1_documents_stay_readable(self):
        req = RunRequest.from_dict({"version": 1, "chain": "bsp", "p": 4})
        assert req.workload is None and req.version == 1

    def test_args_require_a_workload(self):
        with pytest.raises(ParameterError, match="args require a workload"):
            RunRequest(chain="bsp", args={"n": 48})

    def test_unknown_workload_rejected_with_known_names(self):
        with pytest.raises(ParameterError, match="known:.*jacobi"):
            jacobi_request(workload="no-such-workload", args={})

    def test_workload_needs_schema_v2(self):
        with pytest.raises(ParameterError, match="version >= 2"):
            jacobi_request(version=1)

    def test_workload_and_program_are_exclusive(self):
        with pytest.raises(ParameterError, match="mutually exclusive"):
            jacobi_request(program="prefix")

    def test_workload_not_runnable_on_dist(self):
        with pytest.raises(ParameterError, match="dist"):
            jacobi_request(chain="bsp-on-dist")

    def test_workload_model_must_match_chain_guest(self):
        with pytest.raises(ParameterError, match="guest"):
            RunRequest(chain="bsp", workload="ring")

    @pytest.mark.parametrize("key", ["p", "seed"])
    def test_reserved_arg_keys_rejected(self, key):
        with pytest.raises(ParameterError, match="top-level request fields"):
            jacobi_request(args={key: 4})

    def test_unknown_workload_parameter_rejected(self):
        with pytest.raises(ParameterError, match="no parameter 'bogus'"):
            jacobi_request(args={"bogus": 1})

    def test_describe_names_the_workload(self):
        text = jacobi_request().describe()
        assert "workload=jacobi" in text and "iters=2" in text

    def test_cache_key_separates_distinct_args(self):
        a = jacobi_request().key("fp")
        b = jacobi_request(args={"n": 48, "iters": 4}).key("fp")
        assert a != b
        assert a == jacobi_request().key("fp")


class TestBuildStack:
    def test_workload_request_matches_run_workload(self):
        from repro.workloads import run_workload

        result = build_stack(jacobi_request()).run()
        via_registry = run_workload("jacobi", p=4, params={"iters": 2})
        assert result.total_cost == via_registry.result.total_cost
        assert result.results == via_registry.result.results


class TestCampaignTarget:
    def test_supported_point_runs_checked_and_validated(self):
        from repro.campaign.targets import resolve_target

        record = resolve_target("workload")(
            {"workload": "jacobi", "p": 4, "seed": 0, "iters": 2}
        )
        assert record["workload"] == "jacobi"
        assert record["validated"] is True
        assert record["cost_check"]["residuals"]

    def test_unsupported_point_is_skipped_not_failed(self):
        from repro.campaign.targets import resolve_target

        record = resolve_target("workload")({"workload": "fft", "p": 3})
        assert record["skipped"] == "unsupported grid point"


class TestService:
    def test_workload_document_computes_then_hits(self, tmp_path):
        from repro.service import ServiceConfig, SimulationService

        doc = jacobi_request().to_dict()

        async def _go():
            cfg = ServiceConfig(
                store_dir=str(tmp_path / "store"), shards=4, workers=0,
            )
            async with SimulationService(cfg) as svc:
                first = await svc.submit(doc)
                second = await svc.submit(doc)
                return first, second

        first, second = asyncio.run(_go())
        assert first["ok"] and first["outcome"] == "miss"
        assert second["ok"] and second["outcome"] == "hit"
        assert first["key"] == second["key"]
        assert first["record"] == second["record"]
