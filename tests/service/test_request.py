"""The RunRequest schema: one entry point, versioned, round-tripping."""

import json

import pytest

from repro.engine.request import (
    REQUEST_VERSION,
    RunRequest,
    build_stack,
    parse_chain,
)
from repro.engine.stack import Stack
from repro.errors import ParameterError, ProgramError


class TestSchema:
    def test_roundtrips_through_json(self):
        req = RunRequest(chain="bsp-on-logp-on-network", p=8,
                         params={"L": 16, "g": 4}, seed=3, kernel="tick")
        doc = json.loads(json.dumps(req.to_dict()))
        assert RunRequest.from_dict(doc) == req

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ParameterError, match=r"no field\(s\) \['routing'\]"):
            RunRequest.from_dict({"chain": "bsp", "routing": "offline"})

    def test_newer_version_rejected_loudly(self):
        with pytest.raises(ParameterError, match="newest understood"):
            RunRequest(chain="bsp", version=REQUEST_VERSION + 1)

    def test_unknown_chain_program_kernel_param(self):
        with pytest.raises(ParameterError, match="unknown guest model"):
            RunRequest(chain="mpi")
        with pytest.raises(ParameterError, match="program 'nope' unknown"):
            RunRequest(chain="bsp", program="nope")
        with pytest.raises(ParameterError, match="kernel 'warp' unknown"):
            RunRequest(chain="bsp-on-logp", kernel="warp")
        with pytest.raises(ParameterError, match="params key 'x'"):
            RunRequest(chain="bsp", params={"x": 1})
        for topology in ("torus", ["ccc"]):  # at intake, not in the pool
            with pytest.raises(ParameterError, match=(
                    r"unknown topology .*; choose from \[.*'butterfly'")):
                RunRequest.coerce({"chain": "bsp-on-network",
                                   "topology": topology})

    @pytest.mark.parametrize("chain", ["bsp-on-logp", "bsp-on-network"])
    @pytest.mark.parametrize("kernel", ["superstep", "adaptive"])
    def test_unselectable_kernel_rejected_at_coerce(self, kernel, chain):
        """The BSP machine's counter label and the retired kernel name
        fail with a labelled error at coerce, not later at run time."""
        with pytest.raises(ParameterError, match=f"kernel '{kernel}' unknown"):
            RunRequest.coerce({"chain": chain, "kernel": kernel})

    @pytest.mark.parametrize(
        "doc, match",
        [
            ({"p": 8.7}, "RunRequest p must be an integer, got float"),
            ({"p": "8"}, "RunRequest p must be an integer, got str"),
            ({"p": True}, "RunRequest p must be an integer, got bool"),
            ({"seed": 2.9}, "RunRequest seed must be an integer, got float"),
            ({"version": 1.5}, "RunRequest version must be an integer"),
            ({"params": {"L": 8.5}}, "RunRequest params L must be an integer"),
            (
                {"workload": "jacobi", "args": {"n": 48.9}},
                "RunRequest args n must be an integer, got float",
            ),
            (
                {"workload": "jacobi", "args": {"n": "x"}},
                "RunRequest args n must be an integer, got str",
            ),
            ({"metrics": "false"}, "RunRequest metrics must be a bool"),
            ({"metrics": 1}, "RunRequest metrics must be a bool"),
        ],
        ids=[
            "p-float", "p-str", "p-bool", "seed-float", "version-float",
            "params-float", "args-float", "args-str", "metrics-str", "metrics-int",
        ],
    )
    def test_non_integral_input_rejected_not_truncated(self, doc, match):
        """Integer fields take ints only: a float, string or bool is a
        labelled ParameterError, never silently truncated or misread."""
        with pytest.raises(ParameterError, match=match):
            RunRequest.coerce({"chain": "bsp", **doc})

    def test_integer_likes_still_accepted(self):
        import numpy as np

        req = RunRequest(chain="bsp", p=np.int64(4), params={"g": np.int32(3)})
        assert (req.p, dict(req.params)) == (4, {"g": 3})
        assert type(req.p) is int

    def test_chain_spelling_normalized(self):
        assert RunRequest(chain="BSP_on_LogP").chain == "bsp-on-logp"

    def test_key_is_deterministic_and_fingerprint_scoped(self):
        req = RunRequest(chain="bsp-on-logp", p=4)
        assert req.key("fp") == req.key("fp")
        assert req.key("fp") != req.key("other-code")
        assert req.key("fp") != RunRequest(chain="bsp-on-logp", p=8).key("fp")

    def test_metrics_flag_changes_the_key(self):
        bare = RunRequest(chain="bsp", p=4)
        with_metrics = RunRequest(chain="bsp", p=4, metrics=True)
        assert bare.key("fp") != with_metrics.key("fp")

    def test_parse_chain(self):
        assert parse_chain("bsp-on-logp-on-network") == ("bsp", ["logp", "network"])
        assert parse_chain("logp") == ("logp", ["logp"])
        assert parse_chain("bsp-on-dist") == ("bsp", ["dist"])


class TestStackRoundTrip:
    def test_from_request_runs_and_to_request_roundtrips(self):
        req = RunRequest(chain="bsp-on-logp", p=4, kernel="tick")
        stack = Stack.from_request(req)
        assert stack.to_request() == req
        result = stack.run()
        assert result.slowdown > 0

    def test_hand_built_stack_has_no_request(self):
        from repro.models.params import LogPParams
        from repro.programs import bsp_prefix_program

        stack = Stack(bsp_prefix_program()).on_logp(LogPParams(p=4, L=8, o=1, G=2))
        with pytest.raises(ProgramError, match="not built from a RunRequest"):
            stack.to_request()

    @pytest.mark.parametrize(
        "chain", ["bsp", "logp-on-bsp", "bsp-on-logp-on-network"]
    )
    def test_inspect_json_matches_request_target(self, chain, capsys):
        """``inspect <chain>`` and the campaign/service ``request`` target
        run the same RunRequest: identical row, identical cost check."""
        from repro.campaign import run_point
        from repro.experiments import main

        assert main(["inspect", chain, "--p", "4", "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads([ln for ln in out.splitlines() if ln.startswith("{")][-1])
        record = json.loads(
            json.dumps(run_point("request", {"chain": chain, "p": 4}), default=str)
        )
        assert doc["chain"] == record["chain"]
        assert doc["result"] == {k: record[k] for k in doc["result"]}
        assert doc["cost_check"] == record["cost_check"]

    def test_param_overrides_reach_the_machines(self):
        base = build_stack(RunRequest(chain="bsp-on-logp", p=4)).run()
        slowed = build_stack(
            RunRequest(chain="bsp-on-logp", p=4, params={"L": 64})
        ).run()
        assert slowed.total_logp_time > base.total_logp_time

    def test_network_chain_rounds_p_to_topology(self):
        stack = build_stack(
            RunRequest(chain="bsp-on-network", p=7, topology="d-dim array")
        )
        result = stack.run()
        assert result.as_row()  # runs on the rounded grid
