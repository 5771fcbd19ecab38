"""The ``inspect`` subcommand and the shared observability CLI flags."""

import json

import pytest

from repro.experiments import main


def last_json_doc(out: str) -> dict:
    lines = [line for line in out.splitlines() if line.startswith("{")]
    assert lines, f"no JSON document in output:\n{out}"
    return json.loads(lines[-1])


class TestInspect:
    def test_native_chains(self, capsys):
        for chain, result_type in (("bsp", "BSPResult"), ("logp", "LogPResult")):
            assert main(["inspect", chain]) == 0
            out = capsys.readouterr().out
            assert result_type in out

    def test_cross_sim_chain_reports_cost_check(self, capsys):
        assert main(["inspect", "logp-on-bsp", "--json"]) == 0
        out = capsys.readouterr().out
        assert "Theorem1Report" in out
        doc = last_json_doc(out)
        assert doc["chain"] == "logp -> bsp"
        assert doc["cost_check"]["residuals"]
        assert all(
            r["kind"] in ("exact", "upper", "factor")
            for r in doc["cost_check"]["residuals"]
        )

    def test_three_layer_chain_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert (
            main(
                ["inspect", "bsp-on-logp-on-network", "--metrics", "--trace", str(trace)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bsp -> logp -> network" in out
        assert "metrics —" in out
        doc = json.loads(trace.read_text())
        layers = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert "network" in layers and len(layers) == 4

    def test_unknown_chain_fails_cleanly(self, capsys):
        assert main(["inspect", "bsp-on-quantum"]) == 2
        assert "unknown host layer" in capsys.readouterr().err

    def test_unknown_guest_fails_cleanly(self, capsys):
        assert main(["inspect", "pram-on-bsp"]) == 2
        assert "unknown guest model" in capsys.readouterr().err

    def test_unsupported_stack_lists_supported(self, capsys):
        assert main(["inspect", "logp-on-logp-on-network"]) == 2
        assert "supported stacks" in capsys.readouterr().err

    def test_topology_option(self, capsys):
        assert main(["inspect", "bsp-on-network", "--topology", "butterfly"]) == 0
        out = capsys.readouterr().out
        assert "NetworkBackedRun" in out


class TestRunFlags:
    def test_th1_reports_residuals(self, capsys):
        assert main(["run", "TH1"]) == 0
        out = capsys.readouterr().out
        assert "residuals ok" in out
        assert "CostModelCheck" in out
        assert "window == floor(L/2)" in out

    @pytest.mark.slow
    def test_th1_json_carries_cost_check(self, capsys):
        assert main(["run", "TH1", "--json"]) == 0
        doc = last_json_doc(capsys.readouterr().out)
        assert doc["id"] == "TH1"
        for row in doc["rows"]:
            check = row["cost_check"]
            assert all(
                r["observed"] == r["predicted"]
                for r in check["residuals"]
                if r["kind"] == "exact"
            )

    def test_run_with_metrics_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "wp.json"
        assert main(["run", "WP", "--metrics", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "metrics — WP" in out
        assert "sim.slowdown" in out
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]

    def test_multi_id_trace_splits_files(self, capsys, tmp_path):
        trace = tmp_path / "out.json"
        assert main(["run", "WP", "TH1", "--trace", str(trace)]) == 0
        assert (tmp_path / "out.WP.json").exists()
        assert (tmp_path / "out.TH1.json").exists()
        assert not trace.exists()
