"""The ``experiments workloads`` CLI family and the workload-aware
``request``/``list`` surfaces."""

import json

from repro.experiments import main
from repro.workloads import names


class TestList:
    def test_lists_every_registered_workload(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out

    def test_family_filter(self, capsys):
        assert main(["workloads", "list", "--family", "numeric"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out and "ring" not in out

    def test_experiments_list_includes_the_workload_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "[workload/numeric]" in out and "jacobi" in out


class TestDescribe:
    def test_card_names_space_and_campaign_spec(self, capsys):
        assert main(["workloads", "describe", "jacobi"]) == 0
        out = capsys.readouterr().out
        assert "jacobi" in out and "workload-jacobi-quick" in out

    def test_unknown_name_fails_with_known_list(self, capsys):
        assert main(["workloads", "describe", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestRun:
    def test_defaults_point_validates(self, capsys):
        assert main(["workloads", "run", "jacobi"]) == 0
        assert "ok+val" in capsys.readouterr().out

    def test_parameter_override(self, capsys):
        assert main(["workloads", "run", "jacobi", "--arg", "iters=2"]) == 0
        assert "ok+val" in capsys.readouterr().out

    def test_quick_grid_sweep(self, capsys):
        assert main(["workloads", "run", "stream-matvec", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok+val") >= 2  # one line per quick point

    def test_missing_name_without_all_is_an_error(self, capsys):
        assert main(["workloads", "run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_all_family_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "numeric.json"
        assert main([
            "workloads", "run", "--all", "--family", "numeric",
            "--quick", "--out", str(out_path),
        ]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["ok"] is True
        assert {w["workload"] for w in doc["workloads"]} == {"jacobi", "gradient"}
        for w in doc["workloads"]:
            assert all(pt["validated"] for pt in w["points"])


class TestRequestCommand:
    def test_dry_run_prints_the_v2_document(self, capsys):
        assert main([
            "request", "bsp", "--workload", "jacobi", "--arg", "iters=2",
            "--p", "4", "--dry-run",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["request"]["workload"] == "jacobi"
        assert doc["request"]["args"] == {"iters": 2}
        assert doc["key"]

    def test_local_resolution(self, tmp_path, capsys):
        assert main([
            "request", "bsp", "--workload", "jacobi", "--arg", "iters=2",
            "--p", "4", "--local", "--store", str(tmp_path / "store"),
        ]) == 0
        assert "workload=jacobi" in capsys.readouterr().out

    def test_workload_program_conflict_is_a_clean_error(self, capsys):
        assert main([
            "request", "bsp", "--workload", "jacobi", "--program", "prefix",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
