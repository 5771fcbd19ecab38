"""The experiment runner CLI (python -m repro.experiments)."""

import json
import pathlib

import pytest

from repro.experiments import EXPERIMENTS, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_unknown_id(self, capsys):
        assert main(["run", "NOPE"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_one_fast_experiment(self, capsys):
        assert main(["run", "WP"]) == 0
        out = capsys.readouterr().out
        assert "Work-preserving" in out
        assert "yes" in out  # outputs match column

    def test_run_json_emits_machine_rows(self, capsys):
        """--json prints one parseable document per experiment, with rows
        drawn from the shared MachineResult.as_row projection."""
        assert main(["run", "WP", "--json"]) == 0
        out = capsys.readouterr().out
        json_lines = [line for line in out.splitlines() if line.startswith("{")]
        assert len(json_lines) == 1
        doc = json.loads(json_lines[0])
        assert doc["id"] == "WP"
        assert doc["table"] == "workpreserving"
        assert len(doc["rows"]) == 10
        row = doc["rows"][0]
        # as_row() fields of the underlying Theorem1Report:
        assert row["outputs_match"] is True
        assert {"slowdown", "virtual_time", "bsp_p"} <= set(row)

    @pytest.mark.parametrize("exp_id, names", [
        ("P1", ["cb_synchronization"]),
        ("ST", ["stalling_hotspot", "stalling_storm", "stalling_cycle_on_bsp",
                "stalling_program_on_bsp", "buffer_growth"]),
        ("WP", ["workpreserving"]),
        ("AB", ["ablation_routing", "ablation_cost_conventions",
                "ablation_schedulers", "ablation_acceptance"]),
        ("APP", ["bsp_on_logp_modes"]),
        ("BF", ["bridging_fidelity"]),
        ("FR", ["fault_resilience_logp", "fault_resilience_bsp",
                "fault_resilience_routing"]),
        ("SRT", ["sorting_analytic_crossover", "sorting_executable_schemes",
                 "sorting_regimes"]),
        ("PS", ["streaming_bound"]),
        ("NS", ["numeric_scalability"]),
    ])
    def test_run_prints_the_committed_tables(self, exp_id, names, capsys):
        """``run <id>`` prints the id's committed ``benchmarks/results``
        files verbatim (the benches write the same text)."""
        results = pathlib.Path(__file__).parents[1] / "benchmarks" / "results"
        assert main(["run", exp_id]) == 0
        out = capsys.readouterr().out
        for name in names:
            assert (results / f"{name}.txt").read_text() in out, name

    def test_registry_complete(self):
        """Every DESIGN.md experiment id with a committed table is runnable."""
        assert set(EXPERIMENTS) == {
            "T1", "TH1", "P1", "TH2", "TH3", "ST", "OB1", "WP",
            "AB", "APP", "BF", "FR", "SRT", "PS", "NS",
        }
        for _desc, fn in EXPERIMENTS.values():
            assert callable(fn)


#: Malformed CLI input and a fragment of the one stderr line it must give.
CASES = [
    ("workloads run nope", "unknown workload 'nope'"),
    ("workloads run jacobi --arg n=x", "args n must be an integer"),
    ("workloads run", "give a workload name or --all"),
    ("dist ring --faults foo=1", "unknown wire fault(s) ['foo']"),
    ("dist ring --faults reorder=0.5", "unknown wire fault(s) ['reorder']"),
    ("dist ring --kill 1", "kill expects PID:SUPERSTEP"),
    ("dist nope", "unknown dist program 'nope'"),
    ("request bsp --workload jacobi --arg n", "--arg expects K=V, got 'n'"),
    ("request bsp --param L=8.5 --dry-run", "params L must be an integer"),
    ("request bsp --param L=8 --param L=16 --dry-run", "gives 'L' twice"),
    ("request bsp-on-network --topology nope --dry-run", "unknown topology 'nope'"),
    ("campaign demo --grid x=1 --base y=1,2", "--base expects K=V"),
    ("campaign demo --grid x=1 --base p=8,16", "got '16' (in 'p=8,16')"),
    ("campaign demo --grid x=", "--grid expects AXIS=V1,V2,..."),
    ("campaign demo --grid x=1 --seeds a", "--seeds must be an integer"),
    ("campaign nope", "unknown campaign target 'nope'"),
    ("inspect bsp --p 0", "needs p >= 1"),
    ("inspect bsp-on-network --topology nope", "unknown topology 'nope'"),
    ("inspect logp-on-logp-on-network", "supported stacks"),
    ("run NOPE", "unknown experiment ids"),
]


class TestInputErrors:
    """Every input error ends the same way: exit 2 and one
    ``<subcommand>: <message>`` line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message", CASES, ids=[argv.replace(" ", "_") for argv, _ in CASES]
    )
    def test_one_line_exit_2(self, argv, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no store directory lands in the repo
        assert main(argv.split()) == 2
        out, err = capsys.readouterr()
        command = argv.split()[0]
        assert err.count("\n") == 1 and err.startswith(f"{command}: "), err
        assert message in err, err
        assert "Traceback" not in out + err
        assert not list(tmp_path.iterdir())

    def test_kv_items_take_commas_and_the_value_rule(self, capsys):
        """``--param`` takes comma-separated pairs; a value is an int,
        else a float, else a string."""
        assert main([
            "request", "bsp-on-logp", "--param", "L=32,g=4", "--dry-run",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["request"]["params"] == {"L": 32, "g": 4}

