"""The serve / request subcommands of python -m repro.experiments."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.experiments import main

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def run_cli(*argv) -> int:
    return main(list(argv))


class TestServeSmoke:
    def test_smoke_passes(self, tmp_path, capsys):
        rc = run_cli("serve", "--smoke", "--store", str(tmp_path / "store"))
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "serve smoke: OK" in out
        assert "FAIL" not in out
        # the smoke prints its reconciliation checks
        assert "pool saw only unique points" in out
        assert out.count("PASS") >= 8

    def test_repeat_smoke_in_one_directory(self, tmp_path, monkeypatch, capsys):
        """Each smoke runs on its own temporary store, so a second run in
        the same directory still sees misses first, and none is left."""
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert run_cli("serve", "--smoke") == 0, capsys.readouterr().out
        assert not list(tmp_path.iterdir())


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, read from /proc."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestServeProcess:
    def test_worker_exits_when_the_server_is_killed(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving on "), line
            port = int(line.split()[2].rsplit(":", 1)[1])
            from repro.service import request_sync

            [resp] = request_sync("127.0.0.1", port,
                                  [{"chain": "bsp-on-logp", "p": 4}])
            assert resp["ok"] and resp["outcome"] == "miss"
            [worker] = _children(proc.pid)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        deadline = time.monotonic() + 2.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(worker)


class TestRequestCLI:
    def test_dry_run_prints_request_and_key(self, capsys):
        rc = run_cli("request", "bsp-on-logp", "--p", "4", "--dry-run")
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["request"]["chain"] == "bsp-on-logp"
        assert doc["request"]["p"] == 4
        assert len(doc["key"]) == 20  # content-addressed point key

    def test_local_mode_counts_and_dedupes(self, tmp_path, capsys):
        rc = run_cli(
            "request", "bsp", "--p", "4", "--local",
            "--store", str(tmp_path / "store"), "--count", "3",
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("bsp") >= 3
        assert "miss/ok" in out and "dedup/ok" in out

    def test_local_mode_second_run_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert run_cli("request", "bsp", "--p", "4", "--local",
                       "--store", store) == 0
        capsys.readouterr()
        assert run_cli("request", "bsp", "--p", "4", "--local",
                       "--store", store) == 0
        assert "hit/ok" in capsys.readouterr().out

    def test_local_json_prints_records_as_objects(self, tmp_path, capsys):
        assert run_cli("request", "bsp", "--p", "4", "--local", "--json",
                       "--store", str(tmp_path / "store")) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["outcome"] == "miss"
        assert isinstance(doc["record"], dict) and doc["record"]["cost_check"]

    def test_param_overrides_parse(self, tmp_path, capsys):
        rc = run_cli(
            "request", "bsp-on-logp", "--p", "4", "--param", "L=32",
            "--param", "g=4", "--dry-run",
        )
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["request"]["params"] == {"L": 32, "g": 4}

    def test_no_server_reports_helpfully(self, capsys):
        rc = run_cli("request", "bsp", "--p", "4",
                     "--host", "127.0.0.1", "--port", "1")
        err = capsys.readouterr().err
        assert rc == 2
        assert "--local" in err

    def test_invalid_chain_fails_cleanly(self, capsys):
        rc = run_cli("request", "mpi", "--dry-run")
        assert rc != 0
