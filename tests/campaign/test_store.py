"""ResultStore: durability, truncation tolerance, compaction, canonical,
and the index that keeps entries on disk."""

import json
import os
import stat
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import repro.campaign.store as store_mod
from repro.campaign import CampaignSpec
from repro.campaign.store import ResultStore, compose_line, scan_line


SPEC = CampaignSpec(name="s", target="demo", grid=(("x", (1, 2, 3)),))


def entry(key: str, index: int = 0, status: str = "ok", **extra) -> dict:
    return {
        "key": key,
        "index": index,
        "point": {"x": index},
        "status": status,
        "record": {"x": index},
        "error": None,
        "wall_s": 0.1 * index,
        "worker": index % 2,
        **extra,
    }


class TestPersistence:
    def test_append_then_reopen_replays(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
            store.append(entry("b", 1, status="failed"))
        reopened = ResultStore(tmp_path).open(SPEC, "fp")
        assert set(reopened.entries()) == {"a", "b"}
        assert set(reopened.completed()) == {"a"}  # failed points retry
        reopened.close()

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
        with (tmp_path / "results.jsonl").open("a") as fh:
            fh.write('{"key": "b", "status": "o')  # killed mid-write
        reopened = ResultStore(tmp_path).open(SPEC, "fp")
        assert set(reopened.entries()) == {"a"}
        reopened.close()

    def test_force_drops_prior_results(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
        fresh = ResultStore(tmp_path).open(SPEC, "fp", force=True)
        assert len(fresh) == 0
        fresh.close()

    def test_meta_and_index_written(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
        meta = json.loads((tmp_path / "campaign.json").read_text())
        assert meta["schema"]["name"] == "repro.campaign.store"
        assert meta["fingerprint"] == "fp"
        assert meta["spec"]["name"] == "s"
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["keys"] == {"a": "ok"}


class TestCompaction:
    def test_compact_keeps_latest_per_valid_key(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0, status="failed"))
            store.append(entry("a", 0))  # retry superseded the failure
            store.append(entry("stale", 9))
            dropped = store.compact(["a", "b"])
            assert dropped == 2  # superseded duplicate + invalidated key
            assert set(store.entries()) == {"a"}
            assert store.entries()["a"]["status"] == "ok"
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_append_still_works_after_compact(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
            store.compact(["a"])
            store.append(entry("b", 1))
        reopened = ResultStore(tmp_path).open(SPEC, "fp")
        assert set(reopened.entries()) == {"a", "b"}
        reopened.close()

    def test_failed_rewrite_loses_no_entry(self, tmp_path, monkeypatch):
        """A write that fails mid-rewrite (a full disk) must leave every
        entry ``append`` already made durable."""
        real_open = Path.open

        def open_failing(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return FailingWrites(fh, fail_at=2) if "w" in mode else fh

        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            for i, key in enumerate("abc"):
                store.append(entry(key, i))
            monkeypatch.setattr(Path, "open", open_failing)
            with pytest.raises(OSError, match="No space left"):
                store.compact("abc")
            monkeypatch.undo()
            assert set(store.entries()) == {"a", "b", "c"}
        reopened = ResultStore(tmp_path).open(SPEC, "fp")
        assert set(reopened.entries()) == {"a", "b", "c"}
        assert not (tmp_path / "results.jsonl.tmp").exists()
        reopened.close()

    def test_rewrite_fsyncs_the_new_file_then_the_directory(self, tmp_path,
                                                            monkeypatch):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
            store.append(entry("a", 0))
            monkeypatch.setattr(store_mod.os, "fsync", fsync)
            assert store.compact(["a"]) == 1
        assert synced == ["file", "dir"]


class FailingWrites:
    """A file whose ``fail_at``-th write raises, as a full disk would."""

    def __init__(self, fh, fail_at: int) -> None:
        self._fh, self._left = fh, fail_at

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise OSError(28, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestCanonical:
    def test_volatile_fields_stripped_and_order_is_grid_order(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("b", 1, wall_s=9.9, worker=3))
            store.append(entry("a", 0, wall_s=0.1, worker=1))
            text = store.canonical()
        docs = json.loads(text)
        assert [d["key"] for d in docs] == ["a", "b"]
        assert all("wall_s" not in d and "worker" not in d for d in docs)

    def test_canonical_ignores_timing_jitter(self, tmp_path):
        with ResultStore(tmp_path / "1").open(SPEC, "fp") as one:
            one.append(entry("a", 0, wall_s=0.5, worker=0))
            first = one.canonical()
        with ResultStore(tmp_path / "2").open(SPEC, "fp") as two:
            two.append(entry("a", 0, wall_s=123.4, worker=7))
            second = two.canonical()
        assert first == second

    def test_non_ok_entries_not_in_canonical(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0))
            store.append(entry("b", 1, status="crashed"))
            docs = json.loads(store.canonical())
        assert [d["key"] for d in docs] == ["a"]


def big_record(i: int) -> dict:
    """A record of about 1.4 KB on disk, like a cheap served point."""
    return {"cost": i * 1.5, "ledger": [{"h": j, "w": j * 2.5} for j in range(60)]}


class TestIndex:
    """Memory holds an index of byte ranges; the entries stay on disk."""

    def test_resident_bytes_per_entry_stay_under_1kb(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
        lines = [json.dumps(entry(f"{i:064x}", i, record=big_record(i)),
                            sort_keys=True) for i in range(2000)]
        assert 1300 < len(lines[0]) < 1700
        (tmp_path / "results.jsonl").write_text("\n".join(lines) + "\n")
        del lines
        keys = [f"{i:064x}" for i in range(2200)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            store = ResultStore(tmp_path).open(SPEC, "fp")
            opened = tracemalloc.get_traced_memory()[0]
            for i in range(2000, 2200):
                store.append(entry(keys[i], i, record=big_record(i)))
            appended = tracemalloc.get_traced_memory()[0]
            for key in keys:
                store.get(key)
            hit = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for i in (0, 1999, 2000, 2199):
            status, record = store.get(keys[i])
            assert status == "ok" and json.loads(record) == big_record(i)
        store.close()
        assert (opened - base) / 2000 < 1024
        assert (appended - opened) / 200 < 1024
        assert hit - appended < 1024  # a hit keeps nothing resident

    def test_get_returns_the_stored_record_bytes(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            stored = store.append(entry("a", 0, record=big_record(0)))
            assert store.get("a") == ("ok", stored)
            assert stored in (tmp_path / "results.jsonl").read_bytes()
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            assert store.get("a") == ("ok", stored)
            assert store.get("b") is None

    def test_latest_line_per_key_wins(self, tmp_path):
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            store.append(entry("a", 0, status="failed", record=None))
            store.append(entry("a", 0, record={"x": 1}))
            assert store.get("a") == ("ok", b'{"x": 1}')
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            assert store.get("a") == ("ok", b'{"x": 1}')
            assert store.entries()["a"]["record"] == {"x": 1}

    def test_non_ascii_lines_map_to_byte_offsets(self, tmp_path):
        """A line written with raw UTF-8 (not by this store) still
        indexes its record's byte range."""
        doc = entry("a", 0, error="caf\u00e9 \u2603", record={"t": "\u00fc"})
        line = json.dumps(doc, sort_keys=True, ensure_ascii=False)
        (tmp_path / "results.jsonl").write_bytes(line.encode() + b"\n")
        with ResultStore(tmp_path).open(SPEC, "fp") as store:
            status, record = store.get("a")
            assert json.loads(record) == {"t": "\u00fc"}
            assert store.entries()["a"] == doc


class TestIncrementalReload:
    def results(self, tmp_path) -> Path:
        return tmp_path / "results.jsonl"

    def test_half_written_line_waits_for_the_next_reload(self, tmp_path,
                                                         monkeypatch):
        reader = ResultStore(tmp_path).open(SPEC, "fp")
        writer = ResultStore(tmp_path).open(SPEC, "fp")
        try:
            writer.append(entry("a", 0))
            assert reader.reload() == 1
            line = compose_line(entry("b", 1))[0]
            with self.results(tmp_path).open("ab") as fh:
                fh.write(line[:25])  # another process, mid-write
            assert reader.reload() == 0
            assert reader.get("b") is None and len(reader) == 1
            with self.results(tmp_path).open("ab") as fh:
                fh.write(line[25:])
            parsed = []
            real_scan = store_mod.scan_line
            monkeypatch.setattr(store_mod, "scan_line",
                                lambda text: parsed.append(text) or real_scan(text))
            assert reader.reload() == 1
            assert parsed == [line.decode().rstrip("\n")]  # "a" not re-parsed
            assert reader.get("b")[0] == "ok"
            assert reader.reload() == 0
        finally:
            reader.close()
            writer.close()

    def test_own_appends_are_not_counted_again(self, tmp_path):
        reader = ResultStore(tmp_path).open(SPEC, "fp")
        writer = ResultStore(tmp_path).open(SPEC, "fp")
        try:
            writer.append(entry("x", 0, record={"by": "writer"}))
            reader.append(entry("y", 1, record={"by": "reader"}))
            assert reader.reload() == 1  # x is new; y was indexed at append
            assert writer.reload() == 1
            for store in (reader, writer):
                assert json.loads(store.get("x")[1]) == {"by": "writer"}
                assert json.loads(store.get("y")[1]) == {"by": "reader"}
        finally:
            reader.close()
            writer.close()


class TestConcurrentAppends:
    def test_two_stores_appending_from_threads_agree(self, tmp_path,
                                                     monkeypatch):
        """Two stores on one directory (two servers sharing a cache),
        each appending from three threads and reloading as it goes:
        afterwards both index every key, and every get returns the bytes
        its append stored."""
        monkeypatch.setattr(store_mod.os, "fsync", lambda fd: None)
        stores = [ResultStore(tmp_path).open(SPEC, "fp") for _ in range(2)]
        stored = {}

        def work(worker):
            store = stores[worker % 2]
            for i in range(40):
                key = f"{worker}-{i}"
                record = {"worker": worker, "i": i, "pad": "x" * (i * 7 % 50)}
                stored[key] = store.append(entry(key, i, record=record))
                if i % 5 == 0:
                    store.reload()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,))
                       for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for store in stores:
            store.reload()
        reopened = ResultStore(tmp_path).open(SPEC, "fp")
        for store in (*stores, reopened):
            assert len(store) == 240
            assert all(store.get(k) == ("ok", r) for k, r in stored.items())
            store.close()


class TestComposedLine:
    @pytest.mark.parametrize("record", [
        {"nested": {"b": [1, {"c": None}], "a": True}, "empty": {}},
        {"text": "caf\u00e9 \u2603 \"quoted\" \\ back\nslash", "\u00fc": 1},
        {"floats": [0.1, 1e-300, 1.5e300, -0.0, 2.5, float("inf")]},
        None,
        [],
        "plain",
    ])
    def test_is_json_dumps_and_locates_the_record(self, record):
        doc = entry(f"{7:064x}", 7, record=record)
        line, start, end = compose_line(doc)
        assert line == (json.dumps(doc, sort_keys=True) + "\n").encode()
        assert json.loads(line[start:end]) == record
        assert scan_line(line.decode()) == (doc["key"], "ok", start, end)

    @pytest.mark.parametrize("text", [
        "", "[]", "{", '{"key": "a"', '{"key": "a"} x', '{"key": }',
        '{"key": "a",}', '{key: "a"}',
    ])
    def test_scan_rejects_anything_but_one_object(self, text):
        with pytest.raises(ValueError):
            scan_line(text)

    @pytest.mark.parametrize("text", [
        ' { "record" :[1, 2] ,\t"key":"k" , "status" : "ok" } ',
        '{"record":  [1, 2],  "key": \t"k",\n "status": "ok"}',
    ])
    def test_scan_accepts_any_json_whitespace(self, text):
        key, status, start, end = scan_line(text)
        assert (key, status, text[start:end]) == ("k", "ok", "[1, 2]")
