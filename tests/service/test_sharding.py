"""ShardedStore: stable routing, count pinning, cross-process sharing."""

import asyncio
import json

import pytest

from repro.campaign import CampaignSpec, ShardedStore
from repro.errors import ParameterError
from repro.service import ServiceConfig, SimulationService

SPEC = CampaignSpec(name="sharding-test", target="request")


def _entry(key, payload=0):
    return {"key": key, "index": 0, "point": {}, "status": "ok",
            "record": {"payload": payload}, "error": None,
            "wall_s": 0.0, "worker": 0}


class TestRouting:
    def test_same_key_same_shard_across_instances(self, tmp_path):
        keys = [f"{i:08x}{'ab' * 28}" for i in range(40)]
        a = ShardedStore(tmp_path / "s", shards=8)
        b = ShardedStore(tmp_path / "other-root", shards=8)
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_routing_is_prefix_mod(self):
        store = ShardedStore("unused", shards=16)
        assert store.shard_for("00000010" + "f" * 56) == 0
        assert store.shard_for("0000001f" + "f" * 56) == 15

    def test_append_lands_in_the_routed_shard_dir(self, tmp_path):
        key = "deadbeef" + "0" * 56
        with ShardedStore(tmp_path, shards=4).open(SPEC, "fp") as store:
            store.append(_entry(key))
            shard = store.shard_for(key)
        path = tmp_path / f"shard-{shard:02x}" / "results.jsonl"
        assert key in path.read_text()
        # no other shard saw it
        others = [p for p in tmp_path.glob("shard-*/results.jsonl") if p != path]
        assert all(key not in p.read_text() for p in others)

    def test_get_after_reopen(self, tmp_path):
        key = "cafef00d" + "1" * 56
        with ShardedStore(tmp_path, shards=4).open(SPEC, "fp") as store:
            store.append(_entry(key, payload=7))
        with ShardedStore(tmp_path, shards=4).open(SPEC, "fp") as store:
            status, record = store.get(key)
            assert status == "ok" and json.loads(record)["payload"] == 7
            assert len(store) == 1


class TestCountPinning:
    def test_reopening_with_other_count_is_an_error(self, tmp_path):
        ShardedStore(tmp_path, shards=8).open(SPEC, "fp").close()
        with pytest.raises(ParameterError, match="sharded 8 ways"):
            ShardedStore(tmp_path, shards=16).open(SPEC, "fp")

    def test_pin_is_recorded_in_shards_json(self, tmp_path):
        ShardedStore(tmp_path, shards=3).open(SPEC, "fp").close()
        meta = json.loads((tmp_path / "shards.json").read_text())
        assert meta["shards"] == 3
        assert meta["schema"]["name"] == "repro.campaign.store"

    def test_shard_count_bounds(self, tmp_path):
        with pytest.raises(ParameterError, match="1 <= shards <= 256"):
            ShardedStore(tmp_path, shards=0)
        with pytest.raises(ParameterError, match="1 <= shards <= 256"):
            ShardedStore(tmp_path, shards=257)


class TestCrossServer:
    def test_reload_folds_in_another_processs_appends(self, tmp_path):
        key = "0badf00d" + "2" * 56
        first = ShardedStore(tmp_path, shards=4).open(SPEC, "fp")
        second = ShardedStore(tmp_path, shards=4).open(SPEC, "fp")
        try:
            second.append(_entry(key, payload=42))
            assert first.get(key) is None  # not yet folded in
            assert first.reload() == 1
            assert json.loads(first.get(key)[1])["payload"] == 42
            assert first.reload() == 0  # idempotent
        finally:
            first.close()
            second.close()

    def test_two_services_share_one_cache_dir(self, tmp_path):
        doc = {"chain": "bsp", "program": "prefix", "p": 4}
        cfg = ServiceConfig(store_dir=str(tmp_path / "cache"), shards=4,
                            workers=0)

        async def main():
            async with SimulationService(cfg) as a, SimulationService(cfg) as b:
                miss = await a.submit(doc)
                folded = b.reload()
                hit = await b.submit(doc)
                return miss, folded, hit, b.stats

        miss, folded, hit, b_stats = asyncio.run(main())
        assert miss["outcome"] == "miss"
        assert folded >= 1
        # server B serves A's computation straight from the shared cache
        assert hit["outcome"] == "hit"
        assert hit["record"] == miss["record"]
        assert b_stats.pool_points == 0
