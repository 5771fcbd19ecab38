"""The JSON-lines TCP protocol: round-trips, cross-connection dedup,
malformed and oversized input handling."""

import asyncio
import json

import pytest

from repro.service import ServiceClient, ServiceConfig, SimulationService, serve
from repro.service.protocol import FRAME_LIMIT

DOC = {"chain": "bsp", "program": "prefix", "p": 4}
PING = json.dumps({"op": "ping", "id": 9}).encode() + b"\n"


def _config(tmp_path):
    return ServiceConfig(store_dir=str(tmp_path / "store"), shards=4,
                         workers=0)


def with_server(tmp_path, body):
    """Run ``await body(svc, host, port)`` against a live TCP server."""

    async def _main():
        async with SimulationService(_config(tmp_path)) as svc:
            server = await serve(svc, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                return await body(svc, host, port)
            finally:
                server.close()
                await server.wait_closed()

    return asyncio.run(_main())


async def _raw_roundtrip(host, port, lines):
    """Send raw bytes, read one response line per request line."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for line in lines:
            writer.write(line)
        await writer.drain()
        return [json.loads(await reader.readline()) for _ in lines]
    finally:
        writer.close()
        await writer.wait_closed()


class TestRoundTrip:
    def test_ping_stats_run(self, tmp_path):
        async def body(svc, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                pong = await client.ping()
                run = await client.run(DOC)
                stats = await client.stats()
                return pong, run, stats
            finally:
                await client.close()

        pong, run, stats = with_server(tmp_path, body)
        assert pong is True
        assert run["ok"] and run["outcome"] == "miss" and run["record"]
        assert stats["requests"] == 1 and stats["reconciled"] is True

    def test_reload_op(self, tmp_path):
        async def body(svc, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                return await client.reload()
            finally:
                await client.close()

        reloaded = with_server(tmp_path, body)
        assert reloaded == 0  # nothing appended by other processes

    def test_pipelined_ids_match(self, tmp_path):
        async def body(svc, host, port):
            lines = [
                json.dumps({"op": "ping", "id": i}).encode() + b"\n"
                for i in (3, 1, 2)
            ]
            return await _raw_roundtrip(host, port, lines)

        responses = with_server(tmp_path, body)
        assert [r["id"] for r in responses] == [3, 1, 2]


class TestCrossConnectionDedup:
    def test_many_sockets_one_computation(self, tmp_path):
        n = 6

        async def one(host, port):
            client = await ServiceClient.connect(host, port)
            try:
                return await client.run(DOC)
            finally:
                await client.close()

        async def body(svc, host, port):
            responses = await asyncio.gather(*(one(host, port)
                                               for _ in range(n)))
            return responses, svc.stats

        responses, stats = with_server(tmp_path, body)
        assert all(r["ok"] for r in responses)
        assert sorted(r["outcome"] for r in responses).count("miss") == 1
        assert stats.pool_points == 1  # one computation across n sockets
        assert stats.requests == n and stats.reconciled()


class TestMalformedInput:
    @pytest.mark.parametrize("frame, error", [
        (b"{not json", "bad JSON"),
        (b"\xff", "bad JSON"),
        (b"[1, 2]", "frame must be a JSON object, got list"),
        (b'"x"', "frame must be a JSON object, got str"),
        (b"null", "frame must be a JSON object, got NoneType"),
    ], ids=["not-json", "not-utf8", "list", "string", "null"])
    def test_bad_json_gets_an_error_reply_and_connection_survives(
            self, tmp_path, frame, error):
        async def body(svc, host, port):
            return await _raw_roundtrip(host, port, [frame + b"\n", PING])

        bad, pong = with_server(tmp_path, body)
        assert bad["ok"] is False and bad["id"] is None
        assert error in bad["error"]
        assert pong["ok"] is True and pong["id"] == 9

    @pytest.mark.parametrize("size", [70_000, 300_000])
    def test_oversized_frame_gets_an_error_reply_and_connection_survives(
            self, tmp_path, size):
        frame = json.dumps({"op": "ping", "id": 1, "pad": "x" * size}).encode()

        async def body(svc, host, port):
            return await _raw_roundtrip(host, port, [frame + b"\n", PING])

        bad, pong = with_server(tmp_path, body)
        assert bad["ok"] is False and bad["id"] is None
        assert f"longer than {FRAME_LIMIT} bytes" in bad["error"]
        assert pong["ok"] is True and pong["id"] == 9

    def test_unknown_op(self, tmp_path):
        async def body(svc, host, port):
            line = json.dumps({"op": "teleport", "id": 4}).encode() + b"\n"
            return await _raw_roundtrip(host, port, [line])

        (resp,) = with_server(tmp_path, body)
        assert resp["ok"] is False and "unknown op 'teleport'" in resp["error"]
        assert resp["id"] == 4

    def test_invalid_request_document_reported_not_fatal(self, tmp_path):
        async def body(svc, host, port):
            client = await ServiceClient.connect(host, port)
            try:
                bad = await client.run({"chain": "mpi"})
                good = await client.run(DOC)
                return bad, good
            finally:
                await client.close()

        bad, good = with_server(tmp_path, body)
        assert bad["ok"] is False and "unknown guest model" in bad["error"]
        assert good["ok"] is True
