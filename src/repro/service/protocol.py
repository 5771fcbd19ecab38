"""JSON-lines TCP front door for :class:`~repro.service.SimulationService`.

Wire format: one JSON object per line, both directions.  Requests carry
an ``op`` and an optional ``id`` the response echoes, so a client may
pipeline many ops on one connection and match responses by id::

    -> {"op": "run", "id": 1, "request": {"chain": "bsp-on-logp", "p": 8}}
    <- {"id": 1, "ok": true, "outcome": "miss", "record": {...}, ...}

A ``run`` response carries the record exactly as the store holds it:
the server serializes only the small response header and splices the
stored record bytes in, so it never parses or re-serializes a record.

Ops: ``run`` (resolve one request document), ``stats`` (the service's
reconciling counters), ``reload`` (fold in points other servers
appended to the shared store), ``ping``.  Every ``run`` is handled in
its own task, so concurrent identical requests on one *or many*
connections dedupe inside the service exactly like in-process callers.

A frame that is not a JSON object, or is longer than
:data:`FRAME_LIMIT` bytes, gets an error reply with ``"id": null`` and
the connection keeps serving the frames after it.

Everything is stdlib asyncio; :class:`ServiceClient` is the async
client and :func:`request_sync` the one-shot synchronous wrapper the
CLI client mode uses.
"""

from __future__ import annotations

import asyncio
import json

__all__ = ["serve", "ServiceClient", "request_sync"]


#: Longest frame the server reads, newline excluded: asyncio's default
#: ``StreamReader`` limit, stated so the error reply can name it.
FRAME_LIMIT = 2**16


def _error(message: str, req_id=None) -> dict:
    return {"id": req_id, "ok": False, "error": message}


async def _drop_line(reader, consumed: int) -> bool:
    """Discard the rest of an oversized frame, through its newline;
    ``False`` if the stream ends first.

    ``consumed`` is a :class:`asyncio.LimitOverrunError`'s count: that
    many buffered bytes hold no newline."""
    try:
        while True:
            await reader.readexactly(consumed)
            try:
                await reader.readuntil(b"\n")
                return True
            except asyncio.LimitOverrunError as exc:
                consumed = exc.consumed
    except asyncio.IncompleteReadError:
        return False


async def _handle_connection(service, reader, writer) -> None:
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()

    async def reply(doc: dict, record: bytes | None = None) -> None:
        frame = json.dumps(doc).encode()
        if record is not None:  # splice the stored record in, unparsed
            frame = b"".join((frame[:-1], b', "record": ', record, b"}"))
        async with write_lock:  # run tasks finish out of order
            writer.write(frame + b"\n")
            await writer.drain()

    async def handle_run(doc: dict) -> None:
        req_id = doc.get("id")
        try:
            response = await service.submit(doc.get("request") or {})
        except Exception as exc:  # noqa: BLE001 — report, keep serving
            await reply(_error(f"{type(exc).__name__}: {exc}", req_id))
            return
        record = response.pop("record")
        await reply({"id": req_id, **response}, record)

    try:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                line = exc.partial  # EOF: an unterminated last frame, or b""
            except asyncio.LimitOverrunError as exc:
                await reply(_error(f"frame longer than {FRAME_LIMIT} bytes"))
                if not await _drop_line(reader, exc.consumed):
                    break
                continue
            if not line:
                break
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError as exc:  # not JSON, or not UTF-8
                await reply(_error(f"bad JSON: {exc}"))
                continue
            if not isinstance(doc, dict):
                await reply(_error(
                    f"frame must be a JSON object, got {type(doc).__name__}"))
                continue
            op = doc.get("op")
            if op == "run":
                task = asyncio.create_task(handle_run(doc))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif op == "stats":
                await reply({"id": doc.get("id"), "ok": True,
                             "stats": service.stats.as_dict()})
            elif op == "reload":
                updated = await asyncio.to_thread(service.reload)
                await reply({"id": doc.get("id"), "ok": True,
                             "reloaded": updated})
            elif op == "ping":
                await reply({"id": doc.get("id"), "ok": True, "pong": True})
            else:
                await reply(_error(f"unknown op {op!r}", doc.get("id")))
    finally:
        for task in tasks:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(service, host: str = "127.0.0.1", port: int = 0):
    """Start the TCP server; returns the ``asyncio.Server`` (inspect
    ``server.sockets[0].getsockname()`` for the bound port)."""

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host, port, limit=FRAME_LIMIT)


class ServiceClient:
    """Pipelined async client: one connection, responses matched by id."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                doc = json.loads(line)
                fut = self._pending.pop(doc.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(doc)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("server closed"))
            self._pending.clear()

    async def call(self, op: str, **fields) -> dict:
        self._next_id += 1
        req_id = self._next_id
        fut = asyncio.get_running_loop().create_future()
        self._pending[req_id] = fut
        self._writer.write(
            json.dumps({"op": op, "id": req_id, **fields}).encode() + b"\n"
        )
        await self._writer.drain()
        return await fut

    async def run(self, request: dict) -> dict:
        return await self.call("run", request=request)

    async def stats(self) -> dict:
        return (await self.call("stats"))["stats"]

    async def ping(self) -> bool:
        return bool((await self.call("ping")).get("pong"))

    async def reload(self) -> int:
        return int((await self.call("reload")).get("reloaded", 0))

    async def close(self) -> None:
        self._reader_task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def request_sync(host: str, port: int, documents: list[dict]) -> list[dict]:
    """Connect, submit every request document concurrently, return the
    responses in order — the CLI client mode in one call."""

    async def _go() -> list[dict]:
        client = await ServiceClient.connect(host, port)
        try:
            return list(
                await asyncio.gather(*(client.run(d) for d in documents))
            )
        finally:
            await client.close()

    return asyncio.run(_go())
