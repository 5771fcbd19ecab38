"""On-disk campaign result store: append-only JSONL plus an index.

Layout (one directory per campaign)::

    <dir>/campaign.json   # schema + spec + fingerprint of the last run
    <dir>/results.jsonl   # one entry per completed point, append-only
    <dir>/index.json      # key -> status summary, rebuilt at close

``results.jsonl`` is the source of truth and is written one line per
completed point *as results arrive* (fsynced), so a killed campaign
keeps everything it finished: reopening the store replays the file,
moves a torn final line from a mid-write kill into
``results.quarantine`` and truncates back to the last good newline (so
later appends cannot concatenate onto the fragment), keeps the
**latest** entry per key, and the runner skips every key whose entry is
``ok``.
``index.json`` and ``campaign.json`` are conveniences for humans and CI
artifacts; they are never read back as truth.

The entries live on disk; memory holds only an index: per key, the
entry's status and the byte ranges of its line and of its record in
``results.jsonl``.  So a store's memory does not grow with the size of
its records.  :meth:`ResultStore.get` answers with one ``os.pread`` of
the record's range and hands back the stored JSON bytes unparsed;
:meth:`~ResultStore.entries`, :meth:`~ResultStore.completed`,
:meth:`~ResultStore.canonical` and :meth:`~ResultStore.compact` parse
entries from disk when called.

Entries are content-addressed by the spec's point keys, so resume,
``--force``, and fingerprint invalidation all reduce to set algebra on
keys.  :meth:`ResultStore.canonical` is the determinism contract: the
completed entries in grid order with the volatile fields (wall clock,
worker id) stripped — a resumed store and an uninterrupted store of the
same campaign render identical canonical bytes.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from json.decoder import WHITESPACE, scanstring
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

from repro.campaign.spec import CampaignSpec
from repro.errors import ParameterError

__all__ = ["ResultStore", "ShardedStore", "STORE_SCHEMA"]

#: Schema stamp written into campaign.json / index.json.
STORE_SCHEMA = {"name": "repro.campaign.store", "version": 1}

#: Entry fields excluded from the canonical projection (timing and
#: placement jitter; everything else must be deterministic).
VOLATILE_FIELDS = ("wall_s", "worker")

# One reusable instance of the C encoder ``json.dumps(..., sort_keys=True)``
# builds afresh on every call: (value, indent level) -> string chunks.
_encode_chunks = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None,
    ": ", ", ", True, False, True,
)
_scan_value = json.JSONDecoder().scan_once
_skip_ws = WHITESPACE.match


def compose_line(entry: dict) -> tuple[bytes, int, int]:
    """The stored line of ``entry`` — exactly ``json.dumps(entry,
    sort_keys=True)`` plus a newline — and the ``[start, end)`` byte
    range of its ``record`` value in that line.

    The line is composed field by field, so the record's range falls out
    of the one serialization.  ``json.dumps`` escapes every non-ASCII
    character, so character and byte offsets agree."""
    parts = []
    start = end = 0
    pos = 1  # past the opening brace
    for name in sorted(entry):
        head = encode_basestring_ascii(name) + ": "
        value = "".join(_encode_chunks(entry[name], 0))
        if name == "record":
            start = pos + len(head)
            end = start + len(value)
        parts.append(head + value)
        pos += len(head) + len(value) + 2  # the ", " separator
    return ("{" + ", ".join(parts) + "}\n").encode(), start, end


def scan_line(line: str) -> tuple:
    """Walk one stored line's top-level JSON object in a single decode
    pass: returns its ``key`` and ``status`` values (``None`` when
    absent) and the ``[start, end)`` offsets of its ``record`` value
    (``0, 0`` when absent).  Raises :class:`ValueError` unless the line
    is exactly one JSON object."""
    key = status = None
    start = end = 0
    i = _skip_ws(line, 0).end()
    if line[i:i + 1] != "{":
        raise ValueError("not a JSON object")
    i = _skip_ws(line, i + 1).end()
    if line[i:i + 1] != "}":
        while True:
            if line[i:i + 1] != '"':
                raise ValueError(f"expected a field name at {i}")
            name, i = scanstring(line, i + 1)
            if line.startswith(": ", i) and line[i + 2:i + 3] not in " \t\n\r":
                i += 2  # the separators json.dumps writes
            else:
                i = _skip_ws(line, i).end()
                if line[i:i + 1] != ":":
                    raise ValueError(f"expected ':' at {i}")
                i = _skip_ws(line, i + 1).end()
            try:
                value, stop = _scan_value(line, i)
            except StopIteration as exc:
                raise ValueError(f"expected a value at {exc.value}") from None
            if name == "record":
                start, end = i, stop
            elif name == "key":
                key = value
            elif name == "status":
                status = value
            if line.startswith(', "', stop):
                i = stop + 2
                continue
            i = _skip_ws(line, stop).end()
            if line[i:i + 1] == "}":
                break
            if line[i:i + 1] != ",":
                raise ValueError(f"expected ',' or '}}' at {i}")
            i = _skip_ws(line, i + 1).end()
    if _skip_ws(line, i + 1).end() != len(line):
        raise ValueError(f"extra data at {i + 1}")
    return key, status, start, end


class ResultStore:
    """One campaign's persisted results under ``directory``."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.results_path = self.directory / "results.jsonl"
        self.meta_path = self.directory / "campaign.json"
        self.index_path = self.directory / "index.json"
        self.quarantine_path = self.directory / "results.quarantine"
        self.quarantined = 0  # torn tail fragments moved aside on load
        # key -> (status, line_start, line_end, record_start, record_end),
        # byte offsets into results.jsonl; the latest line per key wins.
        self._index: dict[str, tuple] = {}
        self._scanned = 0  # bytes of results.jsonl already indexed
        self._fd: int | None = None
        # Guards the index and the file descriptor: the service's
        # asyncio loop reads (get) while pool-callback threads append.
        self._lock = threading.RLock()

    # -- lifecycle -----------------------------------------------------

    def open(
        self,
        spec: CampaignSpec,
        fingerprint: str,
        *,
        force: bool = False,
    ) -> "ResultStore":
        """Index prior results (unless ``force``) and start appending."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if force and self.results_path.exists():
            self.results_path.unlink()
        self._load()
        self.meta_path.write_text(
            json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "spec": spec.as_dict(),
                    "fingerprint": fingerprint,
                },
                indent=2,
            )
            + "\n"
        )
        self._fd = os.open(
            self.results_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        return self

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
        self.write_index()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- indexing ------------------------------------------------------

    def _load(self) -> None:
        """Index the JSONL, healing the tail a mid-write kill leaves.

        A process killed inside :meth:`append` leaves either a torn
        final line (unparseable) or a complete final line with no
        trailing newline.  Both would corrupt the *next* appended entry
        by concatenation, so the tail is repaired before the file is
        reopened for append: a torn fragment is moved to
        ``results.quarantine`` and the file truncated back to the last
        good newline; a newline-less good line gets its newline.
        Mid-file garbage (not our crash mode) is skipped, never healed.
        """
        self._index, self._scanned = {}, 0
        if not self.results_path.exists():
            return
        raw = self.results_path.read_bytes()
        self._index_lines(raw)
        tail = raw[self._scanned:]
        if not tail:
            return
        try:
            self._index_line(tail, self._scanned)
        except ValueError:  # torn tail from a killed append
            self._quarantine_tail(tail, self._scanned)
        else:  # complete line, interrupted before EOL
            with self.results_path.open("ab") as fh:
                fh.write(b"\n")
            self._scanned = len(raw) + 1

    def _index_lines(self, raw: bytes) -> int:
        """Index every newline-terminated line of ``raw``, the file's
        bytes from offset ``_scanned`` on, and advance ``_scanned`` past
        them.  Returns the number of keys that are new or now point at
        a later line."""
        base, pos, changed = self._scanned, 0, 0
        while (newline := raw.find(b"\n", pos)) >= 0:
            try:
                changed += self._index_line(raw[pos:newline], base + pos)
            except ValueError:
                pass  # mid-file garbage: tolerated, not healed
            pos = newline + 1
        self._scanned = base + pos
        return changed

    def _index_line(self, chunk: bytes, offset: int) -> int:
        """Index the line ``chunk`` found at byte ``offset``: 1 if its
        key is new or moves to this line, else 0.  Raises
        :class:`ValueError` if the line is not one JSON object."""
        text = chunk.decode()
        key, status, start, end = scan_line(text)
        if not key or not isinstance(key, str):
            return 0
        if len(text) != len(chunk):  # non-ASCII: map characters to bytes
            start, end = len(text[:start].encode()), len(text[:end].encode())
        slot = self._index.get(key)
        if slot is not None and slot[1] >= offset:
            return 0  # a later line for this key is already indexed
        status = sys.intern(status) if isinstance(status, str) else None
        self._index[key] = (
            status, offset, offset + len(chunk), offset + start, offset + end
        )
        return 1

    def _quarantine_tail(self, fragment: bytes, offset: int) -> None:
        """Move a torn trailing fragment aside and truncate to it."""
        with self.quarantine_path.open("ab") as fh:
            fh.write(fragment.rstrip(b"\n") + b"\n")
        with self.results_path.open("r+b") as fh:
            fh.truncate(offset)
        self.quarantined += 1

    def reload(self) -> int:
        """Index the lines appended since the last scan — by *other*
        processes sharing this directory, too.  Read-only: unlike
        :meth:`_load` it never heals the tail (another server may be
        mid-append); a line still being written waits for the next
        reload.  Returns the number of new-or-updated keys."""
        with self._lock:
            size = os.fstat(self._fd).st_size
            return self._index_lines(
                os.pread(self._fd, size - self._scanned, self._scanned)
            )

    # -- reading -------------------------------------------------------

    def get(self, key: str) -> tuple[str, bytes] | None:
        """Thread-safe point lookup — the service's cache-hit read path:
        ``(status, record)`` for the latest entry of ``key``, the record
        as its stored JSON bytes, or ``None``."""
        with self._lock:
            slot = self._index.get(key)
            if slot is None:
                return None
            status, _, _, start, end = slot
            return status, os.pread(self._fd, end - start, start) or b"null"

    def _parsed(self, keep) -> dict[str, dict]:
        """Parse from disk the latest entry of every key ``keep(status)``
        accepts."""
        with self._lock:
            return {
                key: json.loads(os.pread(self._fd, end - start, start))
                for key, (status, start, end, _, _) in self._index.items()
                if keep(status)
            }

    def entries(self) -> dict[str, dict]:
        """Latest entry per key (all statuses)."""
        return self._parsed(lambda status: True)

    def completed(self) -> dict[str, dict]:
        """Keys that finished successfully — the resume skip set.
        Failed/timeout/crashed points are *not* in it: a resumed
        campaign retries them."""
        return self._parsed(lambda status: status == "ok")

    def __len__(self) -> int:
        return len(self._index)

    # -- writing -------------------------------------------------------

    def append(self, entry: dict) -> bytes:
        """Persist one point outcome immediately and return its record's
        stored JSON bytes.  Crash durability: the line is fsynced before
        ``append`` returns, so a power cut cannot lose the entry, only
        ever tear a line mid-write."""
        line, start, end = compose_line(entry)
        with self._lock:
            if self._fd is None:
                raise RuntimeError("ResultStore.append before open()")
            view = memoryview(line)
            while view:
                view = view[os.write(self._fd, view):]
            os.fsync(self._fd)
            stop = os.lseek(self._fd, 0, os.SEEK_CUR)  # O_APPEND: our end
            offset = stop - len(line)
            if offset == self._scanned:  # nobody else appended meanwhile
                self._scanned = stop
            status = entry.get("status")
            self._index[entry["key"]] = (
                sys.intern(status) if isinstance(status, str) else None,
                offset, stop - 1, offset + start, offset + end,
            )
        return line[start:end] or b"null"

    def compact(self, valid_keys) -> int:
        """Rewrite the JSONL keeping only the latest entry per key in
        ``valid_keys``, ordered by grid index.  Returns the number of
        stale entries dropped (superseded duplicates + invalidated
        keys).

        Atomic: the kept lines go to ``results.jsonl.tmp``, which is
        fsynced and then renamed over ``results.jsonl`` (the directory
        fsynced after), so a failure mid-rewrite leaves the old file
        whole."""
        valid = set(valid_keys)
        tmp = self.directory / "results.jsonl.tmp"
        with self._lock:
            raw = os.pread(self._fd, os.fstat(self._fd).st_size, 0)
            keep = []
            for key, (_, start, end, _, _) in self._index.items():
                if key in valid:
                    line = raw[start:end]
                    keep.append(((json.loads(line).get("index", 0), key), line))
            keep.sort(key=lambda pair: pair[0])
            try:
                with tmp.open("wb") as fh:
                    for _, line in keep:
                        fh.write(line + b"\n")
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                tmp.unlink(missing_ok=True)
                raise
            os.replace(tmp, self.results_path)
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            os.close(self._fd)
            self._fd = os.open(self.results_path, os.O_RDWR | os.O_APPEND)
            self._load()
        return sum(1 for line in raw.splitlines() if line.strip()) - len(keep)

    def write_index(self) -> Path:
        statuses: dict[str, int] = {}
        keys: dict[str, str] = {}
        for key, slot in sorted(self._index.items()):
            status = "unknown" if slot[0] is None else slot[0]
            statuses[status] = statuses.get(status, 0) + 1
            keys[key] = status
        self.index_path.write_text(
            json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "points": len(self._index),
                    "statuses": statuses,
                    "keys": keys,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return self.index_path

    # -- determinism contract ------------------------------------------

    def canonical(self) -> str:
        """Deterministic projection of the completed entries: grid
        order, volatile fields stripped.  Two stores of the same
        campaign — one uninterrupted, one killed and resumed — must
        render byte-identical canonical text."""
        entries = sorted(
            self.completed().values(),
            key=lambda e: (e.get("index", 0), e.get("key", "")),
        )
        cleaned = [
            {k: v for k, v in entry.items() if k not in VOLATILE_FIELDS}
            for entry in entries
        ]
        return json.dumps(cleaned, sort_keys=True, indent=1) + "\n"


class ShardedStore:
    """A family of :class:`ResultStore` shards under one root directory,
    routed by content-addressed key prefix.

    ``shard_for(key)`` is a pure function of the key's leading hex
    digits, so *every* server opening the same root routes every key to
    the same shard — that is what lets multiple service processes share
    one cache directory: each append is a single fsynced ``O_APPEND``
    line in the key's shard file, and :meth:`reload` folds in lines
    other processes appended since the last scan.  The shard count is
    pinned in ``shards.json`` at first open; reopening with a different
    count is an error (it would silently re-route every key).

    The read path (:meth:`get`) and write path (:meth:`append`) are
    thread-safe via the per-shard store locks.
    """

    META_NAME = "shards.json"

    def __init__(self, root: str | Path, *, shards: int = 16) -> None:
        if not 1 <= int(shards) <= 256:
            raise ParameterError(
                f"ShardedStore needs 1 <= shards <= 256, got {shards}"
            )
        self.root = Path(root)
        self.shards = int(shards)
        self._stores = [
            ResultStore(self.root / f"shard-{i:02x}") for i in range(self.shards)
        ]

    # -- routing -------------------------------------------------------

    def shard_for(self, key: str) -> int:
        """Deterministic shard index for a point key (hex prefix mod)."""
        return int(str(key)[:8], 16) % self.shards

    def store_for(self, key: str) -> ResultStore:
        return self._stores[self.shard_for(key)]

    # -- lifecycle -----------------------------------------------------

    def open(self, spec, fingerprint: str, *, force: bool = False) -> "ShardedStore":
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / self.META_NAME
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            if meta.get("shards") != self.shards:
                raise ParameterError(
                    f"{self.root} was sharded {meta.get('shards')} ways; "
                    f"reopening with shards={self.shards} would re-route "
                    f"every key (use the original count)"
                )
        else:
            meta_path.write_text(
                json.dumps({"schema": STORE_SCHEMA, "shards": self.shards}) + "\n"
            )
        for store in self._stores:
            store.open(spec, fingerprint, force=force)
        return self

    def close(self) -> None:
        for store in self._stores:
            store.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading / writing ---------------------------------------------

    def get(self, key: str) -> tuple[str, bytes] | None:
        """``(status, stored record bytes)`` for ``key``, or ``None``."""
        return self.store_for(key).get(key)

    def append(self, entry: dict) -> bytes:
        """Persist ``entry`` in its shard; returns the stored record bytes."""
        return self.store_for(entry["key"]).append(entry)

    def reload(self) -> int:
        """Fold in entries appended by other processes since the last scan."""
        return sum(store.reload() for store in self._stores)

    def entries(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for store in self._stores:
            out.update(store.entries())
        return out

    def completed(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for store in self._stores:
            out.update(store.completed())
        return out

    @property
    def quarantined(self) -> int:
        """Torn tail fragments healed across every shard at open."""
        return sum(store.quarantined for store in self._stores)

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores)
