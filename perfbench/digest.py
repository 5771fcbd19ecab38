"""Simulated-statistics digests: the benchmark's correctness oracle.

A speed-up of the simulator must leave every simulated statistic
bit-identical, so each request's statistics are hashed and compared with
the digest recorded for that request in ``digests.json``:

* :func:`result_digest` hashes a result object from a direct
  ``build_stack(req).run()`` (the ``sim-*`` workloads): the result row
  plus, for each embedded machine result, its row and per-superstep
  ``w``/``h`` ledger, and the routed superstep costs of network runs.
* :func:`record_digest` hashes the record the service returns (the
  ``serve-*`` workloads): every field except the kernel work counters,
  which describe how the simulator worked rather than what it computed.

The table also holds each request's reference simulated-event count
(LogP, BSP and router ``kernel.events``), the work normaliser behind
``sim_events_per_s``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

TABLE_PATH = Path(__file__).resolve().parent / "digests.json"

#: Embedded machine results of the cross-simulation reports.
_PARTS = ("logp", "bsp_native", "bsp", "native")


def _hash(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _row(result) -> dict:
    row = result.as_row() if hasattr(result, "as_row") else {}
    row.pop("kernel", None)
    ledger = getattr(result, "ledger", None)
    if ledger:
        row["w"] = [rec.w for rec in ledger]
        row["h"] = [rec.h for rec in ledger]
    return row


def result_stats(result) -> dict:
    stats = {"row": _row(result)}
    for part in _PARTS:
        sub = getattr(result, part, None)
        if sub is not None and hasattr(sub, "as_row"):
            stats[part] = _row(sub)
    steps = getattr(result, "supersteps", None)
    if isinstance(steps, list):
        stats["route_time"] = [s.route_time for s in steps]
    return json.loads(json.dumps(stats))


def result_digest(result) -> str:
    return _hash(result_stats(result))


def record_digest(record: dict) -> str:
    return _hash({k: v for k, v in record.items() if k != "kernel"})


def load_table() -> dict:
    """``{"design": hash, "tables": {universe: [[digest, events], ...]}}``."""
    return json.loads(TABLE_PATH.read_text())
