"""Record the reference digest table (``digests.json``).

Runs every request of every universe in :mod:`design` once and stores,
per request, its simulated-statistics digest and its simulated-event
count.  Rerun it only when the universes change or when a change is
*meant* to alter simulated statistics; a pure speed-up must reproduce
the committed table bit for bit.  Any request that fails its cost check
or validator aborts the recording.

    python3 perfbench/record_digests.py              # every universe, minutes
    python3 perfbench/record_digests.py warm fresh   # only the named ones
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import design  # noqa: E402
from digest import TABLE_PATH, load_table, record_digest  # noqa: E402
from sim import run_request  # noqa: E402
from tracing import Tracer  # noqa: E402

EVENT_SPANS = ("logp.run", "bsp.run", "router.route")


def main() -> int:
    from repro.campaign.targets import run_point
    from repro.obs.check import CostCheckReport

    tracer = Tracer()
    tracer.install_engine()
    only = set(sys.argv[1:])
    tables = load_table()["tables"] if only else {}
    failures = 0
    for name, docs in design.universes().items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        rows = []
        for doc in docs:
            tracer.spans.clear()
            tracer.accum.clear()
            if name in design.SIM_SHAPES:
                digest, error = run_request(doc)
            else:
                record = json.loads(json.dumps(run_point("request", doc)))
                digest, error = record_digest(record), None
                if not CostCheckReport.from_dict(record["cost_check"]).ok():
                    error = "cost check failed"
            if error:
                print(f"{name}: {doc}: {error}", file=sys.stderr)
                failures += 1
            events = sum(s[6] for s in tracer.spans if s[2] in EVENT_SPANS)
            events += tracer.accum["router.delay"][1]
            rows.append([digest, events])
        tables[name] = rows
        print(f"{name}: {len(rows)} requests in {time.perf_counter() - t0:.1f} s")
    tracer.uninstall()
    if failures:
        print(f"{failures} request(s) failed; table not written", file=sys.stderr)
        return 1
    TABLE_PATH.write_text(
        json.dumps({"design": design.design_hash(), "tables": tables},
                   separators=(",", ":")) + "\n"
    )
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
