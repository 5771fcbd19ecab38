"""Launch ``experiments serve`` with the layer wrappers installed.

    python3 perfbench/traced_server.py SPANS.json serve [serve options]

Installs the engine and service wrappers of :mod:`tracing`, runs the
CLI's ``serve`` subcommand unchanged, and on shutdown (SIGINT) writes
the recorded spans, accumulated layer times, plan-cache counters and
peak RSS to ``SPANS.json``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install_engine()
    tracer.install_service()
    from repro.experiments import main as cli
    from repro.perf.memo import plan_cache_stats

    try:
        return cli(sys.argv[2:])
    finally:
        out.write_text(json.dumps({
            "spans": tracer.spans,
            "accum": dict(tracer.accum),
            "plancache": plan_cache_stats(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }))


if __name__ == "__main__":
    raise SystemExit(main())
