"""Regenerate the committed golden-trace files.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate.py

Each golden is produced with the ``"event"`` kernel and then verified to
be bit-identical under the ``"tick"`` reference before anything is
written — a golden the kernels disagree on would be recording a kernel
bug, not a canonical execution.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.perf.event_queue import KERNELS  # noqa: E402
from tests.golden.cases import CASES, golden_path, normalize  # noqa: E402


def main() -> int:
    for name, case in CASES.items():
        event_doc = normalize(case("event"))
        for kernel in KERNELS:
            if kernel == "event":
                continue
            other = normalize(case(kernel))
            if event_doc != other:
                print(
                    f"FAIL {name}: event and {kernel} kernels disagree; "
                    f"not writing"
                )
                return 1
        path = golden_path(name)
        path.write_text(json.dumps(event_doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
