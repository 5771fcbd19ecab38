"""``repro.workloads`` — the first-class workload library.

A declarative registry of runnable scenarios: each
:class:`~repro.workloads.registry.Workload` bundles a program factory,
its parameter space (full + quick sweep grids), an analytic cost model
folded into :class:`~repro.obs.check.CostModelCheck`, and
reference-output validation.  See ``docs/WORKLOADS.md``.

Entry points::

    from repro.workloads import get, iter_workloads, run_workload

    run = run_workload("jacobi", p=8)      # end-to-end via RunRequest
    run.report.assert_ok()                 # ledger + analytic residuals

    for w in iter_workloads():             # >= 17 builtin entries
        print(w.name, w.family, dict(w.space))

Builtin families register at import: the ten ported core programs
(``logp-core`` / ``bsp-core``), the sorting-regime trio (``sorting``),
the pseudo-streaming transformer pair (``streaming``), and the
iterative-numeric pair (``numeric``).  ``python -m repro.experiments
run SRT|PS|NS`` drives whole families and prints the paper-level
findings (regime crossover, fast-memory superstep bound, scalability
peaks) as committed tables.
"""

from repro.workloads.registry import (
    Workload,
    WorkloadRun,
    check_workload,
    get,
    iter_workloads,
    names,
    register,
    run_workload,
)
from repro.workloads.library import register_builtin_library
from repro.workloads.numeric import register_builtin_numeric
from repro.workloads.sorting import register_builtin_sorting
from repro.workloads.streaming import (
    pseudo_stream,
    register_builtin_streaming,
    streamed_supersteps,
)

__all__ = [
    "Workload",
    "WorkloadRun",
    "register",
    "get",
    "names",
    "iter_workloads",
    "check_workload",
    "run_workload",
    "pseudo_stream",
    "streamed_supersteps",
]

register_builtin_library()
register_builtin_sorting()
register_builtin_streaming()
register_builtin_numeric()
