"""Built-in campaign specs: the paper's sweeps, declared once.

Each is a plain :class:`~repro.campaign.spec.CampaignSpec`.  Those in
:data:`CAMPAIGNS` run by name (``python -m repro.experiments campaign
<name>``); :data:`TH1_TABLE` and ``th2-grid`` are also the grids of the
TH1 and TH2 paper tables, which ``run TH1``/``run TH2`` and their
benches render from the same records.
"""

from __future__ import annotations

import itertools

from repro.campaign.spec import CampaignSpec

__all__ = [
    "CAMPAIGNS",
    "SAMPLE_SORT_GRID",
    "SORTING_REGIMES",
    "TH1_TABLE",
    "TH2_GRID",
    "theorem1_spec",
]


def theorem1_spec(
    name: str, programs, scales, *, description: str = ""
) -> CampaignSpec:
    """Theorem 1 as ``request`` points: each LogP program in ``programs``
    on the LogP(p=16, L=8, o=1, G=2) guest, simulated on a BSP host with
    ``g = gs*G`` and ``l = ls*L`` for each ``(gs, ls)`` in ``scales``.

    The grid crosses a ``program`` axis with one ``params`` axis of
    model dicts, so every point is a plain ``logp-on-bsp``
    :class:`~repro.engine.request.RunRequest` document."""
    L, o, G = 8, 1, 2
    return CampaignSpec(
        name=name,
        target="request",
        grid=(
            ("program", tuple(programs)),
            (
                "params",
                tuple(
                    {"L": L, "o": o, "G": G, "g": G * gs, "l": L * ls}
                    for gs, ls in scales
                ),
            ),
        ),
        base=(("chain", "logp-on-bsp"), ("p", 16)),
        description=description,
    )


#: Theorem 1 across BSP machines: 3 kernels x 4 gap scalings x 2 latency
#: scalings = 24 points on the LogP(p=16, L=8, o=1, G=2) guest.
TH1_GRID = theorem1_spec(
    "th1-grid",
    ("sum", "ring", "alltoall"),
    itertools.product((1, 2, 4, 8), (1, 4)),
    description="Theorem 1: LogP-on-BSP slowdown across g/l scalings (24 points)",
)

#: The TH1 paper table: 3 kernels x g/G, l/L in {1, 4, 8} = 27 points.
TH1_TABLE = theorem1_spec(
    "TH1",
    ("ring", "sum", "alltoall"),
    itertools.product((1, 4, 8), (1, 4, 8)),
    description="Theorem 1 slowdown grid: LogP kernels on scaled BSP hosts",
)

#: Theorem 2 across relation degrees, and the TH2 paper table.  The
#: sweep crosses the scheme boundary: for r >= 2(p-1)^2 = 450 the
#: protocol switches from the bitonic network (AKS stand-in, O(log^2 p)
#: rounds) to Columnsort (Cubesort stand-in, constant rounds) — the
#: paper's small-r/large-r regime change.
TH2_GRID = CampaignSpec(
    name="th2-grid",
    target="theorem2",
    grid=(("h", (1, 2, 4, 8, 16, 32, 64, 256, 512)),),
    base=(("p", 16), ("L", 8), ("o", 1), ("G", 2)),
    seeds=(1,),
    description="Theorem 2: deterministic routing slowdown vs S(L,G,p,h) (9 points)",
)

#: CI smoke: the Theorem 1 grid trimmed to seconds of work.
TH1_SMOKE = theorem1_spec(
    "th1-smoke",
    ("sum", "alltoall"),
    itertools.product((1, 4), (1, 4)),
    description="Theorem 1 smoke grid for CI (8 points)",
)

#: The (previously orphaned) direct BSP sample sort as a campaign:
#: reachable from ``experiments campaign sample-sort-grid`` via the
#: ``workload`` target, sweeping machine size against keys per processor.
SAMPLE_SORT_GRID = CampaignSpec(
    name="sample-sort-grid",
    target="workload",
    grid=(
        ("workload", ("sample-sort",)),
        ("p", (2, 4, 8)),
        ("keys_per_proc", (16, 32, 64)),
    ),
    description="Direct BSP sample sort: cost ledger across p x n/p (9 points)",
)

#: The sorting-regime study grid: all three word-accurate sorters across
#: n/p at p=8 (invalid points — columnsort below 2(p-1)², non-power-of-
#: two bitonic — are recorded as skipped, not failed).
SORTING_REGIMES = CampaignSpec(
    name="sorting-regimes",
    target="workload",
    grid=(
        ("workload", ("sample-sort-unit", "bitonic-sort", "columnsort")),
        ("p", (8,)),
        ("keys_per_proc", (8, 16, 32, 64, 128)),
    ),
    description="Sorting regimes: sample vs bitonic vs Columnsort over n/p (15 points)",
)

CAMPAIGNS: dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        TH1_GRID,
        TH2_GRID,
        TH1_SMOKE,
        SAMPLE_SORT_GRID,
        SORTING_REGIMES,
    )
}
