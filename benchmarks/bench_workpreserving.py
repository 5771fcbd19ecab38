"""Experiment WP (extension, paper footnote 1) — the work-preserving
Theorem 1 simulation.

Ramachandran et al. observed that the stall-free-LogP-on-BSP simulation
"can be immediately made work-preserving while maintaining the same
slowdown": host p/p' LogP processors per BSP processor.  The ``WP``
builder's table shows the processor-time product p' * T_BSP falling
toward the sequential work as p' shrinks, while per-host slowdown
follows (p/p') * O(1 + g/G + l/L).
"""

import pytest

from repro import Stack
from repro.models.params import LogPParams
from repro.programs import logp_sum_program

EXPERIMENT = "WP"


@pytest.fixture(scope="module")
def sweep(paper_tables):
    out = {}
    for rec in paper_tables["workpreserving"].records:
        assert rec["outputs_match"], rec
        out[(rec["kernel"], rec["bsp_p"])] = rec
    return out


def test_workpreserving_report(paper_tables, benchmark):
    benchmark.pedantic(
        lambda: Stack(logp_sum_program(), model="logp", params=LogPParams(p=16, L=8, o=1, G=2))
        .on_bsp(p=4)
        .run(),
        rounds=1,
        iterations=1,
    )


def test_work_monotone(sweep):
    for kernel in ("sum", "alltoall"):
        works = [rec["work"] for (k, _b), rec in sweep.items() if k == kernel]
        assert len(works) == 5, kernel
        assert all(a >= b for a, b in zip(works, works[1:])), kernel


def test_slowdown_under_scaled_prediction(sweep):
    for key, rec in sweep.items():
        assert rec["slowdown"] <= rec["predicted_slowdown"] * 1.05, key
