"""Experiment SRT — the Section 4.2 sorting regimes.

Three artifacts: (a) the analytic AKS-vs-Cubesort crossover in the
paper's cost model, (b) the *executable* substitutes — the bitonic
merge-split network (small r) and Columnsort (large r) — actually
sorting on the LogP cost scale, showing the same who-wins structure,
and (c) the word-accurate BSP sorters' regimes, whose measured
sample-sort/bitonic crossover the tier-1 suite pins to the closed forms
(``tests/workloads/test_families.py``).
"""

from repro.models.cost import t_sort_cubesort
from repro.models.params import LogPParams

EXPERIMENT = "SRT"


def test_analytic_crossover_report(paper_tables, benchmark):
    params = LogPParams(p=256, L=16, o=1, G=2)
    benchmark.pedantic(
        lambda: [t_sort_cubesort(r, params.p, params) for r in (1, 64, 4096)],
        rounds=1,
        iterations=1,
    )
    # the crossover exists and sits in the large-r region
    winners = [rec["winner"] for rec in paper_tables["sorting_analytic_crossover"].records]
    assert winners[0] == "AKS" and winners[-1] == "Cubesort"


def test_executable_schemes_report(paper_tables, benchmark):
    import random

    from repro.sorting import bitonic_schedule, run_schedule_locally

    rng = random.Random(3)
    blocks = [[rng.randrange(10**6) for _ in range(8)] for _ in range(16)]
    benchmark.pedantic(
        lambda: run_schedule_locally(bitonic_schedule(16), blocks), rounds=1, iterations=1
    )
    records = paper_tables["sorting_executable_schemes"].records
    for rec in records:
        assert rec["bitonic_sorted"], rec
        assert rec["columnsort_sorted"] in (True, None), rec
    # Shape check: columnsort wins in its validity regime (large r).
    assert records[-1]["winner"] == "columnsort"
    assert records[0]["winner"] == "bitonic"
