"""Experiment OB1 — **Observation 1** (Section 5).

The ``OB1`` builder measures, for each Table 1 topology, the best
attainable BSP parameters (g* = gamma, l* ~ diameter) and LogP
parameters (G*, and the fixed point L* such that a ceil(L*/G*)-relation
actually routes within L* on the packet simulator).  Observation 1:
``G* = Theta(g*)`` and ``L* = Theta(l* + g*)`` — the ratio columns must
stay bounded across p.
"""

import pytest

from repro.core.network_support import derive_model_support
from repro.networks.params import make_topology

EXPERIMENT = "OB1"


@pytest.fixture(scope="module")
def survey(paper_tables):
    return paper_tables["observation1_direct"].records


def test_observation1_report(paper_tables, benchmark):
    topo, config = make_topology("d-dim array", 16)
    benchmark.pedantic(
        lambda: derive_model_support(topo, table_name="d-dim array", config=config),
        rounds=1,
        iterations=1,
    )


def test_ratios_bounded(survey):
    for r in survey:
        assert 0.8 <= r["G_over_g"] <= 4.5, r
        assert 0.25 <= r["L_over_lg"] <= 5.0, r


def test_ratios_stable_across_p(survey):
    """Theta(1) means the ratio must not blow up as p quadruples.

    (Indexing is by position: some builders round to their structure's
    natural size, so the realized p differs from the requested one.)
    """
    by_name = {}
    for r in survey:
        by_name.setdefault(r["name"], []).append(r)
    for name, rows in by_name.items():
        small, large = sorted(rows, key=lambda r: r["p"])
        assert large["G_over_g"] <= 2.5 * small["G_over_g"] + 0.5, name
        assert large["L_over_lg"] <= 2.5 * small["L_over_lg"] + 0.5, name
