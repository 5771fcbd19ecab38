"""Experiment T1 — regenerate **Table 1** of the paper.

The ``T1`` builder routes balanced h-relations on the packet simulator
for every topology row at two machine sizes, and for the d=3 array at
two sides, and fits ``T(h) = gamma h + delta``; this bench checks the
*growth* of the fitted parameters against the table's asymptotic forms
(constants depend on our store-and-forward substrate; the paper's claim
is the asymptotic class).
"""


import pytest

from repro.networks.params import TOPOLOGY_BUILDERS, measure_network_params
from repro.networks.routing_sim import route_h_relation

EXPERIMENT = "T1"


@pytest.fixture(scope="module")
def survey(paper_tables):
    """topology -> its fits, in size order (indexed by position: some
    builders round to their structure's natural size)."""
    out = {}
    for rec in paper_tables["table1_network_params"].records:
        out.setdefault(rec["name"], []).append(rec)
    return out


def test_table1_report(paper_tables, benchmark):
    topo, config = TOPOLOGY_BUILDERS["hypercube (single-port)"](16)
    benchmark.pedantic(
        lambda: measure_network_params(
            topo, table_name="hypercube (single-port)", hs=(1, 2, 4, 8),
            seeds=(0, 1), config=config,
        ),
        rounds=1,
        iterations=1,
    )


def test_gamma_growth_classes(survey):
    """gamma growth from p=16 to p=64 must follow the Table 1 class:
    sqrt growth for array/mesh-of-trees, flat for multi-port hypercube,
    log growth for the log p rows."""

    def growth(name):
        small, large = survey[name]
        return max(large["gamma"], 0.3) / max(small["gamma"], 0.3)

    # sqrt(p): x4 in p -> x2 in gamma (allow wide tolerance)
    assert 1.4 <= growth("d-dim array") <= 3.0
    assert 1.3 <= growth("mesh-of-trees") <= 3.2
    # Theta(1): flat-ish
    assert growth("hypercube (multi-port)") <= 1.6
    # Theta(log p): between flat and sqrt
    assert 1.0 <= growth("hypercube (single-port)") <= 2.2
    assert 1.0 <= growth("butterfly") <= 2.6
    assert 1.0 <= growth("shuffle-exchange") <= 2.6


def test_delta_tracks_diameter(survey):
    for name, fits in survey.items():
        for meas in fits:
            assert meas["delta"] <= 4.0 * meas["diameter"] + 4.0, name


def test_fit_quality(survey):
    for name, fits in survey.items():
        for meas in fits:
            assert meas["r2"] >= 0.75, f"{name}: poor affine fit (r2={meas['r2']})"


def test_d3_array_dimension_dependence(paper_tables):
    """Table 1's array row is parameterized by d: for d=3,
    gamma = delta = Theta(p^{1/3}).  Octupling p (side 4 -> 8) must double
    gamma, unlike the d=2 quadrupling."""
    small, large = (max(rec["gamma"], 0.3) for rec in paper_tables["table1_d3_array"].records)
    assert 1.3 <= large / small <= 3.2


def test_bench_hypercube_routing_kernel(benchmark):
    topo, config = TOPOLOGY_BUILDERS["hypercube (single-port)"](64)
    benchmark.pedantic(
        lambda: route_h_relation(topo, 8, seed=0, config=config),
        rounds=3,
        iterations=1,
    )


def test_bench_mesh_of_trees_routing_kernel(benchmark):
    topo, config = TOPOLOGY_BUILDERS["mesh-of-trees"](64)
    benchmark.pedantic(
        lambda: route_h_relation(topo, 8, seed=0, config=config),
        rounds=3,
        iterations=1,
    )
