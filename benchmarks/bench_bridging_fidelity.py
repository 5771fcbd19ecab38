"""Experiment BF (extension of §5) — bridging-model fidelity.

The point of a bridging model: two parameters (g, l) should predict a
program's cost on a real network.  For each Table 1 topology the ``BF``
builder runs a real BSP application (the paper's radix-sort example),
prices every superstep with *measured* packet routing + a tree barrier,
and compares against the abstract machine priced at the topology's best
attainable (g*, l*).  A bounded prediction ratio across topologies is
the §5 claim made executable.
"""

import pytest

from repro.networks.backed import run_on_network
from repro.networks.params import make_topology
from repro.programs import bsp_radix_sort_program

EXPERIMENT = "BF"


@pytest.fixture(scope="module")
def survey(paper_tables):
    return paper_tables["bridging_fidelity"].records


def test_bridging_fidelity_report(survey, benchmark):
    topo, config = make_topology("d-dim array", 16)
    benchmark.pedantic(
        lambda: run_on_network(
            topo, bsp_radix_sort_program(keys_per_proc=4, key_bits=8, seed=11),
            config=config,
        ),
        rounds=1,
        iterations=1,
    )
    for rec in survey:
        assert rec["keys"] == sorted(rec["keys"]), rec["topology"]


def test_prediction_ratio_bounded(survey):
    for rec in survey:
        assert 0.2 <= rec["ratio"] <= 5.0, (rec["topology"], rec["ratio"])


def test_results_identical_across_topologies(survey):
    """§2.1 portability, network edition: the same program computes the
    same answer on every network of the same size (only cost differs;
    butterfly/CCC round to their structural sizes and sort fewer keys)."""
    by_p: dict[int, list] = {}
    for rec in survey:
        by_p.setdefault(rec["p"], []).append(rec["keys"])
    assert len(by_p[16]) >= 4
    for p, runs in by_p.items():
        assert all(r == runs[0] for r in runs), p
