"""Benchmark-harness plumbing.

Every committed table under ``benchmarks/results/<name>.txt`` is one
:class:`~repro.experiments.ExperimentTable` returned by an
:data:`repro.experiments.EXPERIMENTS` builder — the records that
``python -m repro.experiments run <id>`` renders.  A bench module names
its id in ``EXPERIMENT`` and reads the id's tables through the
:func:`paper_tables` fixture, which builds each id once per session,
prints its tables and writes them to ``benchmarks/results/``; the bench
itself only asserts on the records.  pytest-benchmark wraps a
representative kernel of each experiment so the suite also tracks
wall-clock performance of the simulators themselves.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def experiment_tables(request):
    """``build(id)``: the id's tables keyed by results-file name, built
    (and published to ``benchmarks/results/``) on first use only."""
    from repro.experiments import EXPERIMENTS

    capture = request.config.pluginmanager.getplugin("capturemanager")
    built: dict[str, dict] = {}

    def build(exp_id: str) -> dict:
        if exp_id not in built:
            built[exp_id] = {table.name: table for table in EXPERIMENTS[exp_id][1]()}
            for table in built[exp_id].values():
                text = table.render()
                with capture.global_and_fixture_disabled():
                    print(f"\n{text}")
                (RESULTS_DIR / f"{table.name}.txt").write_text(text + "\n")
        return built[exp_id]

    return build


@pytest.fixture(scope="module")
def paper_tables(request, experiment_tables) -> dict:
    """The bench module's ``EXPERIMENT`` tables, keyed by results-file name."""
    return experiment_tables(request.module.EXPERIMENT)


@pytest.fixture
def publish_json():
    """Persist a schema-versioned JSON artifact under benchmarks/results/.

    Stamped via :func:`repro.campaign.io.dump_json`, so downstream
    consumers can validate ``{"schema": {"name", "version"}}`` with
    :func:`repro.campaign.io.load_json` instead of sniffing shapes.
    """

    def _publish(name: str, payload: dict):
        from repro.campaign.io import dump_json

        return dump_json(RESULTS_DIR / f"{name}.json", f"repro.bench.{name}", payload)

    return _publish
