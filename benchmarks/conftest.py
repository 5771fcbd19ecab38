"""Benchmark-harness plumbing.

Every bench regenerates one of the paper's quantitative artifacts (see
the experiment index in DESIGN.md), prints it as a table, and writes it
to ``benchmarks/results/<name>.txt`` so the numbers survive the run.
The eight paper tables (T1, TH1, P1, TH2, TH3, ST, OB1, WP) come from
their :data:`repro.experiments.EXPERIMENTS` builder — the records that
``python -m repro.experiments run <id>`` renders — through the
:func:`paper_tables` fixture.  pytest-benchmark wraps a representative
kernel of each experiment so the suite also tracks wall-clock
performance of the simulators themselves.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="module")
def paper_tables(request) -> dict:
    """Build the bench module's ``EXPERIMENT`` id once; its tables keyed
    by results-file name."""
    from repro.experiments import EXPERIMENTS

    _desc, build = EXPERIMENTS[request.module.EXPERIMENT]
    return {table.name: table for table in build()}


@pytest.fixture
def publish(results_dir, capsys):
    """Print a table and persist it under benchmarks/results/."""

    def _publish(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _publish


@pytest.fixture
def publish_json(results_dir):
    """Persist a schema-versioned JSON artifact under benchmarks/results/.

    Stamped via :func:`repro.campaign.io.dump_json`, so downstream
    consumers can validate ``{"schema": {"name", "version"}}`` with
    :func:`repro.campaign.io.load_json` instead of sniffing shapes.
    """

    def _publish(name: str, payload: dict, *, kind: str | None = None):
        from repro.campaign.io import dump_json

        return dump_json(
            results_dir / f"{name}.json", kind or f"repro.bench.{name}", payload
        )

    return _publish
