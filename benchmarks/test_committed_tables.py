"""Every committed table under ``benchmarks/results/`` is one table of
exactly one :data:`repro.experiments.EXPERIMENTS` builder, so
``python -m repro.experiments run all`` regenerates them all."""

import pathlib

from repro.experiments import EXPERIMENTS

#: The committed ``.txt`` stems, read at collection, before any bench
#: rewrites the directory.
COMMITTED = sorted(
    path.stem for path in (pathlib.Path(__file__).parent / "results").glob("*.txt")
)


def test_every_committed_table_has_exactly_one_builder(experiment_tables):
    built = sorted(name for exp_id in EXPERIMENTS for name in experiment_tables(exp_id))
    assert built == COMMITTED
