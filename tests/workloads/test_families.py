"""The three family tables: sorting regimes (``SRT``), pseudo-streaming
bounds (``PS``) and iterative-numeric scalability peaks (``NS``)."""

import pytest

from repro.bsp.machine import BSPMachine
from repro.errors import ProgramError
from repro.experiments import EXPERIMENTS
from repro.models.params import BSPParams
from repro.workloads import pseudo_stream, run_workload, streamed_supersteps
from repro.workloads.streaming import stream_rounds


@pytest.fixture(scope="module")
def records():
    """table name -> records, for every SRT, PS and NS table."""
    return {
        table.name: table.records
        for exp_id in ("SRT", "PS", "NS")
        for table in EXPERIMENTS[exp_id][1]()
    }


def _first_r(rows, cheaper) -> int | None:
    return next((row["keys_per_proc"] for row in rows if cheaper(row)), None)


class TestSortingRegimes:
    def test_study_finds_the_crossover(self, records):
        rows = records["sorting_regimes"]
        measured = _first_r(rows, lambda r: r["sample-sort-unit"] <= r["bitonic-sort"])
        predicted = _first_r(
            rows, lambda r: r["sample_closed_form"] <= r["bitonic_closed_form"]
        )
        assert measured is not None
        # The measured crossover sits exactly where the closed forms
        # predict it (both sorters' costs are checked exactly per row).
        assert measured == predicted

    def test_rows_cover_both_regimes(self, records):
        winners = {row["winner"] for row in records["sorting_regimes"]}
        # Small n/p belongs to bitonic, large n/p to sample sort — the
        # paper-level regime split the study exists to demonstrate.
        assert "bitonic-sort" in winners
        assert "sample-sort-unit" in winners

    def test_columnsort_only_enters_when_valid(self, records):
        for row in records["sorting_regimes"]:
            r, p = row["keys_per_proc"], row["p"]
            valid = r >= 2 * (p - 1) ** 2
            assert (row["columnsort"] is not None) == valid, row


class TestStreamingBound:
    def test_bound_proven_on_two_bases(self, records):
        rows = records["streaming_bound"]
        assert len({row["base"] for row in rows}) >= 2
        for row in rows:
            assert row["streamed_supersteps"] == row["predicted_supersteps"]
            assert row["max_h_send"] <= row["chunk"]
            # Streaming a real h > chunk relation must cost barriers.
            if row["h_bound"] > row["chunk"]:
                assert row["streamed_supersteps"] > row["base_supersteps"]

    def test_streamed_run_is_bit_identical_to_base(self):
        base = run_workload("matvec", p=4, params={"n": 16})
        streamed = run_workload("stream-matvec", p=4, params={"n": 16, "chunk": 2})
        assert streamed.result.results == base.result.results

    def test_transformer_proves_a_bad_bound_at_runtime(self):
        """Declaring h_bound below the real per-superstep h_send raises
        instead of silently overflowing the fast-memory budget."""
        from repro.programs import bsp_matvec_program

        prog = pseudo_stream(bsp_matvec_program(16, seed=0), chunk=1, h_bound=1)
        with pytest.raises(ProgramError, match="not a valid per-superstep bound"):
            BSPMachine(BSPParams(p=4, g=1, l=4)).run(prog)

    def test_round_arithmetic(self):
        assert stream_rounds(9, 4) == 3
        assert stream_rounds(0, 4) == 1  # a barrier still happens
        with pytest.raises(ProgramError, match="chunk >= 1"):
            stream_rounds(4, 0)
        # (base - trailing) rounds-expanded supersteps plus the drain.
        assert streamed_supersteps(4, 1, 9, 4) == 10
        assert streamed_supersteps(2, 1, 3, 1) == 4


class TestNumericScalability:
    def test_peaks_agree_on_the_full_grid(self, records):
        for name in ("jacobi", "gradient"):
            rows = [row for row in records["numeric_scalability"] if row["kernel"] == name]
            assert rows, name

            def argmin(key):
                return min(rows, key=lambda row: row[key])["p"]

            assert argmin("measured") == argmin("predicted"), name
            # The discrete argmin brackets the continuous minimizer.
            ps = [row["p"] for row in rows]
            assert min(ps) <= rows[0]["peak_continuous"] <= max(ps)

    def test_measured_cost_equals_closed_form(self, records):
        for row in records["numeric_scalability"]:
            assert row["measured"] == row["predicted"], row
