"""Theorems 2/3: executing BSP programs on the LogP machine."""

import pytest

from repro.core.bsp_on_logp import simulate_bsp_on_logp
from repro.errors import ProgramError
from repro.models.params import LogPParams
from repro.programs import (
    bsp_matvec_program,
    bsp_prefix_program,
    bsp_radix_sort_program,
)

MODES = ["deterministic", "randomized", "offline"]


def params(p=8, L=16, o=1, G=2):
    return LogPParams(p=p, L=L, o=o, G=G)


@pytest.mark.parametrize("mode", MODES)
class TestOutputEquivalence:
    def test_prefix(self, mode):
        rep = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing=mode)
        assert rep.outputs_match
        assert rep.results == [sum(range(1, i + 2)) for i in range(8)]

    def test_radix_sort(self, mode):
        rep = simulate_bsp_on_logp(
            params(),
            bsp_radix_sort_program(keys_per_proc=4, key_bits=8, seed=2),
            routing=mode,
            seed=5,
        )
        flat = [k for block in rep.results for k in block]
        assert flat == sorted(flat) and len(flat) == 32

    def test_matvec(self, mode):
        rep = simulate_bsp_on_logp(params(), bsp_matvec_program(16, seed=1), routing=mode)
        assert rep.outputs_match

    def test_sample_sort_with_self_sends(self, mode):
        """Regression: BSP programs may send messages to themselves (the
        sample-sort kernel's processor 0 mails itself its samples); every
        routing mode must deliver them locally."""
        from repro.programs import bsp_sample_sort_program

        rep = simulate_bsp_on_logp(
            params(), bsp_sample_sort_program(keys_per_proc=8, seed=4),
            routing=mode, seed=9,
        )
        flat = [k for block in rep.results for k in block]
        assert flat == sorted(flat) and len(flat) == 64


class TestStructure:
    def test_deterministic_and_offline_stall_free(self):
        for mode in ("deterministic", "offline"):
            rep = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing=mode)
            assert rep.logp.stall_free

    def test_instruction_subclass_rejected(self):
        """The guest BSP interpreter matches instructions by exact type."""
        from repro.bsp import Send, Sync

        class Tagged(Send):
            pass

        def prog(ctx):
            yield Tagged((ctx.pid + 1) % ctx.p, "x")
            yield Sync()

        with pytest.raises(ProgramError, match="not a BSP instruction"):
            simulate_bsp_on_logp(params(), prog)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProgramError, match="unknown routing"):
            simulate_bsp_on_logp(params(), bsp_prefix_program(), routing="psychic")

    def test_superstep_count_matches_native(self):
        rep = simulate_bsp_on_logp(params(), bsp_prefix_program())
        # one timeline entry per superstep, with the all-done barrier
        # either folded into the last one or adding a final entry
        n = rep.bsp_native.num_supersteps
        assert n <= len(rep.timings) <= n + 1

    def test_timings_monotone(self):
        rep = simulate_bsp_on_logp(params(), bsp_prefix_program())
        for t in rep.timings:
            assert t.local_end <= t.sync_end <= t.route_end

    def test_sync_time_within_cb_budget(self):
        from repro.models.cost import cb_time_upper

        rep = simulate_bsp_on_logp(params(), bsp_prefix_program())
        budget = 2.5 * cb_time_upper(params())
        for t in rep.timings:
            assert t.t_sync <= budget


class TestSlowdown:
    def test_offline_slowdown_close_to_S(self):
        """The Hall baseline's slowdown should be near the paper's S
        (it has no sorting overhead)."""
        rep = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing="offline")
        assert rep.slowdown <= 3.0 * rep.predicted_slowdown

    def test_deterministic_more_expensive_than_offline(self):
        """The paper's practical caveat about the on-line protocol."""
        det = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing="deterministic")
        off = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing="offline")
        assert det.total_logp_time > off.total_logp_time

    def test_randomized_between(self):
        rnd = simulate_bsp_on_logp(
            params(), bsp_prefix_program(), routing="randomized", seed=3
        )
        det = simulate_bsp_on_logp(params(), bsp_prefix_program(), routing="deterministic")
        assert rnd.total_logp_time < det.total_logp_time

    def test_zero_cost_degenerate(self):
        def instant(ctx):
            return "done"
            yield  # pragma: no cover

        rep = simulate_bsp_on_logp(params(), instant)
        assert rep.slowdown == 1.0  # bsp_cost == 0 guard
        assert rep.results == ["done"] * 8


class TestRandomizedKnobs:
    def test_paper_constants_mode(self):
        rep = simulate_bsp_on_logp(
            params(), bsp_prefix_program(), routing="randomized", R_factor=None, c1=2.0, c2=1.0
        )
        assert rep.outputs_match

    def test_small_R_factor_may_stall_but_stays_correct(self):
        rep = simulate_bsp_on_logp(
            params(), bsp_radix_sort_program(keys_per_proc=4, key_bits=4, seed=9),
            routing="randomized",
            seed=1,
            R_factor=0.5,
        )
        flat = [k for block in rep.results for k in block]
        assert flat == sorted(flat)
