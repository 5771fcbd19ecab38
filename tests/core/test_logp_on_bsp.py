"""Theorem 1: the LogP-on-BSP cycle simulation."""

import pytest

from repro.core.logp_on_bsp import simulate_logp_on_bsp, window_length
from repro.logp import Compute, Recv, Send, TryRecv, WaitUntil
from repro.models.params import BSPParams, LogPParams
from repro.programs import (
    logp_alltoall_program,
    logp_broadcast_program,
    logp_ring_program,
    logp_sum_program,
)

from tests.conftest import LOGP_GRID, logp_grid_ids

KERNELS = {
    "ring": logp_ring_program,
    "broadcast": logp_broadcast_program,
    "sum": logp_sum_program,
    "alltoall": logp_alltoall_program,
}


class TestWindow:
    def test_window_is_half_L(self):
        assert window_length(LogPParams(p=2, L=8, o=1, G=2)) == 4
        assert window_length(LogPParams(p=2, L=9, o=1, G=2)) == 4  # floor for odd L
        assert window_length(LogPParams(p=2, L=2, o=1, G=2)) == 1


@pytest.mark.parametrize("params", LOGP_GRID, ids=logp_grid_ids())
@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestOutputEquivalence:
    def test_simulated_results_equal_native(self, params, kernel):
        rep = simulate_logp_on_bsp(params, KERNELS[kernel]())
        assert rep.outputs_match, (
            f"{kernel}: native {rep.native.results} != simulated {rep.bsp.results}"
        )


class TestCapacityBound:
    @pytest.mark.parametrize("params", LOGP_GRID, ids=logp_grid_ids())
    def test_stall_free_program_windows_within_capacity(self, params):
        """The Theorem 1 argument: per cycle, at most ceil(L/G) messages
        per destination (else the program could stall)."""
        rep = simulate_logp_on_bsp(params, logp_alltoall_program())
        assert rep.max_window_h <= params.capacity


class TestSlowdown:
    def test_matched_machine_constant_slowdown(self):
        params = LogPParams(p=8, L=8, o=1, G=2)
        rep = simulate_logp_on_bsp(params, logp_ring_program())
        assert rep.slowdown <= rep.predicted_slowdown

    def test_slowdown_tracks_g_and_l(self):
        params = LogPParams(p=8, L=8, o=1, G=2)
        base = simulate_logp_on_bsp(params, logp_sum_program()).slowdown
        big_g = simulate_logp_on_bsp(
            params, logp_sum_program(), bsp_params=BSPParams(p=8, g=16, l=8)
        ).slowdown
        big_l = simulate_logp_on_bsp(
            params, logp_sum_program(), bsp_params=BSPParams(p=8, g=2, l=64)
        ).slowdown
        assert big_g > base and big_l > base

    def test_prediction_is_upper_envelope_across_grid(self):
        for g_mult, l_mult in [(1, 1), (2, 1), (1, 2), (4, 4)]:
            params = LogPParams(p=8, L=8, o=1, G=2)
            bsp = BSPParams(p=8, g=2 * g_mult, l=8 * l_mult)
            rep = simulate_logp_on_bsp(params, logp_alltoall_program(), bsp_params=bsp)
            assert rep.slowdown <= rep.predicted_slowdown * 1.05


class TestInstructionCoverage:
    def test_tryrecv_and_waituntil_survive_simulation(self):
        params = LogPParams(p=2, L=8, o=1, G=2)

        def prog(ctx):
            if ctx.pid == 0:
                yield WaitUntil(7)
                yield Send(1, "x")
                return "sender"
            polls = 0
            while True:
                msg = yield TryRecv()
                if msg is not None:
                    return (msg.payload, polls > 0)
                polls += 1

        rep = simulate_logp_on_bsp(params, prog)
        assert rep.outputs_match
        assert rep.bsp.results[1][0] == "x"

    def test_compute_heavy_program(self):
        params = LogPParams(p=2, L=8, o=1, G=2)

        def prog(ctx):
            yield Compute(100)
            if ctx.pid == 0:
                yield Send(1, ctx.clock)
            else:
                msg = yield Recv()
                return msg.payload
            return None

        rep = simulate_logp_on_bsp(params, prog)
        assert rep.outputs_match
        assert rep.windows >= 100 // window_length(params)

    def test_send_crossing_window_boundary_lands_next_superstep(self):
        """A submission whose overhead crosses the cycle boundary must be
        transferred in the later superstep — timing stays faithful."""
        params = LogPParams(p=2, L=8, o=1, G=2)  # window 4

        def prog(ctx):
            if ctx.pid == 0:
                yield Compute(3)  # submission at 3 + o = 4 -> window 1
                t_acc = yield Send(1, "edge")
                return t_acc
            msg = yield Recv()
            return msg.payload

        rep = simulate_logp_on_bsp(params, prog)
        assert rep.bsp.results == [4, "edge"]
        assert rep.outputs_match

    def test_instruction_subclass_rejected(self):
        """The cycle interpreter matches instructions by exact type."""
        from repro.errors import ProgramError

        class Tagged(Send):
            pass

        def prog(ctx):
            if ctx.pid == 0:
                yield Tagged(1, None)
            else:
                yield Recv()

        params = LogPParams(p=2, L=8, o=1, G=2)
        with pytest.raises(ProgramError, match="not a LogP instruction"):
            simulate_logp_on_bsp(params, prog, compare_native=False)

    def test_mismatched_p_rejected(self):
        from repro.errors import ProgramError

        params = LogPParams(p=4, L=8, o=1, G=2)
        with pytest.raises(ProgramError):
            simulate_logp_on_bsp(
                params, logp_ring_program(), bsp_params=BSPParams(p=8, g=2, l=8)
            )
