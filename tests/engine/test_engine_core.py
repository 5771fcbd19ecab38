"""Engine core helpers, the shared result vocabulary, and the
layer-labelled diagnostics."""

import pytest

from repro.bsp.machine import BSPMachine
from repro.bsp.program import Send, Sync
from repro.engine import (
    MachineResult,
    TraceEvent,
    coerce_programs,
    counters_for,
)
from repro.errors import DeadlockError, ProgramError, SimulationLimitError
from repro.logp import Recv, TryRecv, WaitUntil
from repro.logp.instructions import Compute, Linger
from repro.logp.instructions import Send as LSend
from repro.logp.machine import LogPMachine
from repro.models.params import BSPParams, LogPParams
from repro.perf import KERNELS
from repro.programs import bsp_prefix_program, logp_sum_program

PARAMS = LogPParams(p=4, L=8, o=2, G=2)


class TestCountersFor:
    def test_known_kernels(self):
        for kernel in ("event", "tick", "superstep"):
            assert counters_for(kernel).kernel == kernel

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            counters_for("quantum")


class TestCoercePrograms:
    def test_callable_replicates(self):
        def prog(ctx):
            return None

        assert coerce_programs(prog, 3) == [prog, prog, prog]

    def test_wrong_length_rejected(self):
        def prog(ctx):
            return None

        with pytest.raises(ProgramError, match="exactly p=4"):
            coerce_programs([prog] * 3, 4)


class TestResultVocabulary:
    def test_logp_trace_events(self):
        res = LogPMachine(PARAMS, record_trace=True).run(logp_sum_program())
        events = res.trace_events()
        kinds = {e.kind for e in events}
        assert kinds <= {"submit", "deliver", "acquire"}
        assert "submit" in kinds and "deliver" in kinds
        assert all(isinstance(e, TraceEvent) for e in events)
        assert [e.time for e in events] == sorted(e.time for e in events)

    def test_bsp_trace_events(self):
        res = BSPMachine(BSPParams(p=4, g=2, l=8)).run(bsp_prefix_program())
        events = res.trace_events()
        assert all(e.kind == "superstep" and e.pid == -1 for e in events)
        assert events[-1].time == res.total_cost

    def test_as_row_includes_kernel_counters(self):
        res = LogPMachine(PARAMS).run(logp_sum_program())
        row = res.as_row()
        assert row["makespan"] == res.makespan
        assert row["kernel"]["kernel"] == "event"
        assert isinstance(res, MachineResult)

    def test_base_result_is_empty(self):
        base = MachineResult()
        assert base.as_row() == {}
        assert base.trace_events() == []


class TestLayerLabelledErrors:
    def test_logp_deadlock_names_layer(self):
        def prog(ctx):
            yield Recv()  # nobody ever sends

        with pytest.raises(DeadlockError, match=r"\[LogP\]"):
            LogPMachine(PARAMS).run(prog)

    def test_custom_layer_label_propagates(self):
        def prog(ctx):
            yield Recv()

        with pytest.raises(DeadlockError, match=r"\[guest LogP on host net\]"):
            LogPMachine(PARAMS, layer="guest LogP on host net").run(prog)

    def test_bsp_superstep_limit_names_layer(self):
        def prog(ctx):
            while True:
                yield Send((ctx.pid + 1) % ctx.p, "spin")
                yield Sync()

        with pytest.raises(SimulationLimitError, match=r"\[BSP\]"):
            BSPMachine(BSPParams(p=2, g=1, l=1), max_supersteps=8).run(prog)

    def test_logp_event_limit_names_layer(self):
        with pytest.raises(SimulationLimitError, match=r"\[LogP\] .*max_events"):
            LogPMachine(PARAMS, max_events=3).run(logp_sum_program())


class TestDriveLoop:
    """``LogPMachine``'s drive loop: each timestamp's batch walked in
    ``(kind, seq)`` order, the ``max_events`` guard, and the quiescence
    release."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dispatch_in_pop_order(self, kernel):
        """With o = 0 every Send submits at its own resume's time, so the
        submit lands inside the batch being walked, right after that
        resume; deliveries at a time come before the resumes they wake."""
        params = LogPParams(p=3, L=4, o=0, G=2)  # capacity 2

        def prog(ctx):
            if ctx.pid < 2:
                yield LSend(2, "ab"[ctx.pid])
                return None
            first = yield Recv()
            second = yield Recv()
            return [first.payload, second.payload]

        res = LogPMachine(params, record_trace=True, kernel=kernel).run(prog)
        # Both accepted at 0; the second proposal (4) collides and moves
        # down to 3, so "b" arrives first.
        assert res.results == [None, None, ["b", "a"]]
        assert res.makespan == 5
        assert res.trace.submissions == [
            (0, 0, res.trace.submissions[0][2]),
            (0, 1, res.trace.submissions[1][2]),
        ]
        assert [(t, d) for t, d, _uid in res.trace.deliveries] == [(3, 2), (4, 2)]
        # t=0: 3 resumes, 2 submits, 2 post-send resumes; then two
        # deliveries and two post-acquire resumes (the second acquire
        # waits out the gap to t=5).
        assert res.kernel.events == 11
        if kernel == "event":
            # The resume pushed at t=3 by the batch's last entry (a
            # zero-cost acquire) opens t=3 again as a batch of its own.
            assert res.kernel.batches == 5

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_delivery_precedes_resume_at_one_time(self, kernel):
        """A poll deferred to the delivery's own time sees the message."""
        params = LogPParams(p=2, L=4, o=1, G=2)

        def prog(ctx):
            if ctx.pid == 0:
                yield LSend(1, "x")
                return None
            yield WaitUntil(1 + 4)  # submit at o = 1, delivered at 1 + L
            msg = yield TryRecv()
            return None if msg is None else msg.payload

        res = LogPMachine(params, kernel=kernel).run(prog)
        assert res.results == [None, "x"]

    @staticmethod
    def _poller(seen, polls=5):
        """Every event is a resume: each failed poll costs one step and
        comes back as the next event."""

        def prog(ctx):
            for _ in range(polls):
                seen.append((ctx.pid, ctx.clock))
                yield TryRecv()
            return None

        return prog

    def test_max_events_guard(self):
        seen = []
        with pytest.raises(SimulationLimitError, match=r"\[test\] .*max_events"):
            LogPMachine(PARAMS, max_events=2, layer="test").run(self._poller(seen))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_max_events_boundary(self, kernel):
        """Exactly ``max_events`` events complete; one more raises
        before it is handled."""
        params = LogPParams(p=2, L=8, o=2, G=2)
        seen = []
        res = LogPMachine(params, kernel=kernel).run(self._poller(seen))
        total = res.kernel.events
        assert len(seen) == 10 and total == 12  # 5 polls + the final resume, x2

        seen = []
        LogPMachine(params, kernel=kernel, max_events=total).run(self._poller(seen))
        assert len(seen) == 10

        seen = []
        machine = LogPMachine(
            params, kernel=kernel, max_events=7, layer="test"
        )
        with pytest.raises(SimulationLimitError, match=r"\[test\] exceeded max_events=7"):
            machine.run(self._poller(seen))
        assert len(seen) == 7

    def test_quiescence_release_reenters_the_loop(self):
        """Once nothing is in flight and nobody can run, a lingering
        processor resumes (with ``None``) at its own, older clock, and the
        loop keeps going."""
        params = LogPParams(p=2, L=8, o=2, G=2)

        def prog(ctx):
            if ctx.pid == 1:
                yield Compute(7)
                return "worker"
            got = yield Linger()
            yield Compute(4)
            return (got, ctx.clock)

        for kernel in KERNELS:
            res = LogPMachine(params, kernel=kernel).run(prog)
            assert res.results == [(None, 4), "worker"]
            assert res.makespan == 7
            assert res.kernel.events == 3  # two starts, one release
