"""Engine core helpers, the shared result vocabulary, and the
layer-labelled diagnostics."""

import pytest

from repro.bsp.machine import BSPMachine
from repro.bsp.program import Send, Sync
from repro.engine import (
    Engine,
    MachineResult,
    TraceEvent,
    coerce_programs,
    counters_for,
)
from repro.errors import DeadlockError, ProgramError, SimulationLimitError
from repro.logp import Recv
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
    """``Engine.run``: per-event dispatch in ``(time, kind, seq)`` order,
    the ``max_events`` guard, and the quiescence release."""

    def _engine(self, kernel="event", **kwargs):
        kwargs.setdefault("max_events", 1000)
        engine = Engine(kernel=kernel, p=4, layer="test", **kwargs)
        engine.push(3, 1, 0, "x")
        engine.push(3, 0, 1, "y")
        engine.push(7, 0, 2, "z")
        return engine

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dispatch_in_pop_order(self, kernel):
        engine = self._engine(kernel)
        seen = []
        engine.run(lambda t, k, pid, data: seen.append((t, k, pid, data)))
        assert seen == [(3, 0, 1, "y"), (3, 1, 0, "x"), (7, 0, 2, "z")]
        assert engine.last_time == 7
        assert engine.counters.events == 3

    def test_max_events_guard(self):
        engine = self._engine(max_events=2)
        with pytest.raises(SimulationLimitError, match=r"\[test\] .*max_events"):
            engine.run(lambda *event: None)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_max_events_boundary(self, kernel):
        """Exactly ``max_events`` events complete; one more raises
        before it is dispatched."""
        seen = []
        engine = self._engine(kernel, max_events=3)
        engine.run(lambda *event: seen.append(event[3]))
        assert seen == ["y", "x", "z"]

        seen.clear()
        engine = self._engine(kernel, max_events=2)
        with pytest.raises(SimulationLimitError, match=r"\[test\] exceeded max_events=2"):
            engine.run(lambda *event: seen.append(event[3]))
        assert seen == ["y", "x"]

    def test_quiescence_release_reenters_the_loop(self):
        engine = self._engine()
        seen = []
        released = []

        def on_quiescence(last_time):
            if released:
                return False
            released.append(last_time)
            engine.push(last_time + 4, 0, 1, "released")
            return True

        engine.run(lambda *event: seen.append(event[3]), on_quiescence=on_quiescence)
        assert released == [7]
        assert seen == ["y", "x", "z", "released"]
        assert engine.last_time == 11
