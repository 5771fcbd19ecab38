"""Exact timing semantics of the LogP engine (paper §2.2).

These tests pin the model rules down to the step: overhead ``o`` per
submission/acquisition, gap ``G`` between consecutive submissions and
between consecutive acquisitions, delivery within ``L`` of acceptance.
"""

import pytest

from repro.errors import DeadlockError, ProgramError, SimulationLimitError
from repro.logp import (
    Compute,
    DeliverEager,
    DeliverMaxLatency,
    LogPMachine,
    Recv,
    Send,
    TryRecv,
    WaitUntil,
)
from repro.models.params import LogPParams
from repro.perf import KERNELS


def params(p=2, L=8, o=1, G=2, **kw):
    return LogPParams(p=p, L=L, o=o, G=G, **kw)


class TestSendTiming:
    def test_submission_after_overhead(self):
        """A lone send is submitted (and accepted) at t = o."""

        def prog(ctx):
            if ctx.pid == 0:
                t_acc = yield Send(1, None)
                return t_acc
            yield Recv()
            return None

        res = LogPMachine(params(o=3, G=4)).run(prog)
        assert res.results[0] == 3

    def test_consecutive_submissions_G_apart(self):
        def prog(ctx):
            if ctx.pid == 0:
                times = []
                for _ in range(4):
                    t = yield Send(1, None)
                    times.append(t)
                return times
            for _ in range(4):
                yield Recv()

        res = LogPMachine(params(L=8, o=1, G=3)).run(prog)
        t = res.results[0]
        assert t == [1, 4, 7, 10]  # o, then +G each

    def test_compute_between_sends_uses_gap_time(self):
        """Computation fits into the gap without delaying submissions."""

        def prog(ctx):
            if ctx.pid == 0:
                t1 = yield Send(1, None)
                yield Compute(1)  # fits in the G-o = 2 idle steps
                t2 = yield Send(1, None)
                return (t1, t2)
            yield Recv()
            yield Recv()

        res = LogPMachine(params(L=9, o=1, G=3)).run(prog)
        assert res.results[0] == (1, 4)

    def test_long_compute_delays_submission(self):
        def prog(ctx):
            if ctx.pid == 0:
                t1 = yield Send(1, None)
                yield Compute(10)
                t2 = yield Send(1, None)
                return (t1, t2)
            yield Recv()
            yield Recv()

        res = LogPMachine(params(L=9, o=1, G=3)).run(prog)
        t1, t2 = res.results[0]
        assert t2 == t1 + 10 + 1  # busy 10, then overhead o


class TestDeliveryAndRecv:
    def test_max_latency_delivery_end_to_end(self):
        """With the worst-case scheduler, receive completes at
        o (submit) + L (latency) + o (acquire) — the classic 2o + L."""

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "x")
            else:
                msg = yield Recv()
                return (msg.payload, ctx.clock)

        res = LogPMachine(params(L=8, o=1, G=2), delivery=DeliverMaxLatency()).run(prog)
        payload, clock = res.results[1]
        assert payload == "x"
        assert clock == 1 + 8 + 1

    def test_eager_delivery_is_faster(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "x")
            else:
                yield Recv()
                return ctx.clock

        slow = LogPMachine(params(), delivery=DeliverMaxLatency()).run(prog)
        fast = LogPMachine(params(), delivery=DeliverEager()).run(prog)
        assert fast.results[1] < slow.results[1]

    def test_consecutive_acquisitions_G_apart(self):
        def prog(ctx):
            if ctx.pid == 0:
                for i in range(3):
                    yield Send(1, i)
            else:
                starts = []
                for _ in range(3):
                    yield Recv()
                    starts.append(ctx.clock - ctx.params.o)
                return starts

        res = LogPMachine(params(L=8, o=1, G=3)).run(prog)
        starts = res.results[1]
        assert starts[1] - starts[0] >= 3
        assert starts[2] - starts[1] >= 3

    def test_recv_order_is_delivery_order(self):
        def prog(ctx):
            if ctx.pid == 0:
                for i in range(4):
                    yield Send(1, i)
            else:
                got = []
                for _ in range(4):
                    msg = yield Recv()
                    got.append(msg.payload)
                return got

        res = LogPMachine(params()).run(prog)
        assert res.results[1] == [0, 1, 2, 3]


class TestTryRecvAndWait:
    def test_tryrecv_returns_none_and_costs_one_step(self):
        def prog(ctx):
            if ctx.pid == 1:
                t0 = ctx.clock
                msg = yield TryRecv()
                return (msg, ctx.clock - t0)
            return None
            yield  # pragma: no cover

        res = LogPMachine(params()).run(prog)
        assert res.results[1] == (None, 1)

    def test_tryrecv_acquires_when_available(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "m")
            else:
                yield WaitUntil(50)
                msg = yield TryRecv()
                return msg.payload

        res = LogPMachine(params()).run(prog)
        assert res.results[1] == "m"

    def test_waituntil_absolute(self):
        def prog(ctx):
            yield WaitUntil(33)
            return ctx.clock

        res = LogPMachine(params(p=1)).run(prog)
        assert res.results[0] == 33

    def test_waituntil_past_is_noop(self):
        def prog(ctx):
            yield Compute(10)
            yield WaitUntil(3)
            return ctx.clock

        res = LogPMachine(params(p=1)).run(prog)
        assert res.results[0] == 10


class TestMakespanAndErrors:
    def test_makespan_is_last_completion(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Compute(100)
            return ctx.clock

        res = LogPMachine(params()).run(prog)
        assert res.makespan == 100

    def test_deadlock_detected(self):
        def prog(ctx):
            yield Recv()  # nobody ever sends

        with pytest.raises(DeadlockError):
            LogPMachine(params()).run(prog)

    def test_self_send_rejected(self):
        def prog(ctx):
            yield Send(ctx.pid, None)

        with pytest.raises(ProgramError, match="itself"):
            LogPMachine(params()).run(prog)

    def test_invalid_destination(self):
        def prog(ctx):
            yield Send(5, None)

        with pytest.raises(ProgramError, match="invalid destination"):
            LogPMachine(params()).run(prog)

    def test_bad_instruction(self):
        def prog(ctx):
            yield object()

        with pytest.raises(ProgramError, match="not a"):
            LogPMachine(params()).run(prog)

    def test_instruction_subclass_rejected(self):
        """Instructions are matched by exact type: a subclass of one is
        not an instruction."""

        class Tagged(Send):
            pass

        def prog(ctx):
            if ctx.pid == 0:
                yield Tagged(1, None)

        with pytest.raises(ProgramError, match="not a LogP instruction"):
            LogPMachine(params()).run(prog)

    def test_non_generator(self):
        with pytest.raises(ProgramError, match="not a generator"):
            LogPMachine(params()).run(lambda ctx: None)

    def test_max_events_guard(self):
        def prog(ctx):
            while True:
                yield Compute(1)

        with pytest.raises(SimulationLimitError):
            LogPMachine(params(p=1), max_events=100).run(prog)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_max_events_boundary(self, kernel):
        """One message costs exactly six events: two start resumes, the
        submission, the sender's resume, the delivery and the receiver's
        resume.  A limit of six completes the run; five stops it."""

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "x")
                return None
            msg = yield Recv()
            return msg.payload

        res = LogPMachine(params(), max_events=6, kernel=kernel).run(prog)
        assert res.results == [None, "x"]
        assert res.kernel.events == 6
        with pytest.raises(SimulationLimitError, match=r"\[LogP\] exceeded max_events=5"):
            LogPMachine(params(), max_events=5, kernel=kernel).run(prog)

    def test_message_count(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, None)
                yield Send(1, None)
            else:
                yield Recv()
                yield Recv()

        res = LogPMachine(params()).run(prog)
        assert res.total_messages == 2
