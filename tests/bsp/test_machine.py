import pytest

from repro.bsp import BSPMachine, Compute, Send, Sync
from repro.errors import ProgramError, SimulationLimitError
from repro.models.params import BSPParams


def run(params, prog):
    return BSPMachine(params).run(prog)


class TestSuperstepSemantics:
    def test_message_visible_next_superstep_only(self):
        """A message sent in superstep k is readable in superstep k+1."""

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "x")
                assert not ctx.inbox  # nothing delivered yet
            yield Sync()
            if ctx.pid == 1:
                assert [m.payload for m in ctx.inbox] == ["x"]
                return "got"
            return None

        out = run(BSPParams(p=2, g=1, l=1), prog)
        assert out.results == [None, "got"]

    def test_input_pool_discarded_at_boundary(self):
        """Paper §2.1: unread input-pool contents are discarded when the
        next communication phase delivers."""

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "first")
            yield Sync()
            # processor 1 deliberately does NOT read its inbox here
            if ctx.pid == 0:
                yield Send(1, "second")
            yield Sync()
            if ctx.pid == 1:
                return [m.payload for m in ctx.inbox]
            return None

        out = run(BSPParams(p=2, g=1, l=1), prog)
        assert out.results[1] == ["second"]  # "first" was discarded

    def test_cost_ledger_single_superstep(self):
        def prog(ctx):
            yield Compute(3)
            if ctx.pid == 0:
                yield Send(1, None)
                yield Send(1, None)
            yield Sync()

        out = run(BSPParams(p=2, g=5, l=7), prog)
        rec = out.ledger[0]
        assert rec.w == 3
        assert rec.h_send == 2 and rec.h_recv == 2 and rec.h == 2
        assert rec.cost == 3 + 5 * 2 + 7

    def test_h_is_max_of_send_and_recv_degree(self):
        """h = max over processors of max(#sent, #received) (eq. (1))."""

        def prog(ctx):
            # everyone sends one message to processor 0: send degree 1,
            # receive degree p-1.
            if ctx.pid != 0:
                yield Send(0, ctx.pid)
            yield Sync()

        out = run(BSPParams(p=5, g=1, l=0), prog)
        assert out.ledger[0].h == 4

    def test_total_cost_sums_supersteps(self):
        def prog(ctx):
            yield Compute(1)
            yield Sync()
            yield Compute(2)
            yield Sync()

        out = run(BSPParams(p=2, g=1, l=10), prog)
        assert out.num_supersteps == 2
        assert out.total_cost == (1 + 10) + (2 + 10)

    def test_heterogeneous_programs(self):
        def sender(ctx):
            yield Send(1, 42)
            yield Sync()

        def receiver(ctx):
            yield Sync()
            return ctx.inbox[0].payload

        out = BSPMachine(BSPParams(p=2, g=1, l=1)).run([sender, receiver])
        assert out.results == [None, 42]

    def test_early_finisher_keeps_receiving_counted(self):
        """Messages to a finished processor still count toward h."""

        def prog(ctx):
            if ctx.pid == 1:
                return "done early"
            yield Sync()
            yield Send(1, "late")
            yield Sync()

        out = run(BSPParams(p=2, g=3, l=1), prog)
        assert out.results[1] == "done early"
        assert any(rec.h_recv == 1 for rec in out.ledger)

    def test_empty_program_zero_cost(self):
        def prog(ctx):
            return None
            yield  # pragma: no cover

        out = run(BSPParams(p=3, g=1, l=5), prog)
        assert out.total_cost == 0
        assert out.num_supersteps == 0


class TestValidation:
    def test_invalid_destination(self):
        def prog(ctx):
            yield Send(99, None)
            yield Sync()

        with pytest.raises(ProgramError, match="invalid destination"):
            run(BSPParams(p=2, g=1, l=1), prog)

    def test_non_generator_program(self):
        with pytest.raises(ProgramError, match="not a generator"):
            run(BSPParams(p=1, g=1, l=1), lambda ctx: 42)

    def test_bad_instruction(self):
        def prog(ctx):
            yield "not an instruction"

        with pytest.raises(ProgramError, match="not a BSP instruction"):
            run(BSPParams(p=1, g=1, l=1), prog)

    def test_instruction_subclass_rejected(self):
        """Instructions are matched by exact type: a subclass of one is
        not an instruction."""

        class Tagged(Send):
            pass

        def prog(ctx):
            yield Tagged((ctx.pid + 1) % ctx.p, "x")
            yield Sync()

        with pytest.raises(ProgramError, match="not a BSP instruction"):
            run(BSPParams(p=2, g=1, l=1), prog)

    def test_wrong_program_count(self):
        def prog(ctx):
            yield Sync()

        with pytest.raises(ProgramError, match="exactly p=3"):
            BSPMachine(BSPParams(p=3, g=1, l=1)).run([prog, prog])

    def test_max_supersteps_guard(self):
        def forever(ctx):
            while True:
                yield Sync()

        machine = BSPMachine(BSPParams(p=1, g=1, l=1), max_supersteps=10)
        with pytest.raises(SimulationLimitError):
            machine.run(forever)

    def test_negative_compute_rejected(self):
        with pytest.raises(ProgramError):
            Compute(-1)


class TestContextHelpers:
    def test_recv_all_tag_filtering(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "a", tag=1)
                yield Send(1, "b", tag=2)
                yield Send(1, "c", tag=1)
            yield Sync()
            if ctx.pid == 1:
                ones = sorted(m.payload for m in ctx.recv_all(tag=1))
                rest = [m.payload for m in ctx.recv_all()]
                return (ones, rest)
            return None

        out = run(BSPParams(p=2, g=1, l=1), prog)
        ones, rest = out.results[1]
        assert ones == ["a", "c"]
        assert rest == ["b"]

    def test_message_log_records_issue_order(self):
        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, None)
                yield Send(1, None)
            yield Sync()

        machine = BSPMachine(BSPParams(p=2, g=1, l=1), record_messages=True)
        out = machine.run(prog)
        assert out.message_log[0] == [(0, 1), (0, 1)]
