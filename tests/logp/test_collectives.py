import operator

import pytest

from repro.logp import LogPMachine, Recv, Send
from repro.logp.collectives import (
    binary_tree_reduce,
    binomial_broadcast,
    kary_tree_children,
    kary_tree_parent,
    recv_n_tagged,
    recv_tag,
)
from repro.logp.instructions import LogPContext
from repro.models.message import Message
from repro.models.params import LogPParams

from tests.conftest import LOGP_GRID, logp_grid_ids


class TestTreeShape:
    def test_parent_child_consistency(self):
        for k in (2, 3, 4):
            for p in (1, 2, 7, 16):
                for rank in range(p):
                    for c in kary_tree_children(rank, k, p):
                        assert kary_tree_parent(c, k) == rank

    def test_every_nonroot_has_parent_in_range(self):
        for k in (2, 5):
            for rank in range(1, 50):
                parent = kary_tree_parent(rank, k)
                assert 0 <= parent < rank

    def test_root_has_no_parent(self):
        assert kary_tree_parent(0, 3) is None


class TestRecvTag:
    def test_out_of_order_tags_are_stashed(self):
        """Processor 1 receives tag-2 traffic before tag-1 traffic but
        asks for tag 1 first; the stash must keep both available."""
        params = LogPParams(p=2, L=8, o=1, G=2)

        def prog(ctx):
            if ctx.pid == 0:
                yield Send(1, "early", tag=2)
                yield Send(1, "late", tag=1)
            else:
                first = yield from recv_tag(ctx, 1)
                second = yield from recv_tag(ctx, 2)
                return (first.payload, second.payload)

        res = LogPMachine(params).run(prog)
        assert res.results[1] == ("late", "early")

    def test_recv_n_tagged_counts(self):
        params = LogPParams(p=3, L=8, o=1, G=2)

        def prog(ctx):
            if ctx.pid == 0:
                msgs = yield from recv_n_tagged(ctx, 9, 4)
                return sorted(m.payload for m in msgs)
            for i in range(2):
                yield Send(0, (ctx.pid, i), tag=9)
            return None

        res = LogPMachine(params).run(prog)
        assert res.results[0] == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_recv_n_tagged_is_n_recv_tags(self):
        """Stashed matches first, in stash order, then fresh
        acquisitions with mismatches stashed: the same messages, stash
        and number of ``Recv`` instructions as ``n`` calls of
        ``recv_tag``."""

        def reference(ctx, tag, n):
            out = []
            for _ in range(n):
                out.append((yield from recv_tag(ctx, tag)))
            return out

        def drive(helper):
            params = LogPParams(p=2, L=8, o=1, G=2)
            ctx = LogPContext(0, 2, params)
            msgs = [Message(1, 0, name, tag) for name, tag in (
                ("a", 5), ("b", 9), ("c", 5), ("d", 7), ("e", 5), ("f", 5))]
            ctx._stash.extend(msgs[:3])
            arrivals = iter(msgs[3:])
            gen = helper(ctx, 5, 4)
            recvs = 0
            try:
                instr = next(gen)
                while True:
                    assert type(instr) is Recv
                    recvs += 1
                    instr = gen.send(next(arrivals))
            except StopIteration as stop:
                got = stop.value
            return [m.payload for m in got], [m.payload for m in ctx._stash], recvs

        assert drive(recv_n_tagged) == drive(reference) == (
            ["a", "c", "e", "f"], ["b", "d"], 3)


@pytest.mark.parametrize("params", LOGP_GRID, ids=logp_grid_ids())
class TestBroadcastReduce:
    def test_broadcast_reaches_everyone_stall_free(self, params):
        def prog(ctx):
            v = yield from binomial_broadcast(ctx, "B" if ctx.pid == 0 else None)
            return v

        res = LogPMachine(params, forbid_stalling=True).run(prog)
        assert res.results == ["B"] * params.p

    def test_broadcast_nonzero_root(self, params):
        root = params.p - 1

        def prog(ctx):
            v = yield from binomial_broadcast(
                ctx, ctx.pid if ctx.pid == root else None, root=root
            )
            return v

        res = LogPMachine(params).run(prog)
        assert res.results == [root] * params.p

    def test_reduce_sum(self, params):
        def prog(ctx):
            v = yield from binary_tree_reduce(ctx, ctx.pid + 1, operator.add)
            return v

        res = LogPMachine(params).run(prog)
        assert res.results[0] == params.p * (params.p + 1) // 2

    def test_reduce_non_commutative(self, params):
        def prog(ctx):
            v = yield from binary_tree_reduce(ctx, str(ctx.pid), operator.add)
            return v

        res = LogPMachine(params).run(prog)
        got = res.results[0]
        assert sorted(got) == sorted("".join(map(str, range(params.p))))
        # combine order is rank order: "0" comes first
        assert got.startswith("0")


class TestBroadcastTiming:
    def test_broadcast_time_logarithmic(self):
        """Doubling p adds O(L + o + G log ...) — specifically, time
        grows by ~(L + 2o) per doubling, not linearly."""

        def prog(ctx):
            v = yield from binomial_broadcast(ctx, 1 if ctx.pid == 0 else None)
            return v

        times = {}
        for p in (4, 16, 64):
            params = LogPParams(p=p, L=8, o=1, G=2)
            times[p] = LogPMachine(params).run(prog).makespan
        # log growth: each 4x in p adds roughly 2 levels
        assert times[16] - times[4] <= 4 * (8 + 2 * 1 + 2)
        assert times[64] - times[16] <= 4 * (8 + 2 * 1 + 2)
        assert times[64] < 64  # vastly below the linear bound p * L
