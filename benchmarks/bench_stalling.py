"""Experiment ST — the stalling analyses of Sections 2.2 and 3.

The ``ST`` builder's two tables: the hot-spot drain rate (stalling keeps
the destination at full bandwidth) and the adversarial convoy vs the
``O(G h^2)`` worst case.  This bench adds the BSP simulation of
*stalling* cycles via sorting (the end-of-§3 technique), whose
per-cycle cost exhibits the ``O(((l+g)/G) log p)`` flavour (log^2 with
our Batcher network), and Section 2.2's buffer anomaly.
"""

from repro.core.stalling import (
    measure_hotspot,
    measure_stall_storm,
    simulate_stalling_cycle_on_bsp,
)
from repro.models.params import BSPParams, LogPParams
from repro.routing.workloads import random_destinations
from repro.util.tables import render_table

EXPERIMENT = "ST"


def test_hotspot_report(paper_tables, publish, benchmark):
    table = paper_tables["stalling_hotspot"]
    params = LogPParams(**table.records[0]["params"])
    benchmark.pedantic(lambda: measure_hotspot(params, 16), rounds=1, iterations=1)
    for rec in table.records:
        assert rec["makespan"] <= rec["predicted"] + params.G, rec
    publish(table.name, table.render())


def test_storm_report(paper_tables, publish, benchmark):
    table = paper_tables["stalling_storm"]
    params = LogPParams(**table.records[0]["params"])
    benchmark.pedantic(lambda: measure_stall_storm(params, 8), rounds=1, iterations=1)
    for rec in table.records:
        assert rec["makespan"] <= rec["bound"], rec
    publish(table.name, table.render())


def test_stalling_cycle_on_bsp_report(publish, benchmark):
    logp = LogPParams(p=8, L=8, o=1, G=2)
    bsp = BSPParams(p=8, g=2, l=8)
    pairs = random_destinations(8, 6, seed=7)
    benchmark.pedantic(
        lambda: simulate_stalling_cycle_on_bsp(bsp, logp, pairs), rounds=1, iterations=1
    )
    rows = []
    for p in (4, 8, 16):
        lp = LogPParams(p=p, L=8, o=1, G=2)
        bp = BSPParams(p=p, g=2, l=8)
        prs = random_destinations(p, 6, seed=p)
        res = simulate_stalling_cycle_on_bsp(bp, lp, prs)
        cycle = lp.L // 2
        rows.append((p, res.num_supersteps, res.total_cost, f"{res.total_cost / cycle:.1f}"))
    publish(
        "stalling_cycle_on_bsp",
        render_table(
            ["p", "BSP supersteps", "BSP cost", "slowdown vs L/2 cycle"],
            rows,
            title=(
                "Simulating a *stalling* LogP cycle on BSP via sorting "
                "(end of Section 3; growth ~ polylog p, not poly p)"
            ),
        ),
    )


def test_stalling_program_on_bsp_naive_vs_sorted(publish):
    """End of §3: simulating *stalling* LogP programs on BSP.

    The naive Theorem-1 window simulation still executes a stalling
    program (BSP routes any h-relation), but its per-cycle h blows past
    ceil(L/G) and the superstep cost with it; the sorting/prefix
    technique decomposes each over-capacity cycle into
    ceil(h/ceil(L/G)) capacity-bounded sub-supersteps at polylog cost."""
    from repro.core.logp_on_bsp import simulate_logp_on_bsp
    from repro.core.stalling import simulate_stalling_cycle_on_bsp
    from repro.logp import Recv, Send as LSend
    from repro.logp.collectives import recv_n_tagged

    logp = LogPParams(p=16, L=8, o=1, G=2)  # capacity 4
    k = 12  # hot-spot fan-in > capacity: a stalling program

    def hot_prog(ctx):
        if ctx.pid == 0:
            msgs = yield from recv_n_tagged(ctx, 5, k)
            return len(msgs)
        if ctx.pid <= k:
            yield LSend(0, ctx.pid, tag=5)
        return None

    naive = simulate_logp_on_bsp(logp, hot_prog, compare_native=False)
    assert naive.bsp.results[0] == k  # delivered despite "stalling"
    assert naive.max_window_h > logp.capacity

    pairs = [(s, 0) for s in range(1, k + 1)]
    sorted_cycle = simulate_stalling_cycle_on_bsp(
        BSPParams(p=16, g=logp.G, l=logp.L), logp, pairs
    )
    publish(
        "stalling_program_on_bsp",
        render_table(
            ["approach", "window h vs ceil(L/G)", "BSP cost", "note"],
            [
                (
                    "naive Theorem-1 windows",
                    f"{naive.max_window_h} > {logp.capacity}",
                    naive.bsp.total_cost,
                    "one big superstep per cycle",
                ),
                (
                    "sorted decomposition",
                    f"<= {logp.capacity} per sub-superstep",
                    sorted_cycle.total_cost,
                    f"{sorted_cycle.num_supersteps} supersteps (sort + ceil(h/C) cycles)",
                ),
            ],
            title=(
                f"Simulating a stalling LogP program on BSP "
                f"(hot spot k={k}, p={logp.p}, L={logp.L}, G={logp.G})"
            ),
        ),
    )
    tail = sorted_cycle.ledger[-3:]
    assert all(rec.h_recv <= logp.capacity for rec in tail)


def test_buffer_growth_anomaly(publish):
    """Section 2.2's G > L buffer argument, as numbers."""
    from repro.logp import DeliverEager, LogPMachine, Recv, Send, WaitUntil

    rows = []
    for shots in (8, 16, 32):
        params = LogPParams(p=3, L=3, o=1, G=8, unchecked=True)

        def prog(ctx):
            if ctx.pid in (0, 1):
                for k in range(shots):
                    yield WaitUntil(max(8, 6) * k + 3 * ctx.pid)
                    yield Send(2, k)
            else:
                for _ in range(2 * shots):
                    yield Recv()

        res = LogPMachine(params, delivery=DeliverEager()).run(prog)
        rows.append((shots * 2, res.buffer_highwater[2]))
    publish(
        "buffer_growth",
        render_table(
            ["messages", "receiver buffer high-water"],
            rows,
            title="G > L anomaly: unbounded input buffers (G=8, L=3)",
        ),
    )
    # growth is linear in the message count
    assert rows[2][1] >= rows[0][1] + (rows[2][0] - rows[0][0]) // 3
