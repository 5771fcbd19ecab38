"""Command-line experiment runner: regenerate the paper's tables.

``python -m repro.experiments list`` shows the experiment ids (matching
DESIGN.md's index) and the built-in campaign names; ``python -m
repro.experiments run <id> [...]`` or ``run all`` prints the id's
tables.  Each id in :data:`EXPERIMENTS` is one builder that sweeps its
tables' grids and returns their records and rendered text; every file
in ``benchmarks/results/*.txt`` is one such table, written by the
pytest benches (``benchmarks/bench_*.py``), which assert on the same
records.
``python -m repro.experiments inspect <chain>`` runs one
:class:`~repro.engine.request.RunRequest` — named by the same flags as
``request`` — through its :class:`~repro.engine.stack.Stack` chain
(``bsp-on-logp-on-network``, ``logp-on-bsp``, ...) and prints its
result row, cost-model residuals, and — with the shared observability
flags — metrics and traces.  ``python -m repro.experiments campaign
<name>`` runs a resumable, cache-backed parameter sweep over a
multiprocessing pool that resumes from its store (``--parallel``,
``--force``, ``--gate``; see :mod:`repro.campaign` and
``docs/CAMPAIGN.md``).

Shared flags (``run`` and ``inspect``):

* ``--json`` — emit one machine-readable JSON document per table
  after it, its rows the table's records (for TH1 the ``request``
  target's records, built on the shared
  :meth:`~repro.engine.result.MachineResult.as_row` projection);
* ``--metrics`` — attach an :class:`~repro.obs.Observation` and print
  its metric registry after the run;
* ``--trace OUT.json`` — additionally record layer-labelled spans and
  write a Chrome ``trace_event`` file loadable in Perfetto
  (``run`` with several ids writes one file per id, the id spliced in
  before the extension).

Input errors — a malformed ``K=V`` item, a request the schema rejects,
an unknown name — end every subcommand the same way: one
``<subcommand>: <message>`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ParameterError, ProgramError, TopologyError
from repro.perf.event_queue import KERNELS
from repro.util.tables import render_table

__all__ = ["main", "EXPERIMENTS", "ExperimentTable"]


@dataclass
class ExperimentTable:
    """One committed table: the pretty table plus its records.

    ``name`` is the table's results file (``benchmarks/results/<name>.txt``
    holds :meth:`render` verbatim); ``rows`` are the display tuples and
    ``records`` one dict per row, carrying every quantity the table's
    bench or tests assert on — for TH1, P1 and TH2 the campaign target's
    record, ``cost_check`` included.  ``extras`` holds pre-rendered
    blocks (a cost-check report) printed after the table.
    """

    name: str
    title: str
    columns: list[str]
    rows: list[tuple]
    records: list[dict]
    extras: list[str] = field(default_factory=list)

    def render(self) -> str:
        out = render_table(self.columns, self.rows, title=self.title)
        for block in self.extras:
            out += "\n\n" + block
        return out


def _logp_dict(params) -> dict:
    return {"p": params.p, "L": params.L, "o": params.o, "G": params.G}


def _table1(obs=None) -> list[ExperimentTable]:
    from dataclasses import asdict

    from repro.models.cost import TABLE1
    from repro.networks.array_nd import ArrayND
    from repro.networks.params import TOPOLOGY_BUILDERS, measure_network_params
    from repro.networks.routing_sim import RoutingConfig

    def fit(topo, config, name):
        return measure_network_params(
            topo, table_name=name, hs=(1, 2, 4, 8), seeds=(0, 1),
            config=config, obs=obs,
        )

    rows, records = [], []
    for name, builder in TOPOLOGY_BUILDERS.items():
        for p in (16, 64):
            meas = fit(*builder(p), name)
            th_g, th_d = meas.theory()
            costs = TABLE1[name]
            rows.append((
                name, meas.p,
                f"{meas.gamma:.2f}", f"{th_g:.1f} ~ {costs.gamma_expr}",
                f"{meas.delta:.2f}", f"{th_d:.1f} ~ {costs.delta_expr}",
                f"{meas.r2:.3f}",
            ))
            records.append(asdict(meas))
    # Table 1's array row at d = 3: gamma = delta = Theta(p^(1/3)).
    d3 = [
        {"side": side, **asdict(fit(
            ArrayND((side,) * 3), RoutingConfig(priority="farthest"), "d-dim array"
        ))}
        for side in (4, 8)
    ]
    return [
        ExperimentTable(
            "table1_network_params",
            "Table 1 reproduction: fitted T(h) = gamma h + delta per topology",
            ["topology", "p", "gamma fit", "gamma Table 1", "delta fit",
             "delta Table 1", "R^2"],
            rows, records,
        ),
        ExperimentTable(
            "table1_d3_array",
            "Table 1, d=3 array: gamma tracks p^(1/3) (x2 per x8 in p)",
            ["p", "gamma fit", "p^(1/3)", "delta fit"],
            [(rec["side"] ** 3, f"{rec['gamma']:.2f}", f"{float(rec['side']):.1f}",
              f"{rec['delta']:.2f}") for rec in d3],
            d3,
        ),
    ]


def _theorem1(obs=None) -> list[ExperimentTable]:
    """The ``TH1_TABLE`` request points — LogP kernels on scaled BSP
    hosts — through the ``request`` target, so each record carries its
    cost check; the matched machine's check is printed in full."""
    from repro.campaign import run_point
    from repro.campaign.builtin import TH1_TABLE
    from repro.obs.check import CostCheckReport
    from repro.util.intmath import ceil_div

    rows, records, extras = [], [], []
    for point in TH1_TABLE.points():
        rec = run_point(TH1_TABLE.target, point, obs=obs)
        params = point["params"]
        check = CostCheckReport.from_dict(rec["cost_check"])
        rows.append((
            point["program"], f"g={params['g']}", f"l={params['l']}",
            rec["windows"], rec["max_window_h"],
            ceil_div(params["L"], params["G"]),
            f"{rec['slowdown']:.2f}", f"{rec['predicted_slowdown']:.2f}",
            check.ok(),
        ))
        records.append(rec)
        if not extras:  # the first point runs on the matched machine
            extras.append(check.render())
    p, guest = point["p"], point["params"]  # every point has the same guest
    return [ExperimentTable(
        "theorem1_logp_on_bsp",
        f"Theorem 1: LogP(p={p}, L={guest['L']}, o={guest['o']}, "
        f"G={guest['G']}) simulated on BSP",
        ["kernel", "BSP g", "BSP l", "cycles", "max h", "ceil(L/G)",
         "slowdown", "O(1+g/G+l/L)", "residuals ok"],
        rows, records, extras,
    )]


def _cb(obs=None) -> list[ExperimentTable]:
    from repro.campaign import run_point

    rows, records = [], []
    for p in (8, 32, 128, 512):
        for L, G in ((8, 8), (8, 4), (8, 2), (16, 2)):  # capacities 1, 2, 4, 8
            rec = run_point("cb", {"p": p, "L": L, "o": 1, "G": G})
            rows.append((
                p, L, G, rec["capacity"], rec["t_cb"],
                f"{rec['lower']:.0f}", f"{rec['upper']:.0f}",
                f"{rec['t_cb'] / rec['upper']:.2f}" if rec["upper"] else "-",
            ))
            records.append(rec)
    return [ExperimentTable(
        "cb_synchronization",
        "Combine-and-Broadcast: measured vs paper bounds (o=1)",
        ["p", "L", "G", "ceil(L/G)", "T_CB meas", "Prop1 lower",
         "3(L+o)logp/log(1+C)", "meas/upper"],
        rows, records,
    )]


def _theorem2(obs=None) -> list[ExperimentTable]:
    from repro.campaign import run_point
    from repro.campaign.builtin import TH2_GRID

    records = [run_point(TH2_GRID.target, point) for point in TH2_GRID.points()]
    rows = [
        (rec["h"], rec["scheme"], rec["total_time"], rec["t_sort"],
         rec["t_cycles"], rec["ideal"], f"{rec['observed_slowdown']:.1f}",
         f"{rec['predicted_slowdown']:.1f}")
        for rec in records
    ]
    base = dict(TH2_GRID.base)
    # The S = O(log p) regime: a fixed small h as p quadruples.
    h = 4
    growth = [
        run_point("theorem2", {"p": p, "L": 8, "o": 1, "G": 2, "h": h, "seed": 1})
        for p in (4, 16, 64)
    ]
    return [
        ExperimentTable(
            "theorem2_det_routing",
            f"Theorem 2: deterministic h-relation routing on LogP (p={base['p']}, "
            f"L={base['L']}, o={base['o']}, G={base['G']}); stall-free",
            ["h", "scheme", "T total", "T sort", "T cycles", "2o+G(h-1)+L",
             "T/(Gh+L)", "paper S"],
            rows, records,
        ),
        ExperimentTable(
            "theorem2_p_growth",
            f"Theorem 2 small-h regime: slowdown growth across p (h={h})",
            ["p", "T total", "T/(Gh+L)", "paper S"],
            [(rec["p"], rec["total_time"], f"{rec['observed_slowdown']:.1f}",
              f"{rec['predicted_slowdown']:.1f}") for rec in growth],
            growth,
        ),
    ]


def _theorem3(obs=None) -> list[ExperimentTable]:
    from repro.core.rand_routing import measure_rand_routing
    from repro.models.params import LogPParams
    from repro.routing.workloads import balanced_h_relation

    # Theorem hypothesis: ceil(L/G) >= c1 log p -> capacity 8 = 2 log2(16).
    params = LogPParams(p=16, L=16, o=1, G=2)
    h, seeds = 16, range(10)
    pairs = balanced_h_relation(params.p, h, seed=123)
    rows, records = [], []
    # R=None last: the paper's own constants (c1 = c2 = 1), one seed.
    for R in (2, 4, 8, 16, None):
        run_seeds = seeds if R else (0,)
        runs = [measure_rand_routing(params, pairs, seed=s, R=R) for s in run_seeds]
        plan_R = runs[0].plan.R
        stalled = sum(r.stalled for r in runs)
        clean = sum(r.clean for r in runs)
        beta = plan_R * params.capacity / h
        rows.append((
            plan_R, f"{beta:.1f}" if R else f"{beta:.0f}",
            f"{stalled}/{len(runs)}", f"{clean}/{len(runs)}",
            max(r.total_time for r in runs),
            2 * (params.L + params.o) * R if R else int(runs[0].time_bound),
            params.G * h,
        ))
        records.append({
            "R": plan_R, "paper_constants": R is None, "h": h,
            "params": _logp_dict(params),
            "runs": [
                {"seed": s, "stalled": r.stalled, "clean": r.clean,
                 "total_time": r.total_time}
                for s, r in zip(run_seeds, runs)
            ],
        })
    return [ExperimentTable(
        "theorem3_rand_routing",
        f"Theorem 3: randomized h-relation routing (p={params.p}, h={h}, "
        f"capacity={params.capacity}, {len(seeds)} seeds; last row = paper's "
        f"c1=c2=1 constants)",
        ["R", "(1+beta)", "stalled", "clean", "T max", "2(L+o)R bound", "G h"],
        rows, records,
    )]


def _stalling(obs=None) -> list[ExperimentTable]:
    """The stalling rule on LogP (hot spot, convoy), stalling LogP
    simulated on BSP (end of Section 3), and Section 2.2's G > L buffer
    anomaly."""
    from repro.core.logp_on_bsp import simulate_logp_on_bsp
    from repro.core.stalling import (
        measure_hotspot,
        measure_stall_storm,
        simulate_stalling_cycle_on_bsp,
    )
    from repro.logp import DeliverEager, LogPMachine, Recv, Send, WaitUntil
    from repro.logp.collectives import recv_n_tagged
    from repro.models.params import BSPParams, LogPParams
    from repro.routing.workloads import random_destinations

    params = LogPParams(p=32, L=8, o=1, G=2)  # capacity 4
    hot = [
        {"k": r.k, "makespan": r.makespan, "predicted": r.predicted,
         "stalls": r.num_stalls, "stall_steps": r.total_stall_time}
        for r in (measure_hotspot(params, k) for k in (2, 4, 8, 16, 31))
    ]
    storm = [
        {"h": r.h, "makespan": r.makespan, "optimal": r.optimal,
         "bound": r.worst_case_bound, "stall_episodes": len(r.result.stalls)}
        for r in (measure_stall_storm(params, h) for h in (2, 4, 8, 16))
    ]
    machine = _logp_dict(params)

    cycles = []
    for p in (4, 8, 16):
        lp = LogPParams(p=p, L=8, o=1, G=2)
        res = simulate_stalling_cycle_on_bsp(
            BSPParams(p=p, g=2, l=8), lp, random_destinations(p, 6, seed=p)
        )
        cycles.append({"p": p, "supersteps": res.num_supersteps,
                       "cost": res.total_cost, "slowdown": res.total_cost / (lp.L // 2)})

    # A hot spot with fan-in k > capacity is a stalling program: the naive
    # Theorem-1 windows still run it, past capacity; the sorted
    # decomposition splits each cycle into capacity-bounded sub-supersteps.
    logp, k = LogPParams(p=16, L=8, o=1, G=2), 12

    def hot_prog(ctx):
        if ctx.pid == 0:
            msgs = yield from recv_n_tagged(ctx, 5, k)
            return len(msgs)
        if ctx.pid <= k:
            yield Send(0, ctx.pid, tag=5)
        return None

    naive = simulate_logp_on_bsp(logp, hot_prog, compare_native=False)
    split = simulate_stalling_cycle_on_bsp(
        BSPParams(p=16, g=logp.G, l=logp.L), logp, [(s, 0) for s in range(1, k + 1)]
    )
    program = {
        "k": k, "params": _logp_dict(logp), "capacity": logp.capacity,
        "naive_delivered": naive.bsp.results[0], "naive_window_h": naive.max_window_h,
        "naive_cost": naive.bsp.total_cost, "sorted_cost": split.total_cost,
        "sorted_supersteps": split.num_supersteps,
        "sorted_tail_h_recv": max(rec.h_recv for rec in split.ledger[-3:]),
    }

    buffers = []
    for shots in (8, 16, 32):
        def prog(ctx):
            if ctx.pid in (0, 1):
                for i in range(shots):
                    yield WaitUntil(8 * i + 3 * ctx.pid)
                    yield Send(2, i)
            else:
                for _ in range(2 * shots):
                    yield Recv()

        res = LogPMachine(
            LogPParams(p=3, L=3, o=1, G=8, unchecked=True), delivery=DeliverEager()
        ).run(prog)
        buffers.append({"messages": 2 * shots, "highwater": res.buffer_highwater[2]})
    return [
        ExperimentTable(
            "stalling_hotspot",
            f"Hot spot under the stalling rule (p={params.p}, L={params.L}, "
            f"o={params.o}, G={params.G})",
            ["senders k", "makespan", "G(k-1)+L+2o", "stalls", "stall steps"],
            [tuple(rec.values()) for rec in hot],
            [{**rec, "params": machine} for rec in hot],
        ),
        ExperimentTable(
            "stalling_storm",
            "Adversarial convoy h-relation (all senders walk the same destinations)",
            ["h", "makespan", "optimal", "O(Gh^2) bound", "stall episodes"],
            [tuple(rec.values()) for rec in storm],
            [{**rec, "params": machine} for rec in storm],
        ),
        ExperimentTable(
            "stalling_cycle_on_bsp",
            "Simulating a *stalling* LogP cycle on BSP via sorting "
            "(end of Section 3; growth ~ polylog p, not poly p)",
            ["p", "BSP supersteps", "BSP cost", "slowdown vs L/2 cycle"],
            [(rec["p"], rec["supersteps"], rec["cost"], f"{rec['slowdown']:.1f}")
             for rec in cycles],
            cycles,
        ),
        ExperimentTable(
            "stalling_program_on_bsp",
            f"Simulating a stalling LogP program on BSP "
            f"(hot spot k={k}, p={logp.p}, L={logp.L}, G={logp.G})",
            ["approach", "window h vs ceil(L/G)", "BSP cost", "note"],
            [("naive Theorem-1 windows", f"{naive.max_window_h} > {logp.capacity}",
              naive.bsp.total_cost, "one big superstep per cycle"),
             ("sorted decomposition", f"<= {logp.capacity} per sub-superstep",
              split.total_cost,
              f"{split.num_supersteps} supersteps (sort + ceil(h/C) cycles)")],
            [program],
        ),
        ExperimentTable(
            "buffer_growth",
            "G > L anomaly: unbounded input buffers (G=8, L=3)",
            ["messages", "receiver buffer high-water"],
            [tuple(rec.values()) for rec in buffers],
            buffers,
        ),
    ]


def _observation1(obs=None) -> list[ExperimentTable]:
    from dataclasses import asdict

    from repro.core.network_support import survey_observation1

    survey = survey_observation1(
        ("d-dim array", "hypercube (multi-port)", "hypercube (single-port)",
         "butterfly", "ccc", "shuffle-exchange", "mesh-of-trees"),
        (16, 64),
    )
    return [ExperimentTable(
        "observation1_direct",
        "Observation 1: best attainable BSP vs LogP parameters per network",
        ["topology", "p", "g*", "l*", "G*", "L*", "G*/g*", "L*/(l*+g*)"],
        [(r.name, r.p, r.g_star, r.l_star, r.G_star, r.L_star,
          f"{r.G_over_g:.2f}", f"{r.L_over_lg:.2f}") for r in survey],
        [{**asdict(r), "G_over_g": r.G_over_g, "L_over_lg": r.L_over_lg}
         for r in survey],
    )]


def _workpreserving(obs=None) -> list[ExperimentTable]:
    from repro.engine import Stack
    from repro.models.params import LogPParams
    from repro.programs import logp_alltoall_program, logp_sum_program

    params = LogPParams(p=16, L=8, o=1, G=2)
    rows, records = [], []
    for kernel, program in (("sum", logp_sum_program),
                            ("alltoall", logp_alltoall_program)):
        for bsp_p in (16, 8, 4, 2, 1):
            stack = Stack(program(), model="logp", params=params).on_bsp(p=bsp_p)
            rep = stack.run(obs=obs)
            rows.append((
                kernel, bsp_p, params.p // bsp_p, rep.bsp.total_cost, rep.work,
                f"{rep.slowdown:.1f}", f"{rep.predicted_slowdown:.1f}",
                rep.outputs_match,
            ))
            records.append(
                {"kernel": kernel, "bsp_p": bsp_p, "work": rep.work, **rep.as_row()}
            )
    return [ExperimentTable(
        "workpreserving",
        f"Work-preserving Theorem 1 (footnote 1): LogP p={params.p} on p' "
        f"BSP processors",
        ["kernel", "p'", "charges/host", "T_BSP", "work p'*T", "slowdown",
         "(p/p')(1+g/G+l/L)", "outputs match"],
        rows, records,
    )]


def _bit_reversal_permutation(p: int) -> list[tuple[int, int]]:
    """The classic bad case for deterministic oblivious routing on the
    hypercube: ``u -> reverse(u)``, fixed points dropped."""
    k = p.bit_length() - 1
    return [(u, v) for u in range(p) if (v := int(format(u, f"0{k}b")[::-1], 2)) != u]


def _ablations(obs=None) -> list[ExperimentTable]:
    """Direct vs Valiant routing; the three BSP h-cost conventions; and
    LogP's two nondeterminism knobs (delivery and acceptance order)."""
    from repro.bsp.machine import BSPMachine
    from repro.core.det_routing import measure_det_routing
    from repro.core.rand_routing import measure_rand_routing
    from repro.logp import (
        AcceptFIFO,
        AcceptLIFO,
        AcceptRandom,
        DeliverEager,
        DeliverMaxLatency,
        DeliverRandom,
        LogPMachine,
    )
    from repro.models.params import BSPParams, LogPParams
    from repro.networks import Hypercube
    from repro.networks.routing_sim import RoutingConfig, build_paths, route_packets
    from repro.programs import (
        bsp_prefix_program,
        bsp_radix_sort_program,
        bsp_sample_sort_program,
        logp_alltoall_program,
        logp_sum_program,
    )
    from repro.routing.workloads import balanced_h_relation, hotspot_relation

    # Routing: e-cube congestion bites on bit reversal at p = 1024.
    big, bit_reversal = Hypercube(1024), _bit_reversal_permutation(1024)
    small, random_rel = Hypercube(64), balanced_h_relation(64, 4, seed=1)
    cases = [(big, bit_reversal, "bit-reversal, p=1024", valiant, sp, "fifo")
             for valiant in (False, True) for sp in (False, True)]
    cases += [(small, random_rel, f"random 4-rel, p=64 ({priority})", valiant, False,
               priority) for valiant in (False, True) for priority in ("fifo", "farthest")]
    routing = []
    for topo, pairs, workload, valiant, sp, priority in cases:
        cfg = RoutingConfig(valiant=valiant, single_port=sp, priority=priority)
        paths = build_paths(topo, pairs, valiant=valiant, seed=0)
        routing.append({
            "workload": workload, "strategy": "valiant" if valiant else "direct",
            "ports": "single" if sp else "multi",
            "time": route_packets(topo, paths, cfg).time,
        })

    bsp = BSPParams(p=8, g=2, l=16)
    programs = {
        "prefix": bsp_prefix_program,
        "radix sort": lambda: bsp_radix_sort_program(keys_per_proc=8, key_bits=8, seed=2),
        "sample sort": lambda: bsp_sample_sort_program(keys_per_proc=16, seed=2),
    }
    conventions = []
    for pname, factory in programs.items():
        runs = {conv: BSPMachine(bsp, h_convention=conv).run(factory())
                for conv in ("max", "sum", "send-only")}
        conventions.append({
            "program": pname, **{conv: r.total_cost for conv, r in runs.items()},
            "results_invariant": all(r.results == runs["max"].results
                                     for r in runs.values()),
        })

    logp = LogPParams(p=16, L=8, o=1, G=2)
    deliveries = {
        "max-latency": DeliverMaxLatency,
        "eager": DeliverEager,
        "random": lambda: DeliverRandom(seed=5),
    }
    schedulers = []
    for dname, dfac in deliveries.items():
        sum_res = LogPMachine(logp, delivery=dfac()).run(logp_sum_program())
        a2a_res = LogPMachine(logp, delivery=dfac()).run(logp_alltoall_program())
        det = measure_det_routing(
            logp, balanced_h_relation(16, 8, seed=3), machine_kwargs={"delivery": dfac()}
        )
        schedulers.append({
            "delivery": dname, "sum_makespan": sum_res.makespan,
            "alltoall_makespan": a2a_res.makespan, "det_time": det.total_time,
            "sum_correct": sum_res.results == [sum(range(16))] * 16,
        })

    acceptances = {
        "fifo": AcceptFIFO,
        "lifo": AcceptLIFO,
        "random": lambda: AcceptRandom(seed=6),
    }
    acceptance = []
    for aname, afac in acceptances.items():
        m = measure_rand_routing(logp, hotspot_relation(16, 15, dest=0), seed=2, R=1,
                                 machine_kwargs={"acceptance": afac()})
        acceptance.append({"acceptance": aname, "time": m.total_time,
                           "stalls": len(m.result.stalls), "params": _logp_dict(logp)})
    return [
        ExperimentTable(
            "ablation_routing",
            "Ablation: direct vs Valiant routing on hypercubes",
            ["workload", "strategy", "ports", "time"],
            [tuple(rec.values()) for rec in routing],
            routing,
        ),
        ExperimentTable(
            "ablation_cost_conventions",
            f"Ablation: BSP h-relation cost conventions (p={bsp.p}, g={bsp.g}, l={bsp.l})",
            ["program", "g*max(in,out) (paper)", "g*(in+out)", "g*out"],
            [(rec["program"], rec["max"], rec["sum"], rec["send-only"])
             for rec in conventions],
            conventions,
        ),
        ExperimentTable(
            "ablation_schedulers",
            f"Ablation: delivery-policy sensitivity (p={logp.p}, L={logp.L}, "
            f"o={logp.o}, G={logp.G}); results are policy-invariant, only timing moves",
            ["delivery policy", "sum makespan", "all-to-all makespan", "det-routing T"],
            [(rec["delivery"], rec["sum_makespan"], rec["alltoall_makespan"],
              rec["det_time"]) for rec in schedulers],
            schedulers,
        ),
        ExperimentTable(
            "ablation_acceptance",
            "Ablation: acceptance order under stalling (15 -> 1 burst, R=1)",
            ["acceptance policy", "hot-spot burst T", "stalls"],
            [(rec["acceptance"], rec["time"], rec["stalls"]) for rec in acceptance],
            acceptance,
        ),
    ]


def _bsp_on_logp_modes(obs=None) -> list[ExperimentTable]:
    """The paper's Section 6 radix sort on LogP under all three Section 4
    routing modes, with per-phase timing."""
    from repro.core.bsp_on_logp import simulate_bsp_on_logp
    from repro.models.params import LogPParams
    from repro.programs import bsp_radix_sort_program

    params = LogPParams(p=16, L=16, o=1, G=2)
    records = []
    for mode in ("deterministic", "randomized", "offline"):
        rep = simulate_bsp_on_logp(
            params, bsp_radix_sort_program(keys_per_proc=8, key_bits=8, seed=17),
            routing=mode, seed=29,
        )
        keys = [k for block in rep.results for k in block]
        records.append({
            "routing": mode, "bsp_cost": rep.bsp_cost, "logp_time": rep.total_logp_time,
            "t_sync": sum(t.t_sync for t in rep.timings),
            "t_route": sum(t.t_route for t in rep.timings),
            "slowdown": rep.slowdown, "predicted_slowdown": rep.predicted_slowdown,
            "stalls": len(rep.logp.stalls), "sorted": keys == sorted(keys),
            "supersteps": len(rep.timings),
            "sum_h": sum(rec.h for rec in rep.bsp_native.ledger),
            "params": _logp_dict(params),
        })
    return [ExperimentTable(
        "bsp_on_logp_modes",
        f"BSP radix sort on LogP (p={params.p}, L={params.L}, o=1, G=2): "
        f"all three Section 4 routing modes",
        ["routing", "BSP cost", "LogP time", "sum T_sync", "sum T_rout", "S meas",
         "S paper", "stalls"],
        [(rec["routing"], rec["bsp_cost"], rec["logp_time"], rec["t_sync"],
          rec["t_route"], f"{rec['slowdown']:.2f}", f"{rec['predicted_slowdown']:.2f}",
          rec["stalls"]) for rec in records],
        records,
    )]


def _bridging(obs=None) -> list[ExperimentTable]:
    """Section 5 made executable: a BSP radix sort priced by real packet
    routing on each Table 1 topology vs the abstract (g*, l*) machine."""
    from repro.core.network_support import derive_model_support
    from repro.models.params import BSPParams
    from repro.networks.backed import run_on_network
    from repro.networks.params import make_topology
    from repro.programs import bsp_radix_sort_program

    records = []
    for name in ("d-dim array", "hypercube (multi-port)", "hypercube (single-port)",
                 "butterfly", "ccc", "shuffle-exchange", "mesh-of-trees"):
        topo, config = make_topology(name, 16)
        support = derive_model_support(topo, table_name=name, config=config)
        backed = run_on_network(
            topo, bsp_radix_sort_program(keys_per_proc=4, key_bits=8, seed=11),
            config=config,
        )
        predicted = backed.abstract_cost(
            BSPParams(p=topo.p, g=support.g_star, l=support.l_star)
        )
        records.append({
            "topology": name, "p": topo.p, "g_star": support.g_star,
            "l_star": support.l_star, "measured": backed.network_cost,
            "predicted": predicted, "ratio": backed.network_cost / predicted,
            "keys": [k for block in backed.results for k in block],
        })
    return [ExperimentTable(
        "bridging_fidelity",
        "Bridging-model fidelity: BSP radix sort priced by real packet "
        "routing vs the abstract (g*, l*) machine",
        ["topology", "p", "g*", "l*", "measured cost", "w + g*h + l* cost", "ratio"],
        [(rec["topology"], rec["p"], rec["g_star"], rec["l_star"], rec["measured"],
          rec["predicted"], f"{rec['ratio']:.2f}") for rec in records],
        records,
    )]


def _faults(obs=None) -> list[ExperimentTable]:
    """Resilience cost as slowdown vs the fault-free run: LogP kernels
    under ack/retransmit over a lossy medium, BSP kernels under
    checkpoint-and-retry, and store-and-forward routing over lossy links.
    Every record says whether the faulty run's results equal the clean
    run's."""
    from repro.bsp import BSPMachine
    from repro.faults import FaultPlan, reliable
    from repro.logp.machine import LogPMachine
    from repro.models.params import BSPParams, LogPParams
    from repro.networks.hypercube import Hypercube
    from repro.networks.routing_sim import RoutingConfig, route_h_relation
    from repro.programs import (
        bsp_prefix_program,
        bsp_sample_sort_program,
        logp_alltoall_program,
        logp_ring_program,
        logp_sum_program,
    )

    logp, bsp = LogPParams(p=8, L=8, o=1, G=2), BSPParams(p=8, g=2, l=10)
    rates, seed = (0.0, 0.02, 0.05, 0.1, 0.2, 0.3), 1996

    kernels = {"ring": logp_ring_program(), "sum": logp_sum_program(),
               "alltoall": logp_alltoall_program()}
    clean = {name: LogPMachine(logp).run(prog) for name, prog in kernels.items()}
    logp_recs = []
    for rate in rates:
        for name, prog in kernels.items():
            plan = FaultPlan(seed=seed, drop_rate=rate, dup_rate=rate / 2, delay_rate=rate,
                             max_extra_delay=logp.L, reorder_rate=rate)
            res = LogPMachine(logp, faults=plan, check_invariants=True).run(reliable(prog))
            logp_recs.append({
                "rate": rate, "kernel": name, "clean": clean[name].makespan,
                "faulty": res.makespan, "slowdown": res.makespan / clean[name].makespan,
                "messages": res.total_messages,
                "results_match": res.results == clean[name].results,
            })

    kernels = {"prefix": bsp_prefix_program(),
               "sample-sort": bsp_sample_sort_program(keys_per_proc=16, seed=9)}
    clean = {name: BSPMachine(bsp).run(prog) for name, prog in kernels.items()}
    bsp_recs = []
    for rate in rates:
        for name, prog in kernels.items():
            res = BSPMachine(bsp, faults=FaultPlan(seed=seed, drop_rate=rate)).run(prog)
            bsp_recs.append({
                "rate": rate, "kernel": name, "clean": clean[name].total_cost,
                "faulty": res.total_cost,
                "slowdown": res.total_cost / clean[name].total_cost,
                "retries": res.total_retries,
                "results_match": res.results == clean[name].results,
            })

    topo, h = Hypercube(64), 4
    clean_route = route_h_relation(topo, h, seed=2)
    route_recs = []
    for rate in rates:
        out = route_h_relation(
            topo, h, seed=2, config=RoutingConfig(link_fault_rate=rate, seed=seed)
        )
        route_recs.append({
            "rate": rate, "clean": clean_route.time, "faulty": out.time,
            "slowdown": out.time / clean_route.time,
            "retransmissions": out.retransmissions,
            "packets_match": out.packets == clean_route.packets,
        })

    return [
        ExperimentTable(
            "fault_resilience_logp",
            f"Ack/retransmit LogP transport over a lossy medium "
            f"(p={logp.p}, L={logp.L}, o=1, G=2; "
            f"drop=delay=reorder=rate, dup=rate/2, seed={seed})",
            ["fault rate", "kernel", "clean makespan", "faulty makespan",
             "slowdown", "messages (incl. acks/retx)"],
            [(rec["rate"], rec["kernel"], rec["clean"], rec["faulty"],
              f"{rec['slowdown']:.2f}", rec["messages"]) for rec in logp_recs],
            logp_recs,
        ),
        ExperimentTable(
            "fault_resilience_bsp",
            f"BSP checkpoint-and-retry over a lossy exchange "
            f"(p={bsp.p}, g={bsp.g}, l={bsp.l}, seed={seed})",
            ["drop rate", "kernel", "clean cost", "faulty cost", "slowdown",
             "retry rounds"],
            [(rec["rate"], rec["kernel"], rec["clean"], rec["faulty"],
              f"{rec['slowdown']:.2f}", rec["retries"]) for rec in bsp_recs],
            bsp_recs,
        ),
        ExperimentTable(
            "fault_resilience_routing",
            f"Lossy-link store-and-forward routing of a balanced "
            f"{h}-relation on the {topo.p}-node hypercube",
            ["link fault rate", "clean steps", "faulty steps", "slowdown",
             "retransmissions"],
            [(rec["rate"], rec["clean"], rec["faulty"], f"{rec['slowdown']:.2f}",
              rec["retransmissions"]) for rec in route_recs],
            route_recs,
        ),
    ]


def _logp_cost_of_bitonic(p, r, params) -> int:
    """Charged LogP cost of the bitonic schedule: per round, r paced
    1-relations (2o + G(r-1) + L) + merge O(r); plus the initial local
    sort."""
    from repro.models.cost import t_seq_sort
    from repro.sorting import bitonic_schedule

    per_round = 2 * params.o + params.G * max(0, r - 1) + params.L + r
    return t_seq_sort(r, p) + len(bitonic_schedule(p)) * per_round


def _logp_cost_of_columnsort(s, r, params) -> int:
    """Columnsort's 8 fixed steps: 4 local sorts + 4 r-relations routed
    as r paced 1-relations."""
    from repro.models.cost import t_seq_sort

    per_perm = 2 * params.o + params.G * max(0, r - 1) + params.L
    return 4 * t_seq_sort(r, s) + 4 * per_perm


def _sorting(obs=None) -> list[ExperimentTable]:
    """Section 4.2's sorting regimes three ways: the paper's analytic
    AKS-vs-Cubesort crossover, the executable substitutes (bitonic,
    Columnsort) on the LogP cost scale, and the word-accurate BSP
    sorters' regimes (Gerbessiotis & Siniolakis, arXiv:1408.6729) with
    the sample-sort/bitonic crossover next to its closed-form
    prediction."""
    import random

    from repro.engine.request import DEFAULT_PARAMS
    from repro.models.cost import t_sort_aks, t_sort_cubesort
    from repro.models.params import LogPParams
    from repro.sorting import bitonic_schedule, columnsort, run_schedule_locally
    from repro.sorting.columnsort import columnsort_valid
    from repro.workloads import get, run_workload
    from repro.workloads.sorting import (
        bitonic_cost_closed_form,
        sample_unit_cost_closed_form,
    )

    params = LogPParams(p=256, L=16, o=1, G=2)
    analytic = []
    for r in (1, 4, 16, 64, 256, 1024, 4096, 65536):
        aks = t_sort_aks(r, params.p, params)
        cube = t_sort_cubesort(r, params.p, params, include_log_star_term=False)
        analytic.append({"r": r, "aks": aks, "cubesort": cube,
                         "winner": "AKS" if aks <= cube else "Cubesort"})

    def flat(blocks):
        return [x for block in blocks for x in block]

    p, rng = 16, random.Random(3)
    lp = LogPParams(p=p, L=16, o=1, G=2)
    executable = []
    for r in (1, 8, 64, 512, 4096):
        blocks = [[rng.randrange(10**6) for _ in range(r)] for _ in range(p)]
        want = sorted(flat(blocks))
        rec = {"r": r, "bitonic": _logp_cost_of_bitonic(p, r, lp), "columnsort": None,
               "bitonic_sorted":
                   flat(run_schedule_locally(bitonic_schedule(p), blocks)) == want,
               "columnsort_sorted": None}
        if columnsort_valid(r, p):
            rec["columnsort"] = _logp_cost_of_columnsort(p, r, lp)
            rec["columnsort_sorted"] = flat(columnsort(blocks)) == want
        rec["winner"] = ("bitonic" if rec["columnsort"] is None
                         or rec["bitonic"] <= rec["columnsort"] else "columnsort")
        executable.append(rec)

    p, g, l = 8, DEFAULT_PARAMS["g"], DEFAULT_PARAMS["l"]
    regimes = []
    for r in (8, 16, 32, 64, 128, 256):
        args, costs = {"keys_per_proc": r, "key_range": 1 << 16}, {}
        for name in ("sample-sort-unit", "bitonic-sort", "columnsort"):
            costs[name] = None
            if get(name).supports(p, args):
                run = run_workload(name, p=p, seed=0, params=args)
                run.report.assert_ok()
                costs[name] = int(run.result.total_cost)
        regimes.append({
            "p": p, "keys_per_proc": r, **costs,
            "winner": min((c, n) for n, c in costs.items() if c is not None)[1],
            "sample_closed_form": sample_unit_cost_closed_form(r, p, g, l),
            "bitonic_closed_form": bitonic_cost_closed_form(r, p, g, l),
        })
    return [
        ExperimentTable(
            "sorting_analytic_crossover",
            f"Paper cost model: sorting crossover at p={params.p}, L={params.L}, "
            f"G={params.G}",
            ["r", "T_AKS", "T_Cubesort (asymptotic)", "winner"],
            [(rec["r"], f"{rec['aks']:.3g}", f"{rec['cubesort']:.3g}", rec["winner"])
             for rec in analytic],
            analytic,
        ),
        ExperimentTable(
            "sorting_executable_schemes",
            f"Executable substitutes at p={lp.p}: charged LogP cost of actually "
            f"sorting r keys/processor (both verified correct)",
            ["r", "bitonic LogP cost", "columnsort LogP cost", "winner"],
            [(rec["r"], rec["bitonic"],
              "invalid (r < 2(s-1)^2)" if rec["columnsort"] is None
              else rec["columnsort"], rec["winner"]) for rec in executable],
            executable,
        ),
        ExperimentTable(
            "sorting_regimes",
            f"BSP sorting regimes at p={p} (g={g}, l={l}): measured total cost "
            f"per sorter vs r = n/p, sample sort vs bitonic in closed form",
            ["r", "sample sort", "bitonic", "columnsort", "winner",
             "sample closed form", "bitonic closed form"],
            [(rec["keys_per_proc"], rec["sample-sort-unit"], rec["bitonic-sort"],
              "invalid" if rec["columnsort"] is None else rec["columnsort"],
              rec["winner"], rec["sample_closed_form"], rec["bitonic_closed_form"])
             for rec in regimes],
            regimes,
        ),
    ]


def _streaming(obs=None) -> list[ExperimentTable]:
    """The pseudo-streaming transformer's superstep bound (Buurlage et
    al., arXiv:1608.07200) on both streamed workloads: per chunk, the
    streamed superstep count against ``(base - 1)·ceil(h/chunk) + 1``
    and the largest per-processor h_send against the chunk."""
    from repro.workloads import run_workload, streamed_supersteps
    from repro.workloads.streaming import sample_sort_h_bound

    p, records = 4, []
    for base, streamed, args, h_bound, chunks in (
        ("sample-sort-unit", "stream-sample-sort", {"keys_per_proc": 16},
         sample_sort_h_bound(p, 16), (4, 8)),
        ("matvec", "stream-matvec", {"n": 16}, p - 1, (1, 2)),
    ):
        run = run_workload(base, p=p, seed=0, params=args)
        run.report.assert_ok()
        base_steps = run.result.num_supersteps
        for chunk in chunks:
            out = run_workload(streamed, p=p, seed=0, params={**args, "chunk": chunk})
            out.report.assert_ok()
            records.append({
                "base": base, "streamed": streamed, "p": p, "chunk": chunk,
                "h_bound": h_bound, "base_supersteps": base_steps,
                "streamed_supersteps": out.result.num_supersteps,
                "predicted_supersteps": streamed_supersteps(base_steps, 1, h_bound, chunk),
                "max_h_send": max(rec.h_send for rec in out.result.ledger),
            })
    return [ExperimentTable(
        "streaming_bound",
        f"Pseudo-streaming supersteps (p={p}): every boundary split into "
        f"ceil(h/chunk) rounds of <= chunk sends",
        ["base", "streamed", "chunk", "h bound", "base supersteps",
         "streamed supersteps", "(base-1)ceil(h/chunk)+1", "max h_send"],
        [(rec["base"], rec["streamed"], rec["chunk"], rec["h_bound"],
          rec["base_supersteps"], rec["streamed_supersteps"],
          rec["predicted_supersteps"], rec["max_h_send"]) for rec in records],
        records,
    )]


def _numeric(obs=None) -> list[ExperimentTable]:
    """BSF-style scalability peaks (Sokolinsky, arXiv:1710.10490): both
    iterative kernels' measured cost over a p grid against the closed
    form, with the continuous minimizer p*."""
    from repro.engine.request import DEFAULT_PARAMS
    from repro.workloads import run_workload
    from repro.workloads.numeric import (
        gradient_cost_closed_form,
        gradient_peak,
        jacobi_cost_closed_form,
        jacobi_peak,
    )

    n, iters, g, l = 48, 4, DEFAULT_PARAMS["g"], DEFAULT_PARAMS["l"]
    records = []
    for name, closed, peak in (
        ("jacobi", jacobi_cost_closed_form, jacobi_peak(n, iters, g)),
        ("gradient", gradient_cost_closed_form, gradient_peak(n, g)),
    ):
        for p in (2, 3, 4, 6, 8, 12, 16, 24):
            run = run_workload(name, p=p, seed=0, params={"n": n, "iters": iters})
            run.report.assert_ok()
            records.append({
                "kernel": name, "p": p, "measured": int(run.result.total_cost),
                "predicted": closed(n, p, iters, g, l), "peak_continuous": round(peak, 3),
            })
    argmin = {
        name: min((rec for rec in records if rec["kernel"] == name),
                  key=lambda rec: rec["measured"])
        for name in ("jacobi", "gradient")
    }
    return [ExperimentTable(
        "numeric_scalability",
        f"Scalability peaks (n={n}, iters={iters}, g={g}, l={l}): measured BSP "
        f"cost vs closed form over p",
        ["kernel", "p", "measured cost", "closed form", "continuous p*", "argmin"],
        [(rec["kernel"], rec["p"], rec["measured"], rec["predicted"],
          rec["peak_continuous"], "<-" if rec is argmin[rec["kernel"]] else "")
         for rec in records],
        records,
    )]


#: id -> (description, builder).  A builder sweeps its grids and returns
#: one :class:`ExperimentTable` per committed table; ``run all`` prints
#: every ``benchmarks/results/*.txt`` file and the benches assert on the
#: same records.  Builders accept an optional ``obs=Observation(...)``;
#: T1, TH1 and WP publish metrics/spans into it, the rest ignore it.
EXPERIMENTS: dict[str, tuple[str, Callable[..., list[ExperimentTable]]]] = {
    "T1": ("Table 1: network bandwidth/latency parameters", _table1),
    "TH1": ("Theorem 1: LogP on BSP", _theorem1),
    "P1": ("Propositions 1/2: Combine-and-Broadcast", _cb),
    "TH2": ("Theorem 2: deterministic BSP on LogP", _theorem2),
    "TH3": ("Theorem 3: randomized routing", _theorem3),
    "ST": ("Sections 2.2/3: stalling analyses", _stalling),
    "OB1": ("Observation 1: direct implementations on networks", _observation1),
    "WP": ("Footnote 1: work-preserving simulation", _workpreserving),
    "AB": ("Ablations: routing, cost conventions, LogP schedulers", _ablations),
    "APP": ("Section 6: radix sort under the three routing modes", _bsp_on_logp_modes),
    "BF": ("Section 5 extension: bridging-model fidelity", _bridging),
    "FR": ("Resilience cost over a faulty substrate", _faults),
    "SRT": ("Section 4.2: sorting regimes", _sorting),
    "PS": ("Pseudo-streaming superstep bound", _streaming),
    "NS": ("Iterative-numeric scalability peaks", _numeric),
}


# -- the CLI's one K=V reader and one RunRequest flag set ---------------


def _value(text: str):
    """The one value rule for ``K=V`` input: int, else float, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_kv(items: list[str] | None, flag: str, *, axes: bool = False) -> dict:
    """Read the ``K=V`` items of ``--grid``, ``--base``, ``--param``,
    ``--arg`` and ``--faults`` into a dict.

    Each item holds comma-separated ``K=V`` pairs, except under ``axes``
    (``--grid``), where an item is one ``AXIS=V1,V2,...`` and the value
    is the tuple of its values.  A pair without ``=``, an empty key or
    value, or a key given twice raises :class:`ParameterError`.
    """
    out: dict = {}
    for item in items or ():
        for pair in [item] if axes else item.split(","):
            key, eq, text = pair.partition("=")
            key = key.strip()
            texts = text.split(",") if axes else [text]
            if not (key and eq and all(t.strip() for t in texts)):
                form = "AXIS=V1,V2,..." if axes else "K=V"
                where = "" if pair == item else f" (in {item!r})"
                raise ParameterError(f"{flag} expects {form}, got {pair!r}{where}")
            if key in out:
                raise ParameterError(f"{flag} gives {key!r} twice")
            values = tuple(_value(t) for t in texts)
            out[key] = values if axes else values[0]
    return out


def _add_request_flags(sub: argparse.ArgumentParser) -> None:
    """The flags that name one RunRequest, shared by ``inspect`` and
    ``request`` (:func:`_request_from_args` reads them back)."""
    sub.add_argument(
        "chain",
        help="layer chain, guest first: bsp, logp, logp-on-bsp, "
        "bsp-on-logp, bsp-on-network, logp-on-network, "
        "bsp-on-logp-on-network, bsp-on-dist",
    )
    sub.add_argument(
        "--program", default="default",
        help="named guest program (default: the chain's demo program)",
    )
    sub.add_argument(
        "--workload", default=None,
        help="registered workload name (see 'workloads list'); mutually "
        "exclusive with --program",
    )
    sub.add_argument(
        "--arg", action="append", metavar="K=V",
        help="workload parameter (with --workload; repeatable)",
    )
    sub.add_argument("--p", type=int, default=8, help="processor count (default 8)")
    sub.add_argument(
        "--topology", default="hypercube (multi-port)",
        help="Table 1 topology name for network layers "
        "(default: 'hypercube (multi-port)')",
    )
    sub.add_argument(
        "--param", action="append", metavar="K=V",
        help="model-parameter override (K in L,o,G,g,l; repeatable)",
    )
    sub.add_argument("--seed", type=int, default=0, help="request seed")
    sub.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="event-queue kernel for the host machine / router: 'event' "
        "(skip-ahead) or 'tick' (reference scan); default: each layer's own",
    )


def _request_from_args(args, *, metrics: bool = False):
    """The :class:`~repro.engine.request.RunRequest` the shared flags name."""
    from repro.engine.request import RunRequest

    return RunRequest(
        chain=args.chain,
        program=args.program,
        workload=args.workload,
        args=_parse_kv(args.arg, "--arg"),
        p=args.p,
        topology=args.topology,
        params=_parse_kv(args.param, "--param"),
        seed=args.seed,
        kernel=args.kernel,
        metrics=metrics,
    )


# -- inspect: run one RunRequest's Stack and report on it ---------------


def _inspect(args) -> int:
    from repro.engine.stack import Stack
    from repro.obs import CostModelCheck, Observation

    req = _request_from_args(args)
    stack = Stack.from_request(req)
    obs = Observation(trace=bool(args.trace))
    result = stack.run(obs=obs)

    row = result.as_row()
    doc: dict = {"chain": stack.describe(), "result": row}
    print(f"stack: {stack.describe()}  ->  {type(result).__name__}")
    print(render_table(
        ["field", "value"],
        [(k, json.dumps(v, default=str) if isinstance(v, dict) else v)
         for k, v in row.items()],
    ))
    try:
        check = CostModelCheck.check(result)
    except TypeError:
        check = None
    if check is not None:
        print()
        print(check.render())
        doc["cost_check"] = check.as_dict()
    for block in _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=stack.describe(),
    ):
        print()
        print(block)
    if args.trace and args.metrics:
        print()
        print(obs.flamegraph())
    if args.json:
        print(json.dumps(doc, default=str))
    return 0


def _trace_path(base: str, exp_id: str, multi: bool) -> str:
    if not multi:
        return base
    stem, dot, ext = base.rpartition(".")
    return f"{stem}.{exp_id}.{ext}" if dot else f"{base}.{exp_id}"


def _obs_blocks(obs, doc: dict, *, metrics: bool, trace_path: str | None,
                title: str) -> list[str]:
    """The shared ``--metrics`` / ``--trace`` epilogue every subcommand
    used to hand-roll: render the registry, write the Chrome trace, and
    fold both into the JSON document.  Returns printable text blocks."""
    blocks: list[str] = []
    if obs is None:
        return blocks
    if metrics:
        blocks.append(obs.render_metrics(title=f"metrics — {title}"))
        doc["metrics"] = obs.metrics.as_dict()
    if trace_path:
        obs.write_trace(trace_path)
        blocks.append(
            f"trace written to {trace_path} ({len(obs.tracer.spans)} spans; "
            f"load in Perfetto / chrome://tracing)"
        )
        doc["trace"] = trace_path
    return blocks


def _run_experiments(args) -> int:
    from repro.obs import Observation

    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ParameterError(f"unknown experiment ids: {unknown}; try 'list'")
    for exp_id in ids:
        trace = _trace_path(args.trace, exp_id, len(ids) > 1) if args.trace else None
        obs = Observation(trace=bool(trace)) if (args.metrics or trace) else None
        tables = EXPERIMENTS[exp_id][1](obs=obs)
        docs = [
            {"id": exp_id, "table": t.name, "title": t.title, "rows": t.records}
            for t in tables
        ]
        blocks = _obs_blocks(
            obs, docs[-1], metrics=args.metrics, trace_path=trace, title=exp_id
        )
        parts = []
        for table, doc in zip(tables, docs):
            parts.append(table.render())
            if args.json:
                parts.append(json.dumps(doc, default=str))
        print("\n\n".join(parts + blocks))
        print()
    return 0


# -- campaign: resumable, cache-backed sweeps over a worker pool --------


def _campaign_spec(args):
    """Resolve the positional name: a built-in campaign, or an ad-hoc
    spec assembled from a target id plus ``--grid``/``--base`` axes."""
    import dataclasses

    from repro.campaign import CAMPAIGNS, CampaignSpec
    from repro.models.params import as_int

    overrides = {}
    if args.seeds:
        overrides["seeds"] = tuple(
            as_int("--seeds", _value(s)) for s in args.seeds.split(",")
        )
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    spec = CAMPAIGNS.get(args.name)
    if spec is not None:
        if args.grid or args.base:
            raise ParameterError(
                f"{args.name!r} is a built-in campaign; --grid/--base only "
                f"apply to ad-hoc targets"
            )
        return dataclasses.replace(spec, **overrides)
    return CampaignSpec(
        name=args.store_name or args.name,
        target=args.name,
        grid=tuple(_parse_kv(args.grid, "--grid", axes=True).items()),
        base=tuple(_parse_kv(args.base, "--base").items()),
        description="ad-hoc CLI campaign",
        **overrides,
    )


def _campaign(args) -> int:
    from repro.campaign import RegressionGate, run_campaign
    from repro.obs import Observation

    spec = _campaign_spec(args)
    obs = Observation(trace=bool(args.trace)) if (args.metrics or args.trace) else None
    report = run_campaign(
        spec,
        store_dir=args.store,
        parallel=args.parallel,
        force=args.force,
        stop_after=args.stop_after,
        obs=obs,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(report.render())
    doc = report.as_dict()
    rc = 0 if (report.ok or report.interrupted) else 1
    if args.gate or args.update_gate:
        gate = RegressionGate()
        records = report.records()
        if args.update_gate:
            path = gate.update(records, args.update_gate, campaign=spec.name)
            print(f"\ngate baseline written to {path}")
        if args.gate:
            result = gate.check(records, args.gate)
            print()
            print(result.render())
            doc["gate"] = {"ok": result.ok, "failures": result.failures}
            if not result.ok:
                rc = 1
    blocks = _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=f"campaign {spec.name}",
    )
    if args.json:
        print()
        print(json.dumps(doc, default=str))
    for block in blocks:
        print()
        print(block)
    if report.interrupted:
        print(
            f"\ninterrupted after {report.ran} point(s); rerun to resume "
            f"from {report.store_dir}",
        )
    return rc


# -- dist: the real-process socket backend ------------------------------


def _dist(args) -> int:
    import tempfile

    from repro.dist import DistParams, run_reference, wire_fault_plan
    from repro.engine import Stack
    from repro.errors import DistRunError
    from repro.obs import Observation

    faults = _parse_kv(args.faults and [args.faults], "--faults")
    kills = [faults.pop("kill")] if "kill" in faults else []
    faults["kill"] = kills + (args.kill or [])
    plan = wire_fault_plan(faults, seed=args.seed)
    kwargs = {"rounds": args.rounds}
    log_dir = args.log_dir or tempfile.mkdtemp(prefix="repro-dist-")
    params = DistParams(run_timeout_s=args.timeout)
    obs = Observation(trace=bool(args.trace)) if (args.metrics or args.trace) else None
    stack = Stack(args.program).on_dist(
        args.p, kwargs=kwargs, params=params, log_dir=log_dir
    )
    try:
        result = stack.run(faults=plan, obs=obs)
    except DistRunError as exc:
        print(f"dist run failed loudly (as designed): {exc}", file=sys.stderr)
        return 1
    expected = run_reference(args.program, args.p, kwargs)
    correct = result.results == expected
    print(f"program {args.program!r} on {args.p} real processes: "
          f"{result.rounds} rounds in {result.wall_s:.3f}s "
          f"({result.restarts} restart(s))")
    print(f"final states: {result.results}")
    print(f"matches in-process reference: {correct}")
    if plan is not None:
        print(f"wire faults injected: {result.wire_faults}  "
              f"channel: retransmits={result.channel_stats['retransmits']} "
              f"dup_received={result.channel_stats['dup_received']}")
    report = result.analyze()
    print(f"log audit ({report['events']} events across "
          f"{len(report['files'])} files): "
          f"{'clean' if report['clean'] else 'VIOLATIONS'}")
    for v in report["protocol_violations"] + report["model_violations"]:
        print(f"  - {v}")
    print(f"event logs kept in {log_dir}")
    doc = {
        "result": result.summary(),
        "states": result.results,
        "reference_match": correct,
        "audit": {k: report[k] for k in
                  ("events", "clean", "protocol_violations",
                   "model_violations", "torn")},
        "log_dir": log_dir,
    }
    for block in _obs_blocks(
        obs, doc, metrics=args.metrics, trace_path=args.trace,
        title=f"dist {args.program}",
    ):
        print()
        print(block)
    if args.json:
        print()
        print(json.dumps(doc, default=str))
    return 0 if (correct and report["clean"]) else 1


# -- serve / request: simulation-as-a-service ---------------------------


def _print_service_stats(stats: dict) -> None:
    from repro.util.tables import render_table

    rows = [
        (k, stats[k])
        for k in ("requests", "served", "hit", "dedup", "miss", "failed",
                  "pool_jobs", "pool_points", "hit_rate", "reconciled")
    ]
    print(render_table(["counter", "value"], rows, title="service stats"))


def _serve(args) -> int:
    import asyncio

    from repro.service import ServiceConfig, SimulationService
    from repro.service import serve as serve_tcp

    cfg = ServiceConfig(
        store_dir=args.store,
        shards=args.shards,
        workers=args.workers,
        timeout_s=args.timeout,
        batch_window_s=args.batch_window,
    )
    if args.smoke:
        return _serve_smoke(cfg, args)

    async def _main() -> None:
        async with SimulationService(cfg) as svc:
            server = await serve_tcp(svc, args.host, args.port)
            sock = server.sockets[0].getsockname()
            print(
                f"serving on {sock[0]}:{sock[1]}  "
                f"(store {cfg.store_dir}, {cfg.shards} shards, "
                f"workers={cfg.workers}; ops: run/stats/reload/ping)",
                flush=True,
            )
            try:
                async with server:
                    await server.serve_forever()
            finally:
                _print_service_stats(svc.stats.as_dict())
                if args.metrics:
                    from repro.obs import Observation

                    obs = Observation()
                    obs.observe_service(svc.stats)
                    print()
                    print(obs.render_metrics(title="metrics — service"))

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_smoke(cfg, args) -> int:
    """Self-contained end-to-end smoke: real server, real socket client,
    mixed hit/miss/dedup traffic, counters asserted to reconcile.  It
    runs against a fresh temporary store, deleted afterwards, so every
    run starts with nothing cached.  Backs ``make serve-smoke`` and the
    service-smoke CI job."""
    import asyncio
    import dataclasses
    import tempfile

    from repro.service import ServiceClient, SimulationService
    from repro.service import serve as serve_tcp

    docs = [{"chain": "bsp", "p": 4, "seed": s} for s in range(3)]
    copies = 4

    async def _main(cfg) -> tuple[dict, list]:
        async with SimulationService(cfg) as svc:
            server = await serve_tcp(svc, args.host, 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(args.host, port)
            assert await client.ping()
            # Wave 1: `copies` concurrent copies of each unique request
            # — one miss per unique key, the rest dedup against it.
            wave1 = await asyncio.gather(
                *(client.run(d) for d in docs for _ in range(copies))
            )
            # Wave 2: the same requests again — all cache hits.
            wave2 = await asyncio.gather(*(client.run(d) for d in docs))
            stats = await client.stats()
            await client.close()
            server.close()
            await server.wait_closed()
            return stats, wave1, wave2

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as store:
        stats, wave1, wave2 = asyncio.run(_main(dataclasses.replace(cfg, store_dir=store)))
    responses = wave1 + wave2
    n = len(docs)
    checks = [
        ("every response ok", all(r.get("ok") for r in responses)),
        ("hit records == computed records",
         [r.get("record") for r in wave2]
         == [r.get("record") for r in wave1[::copies]]),
        ("requests == issued", stats["requests"] == n * copies + n),
        ("counters reconcile", stats["reconciled"]),
        (f"miss == {n} unique", stats["miss"] == n),
        (f"dedup == {n * (copies - 1)}", stats["dedup"] == n * (copies - 1)),
        (f"hit == {n} repeats", stats["hit"] == n),
        ("pool saw only unique points", stats["pool_points"] == n),
        ("no failures", stats["failed"] == 0),
    ]
    _print_service_stats(stats)
    ok = True
    for label, passed in checks:
        print(f"  {'PASS' if passed else 'FAIL'}  {label}")
        ok = ok and passed
    print(f"serve smoke: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def _request(args) -> int:
    req = _request_from_args(args, metrics=args.with_metrics)
    if args.dry_run:
        from repro.campaign import code_fingerprint

        print(json.dumps(
            {"request": req.to_dict(), "key": req.key(code_fingerprint())},
            indent=2,
        ))
        return 0
    docs = [req.to_dict()] * max(1, args.count)
    if args.local:
        import asyncio
        import tempfile

        from repro.service import ServiceConfig, SimulationService

        store = args.store or tempfile.mkdtemp(prefix="repro-service-")

        async def _go():
            cfg = ServiceConfig(store_dir=store, shards=args.shards, workers=0)
            async with SimulationService(cfg) as svc:
                rs = await asyncio.gather(*(svc.submit(d) for d in docs))
                return rs, svc.stats.as_dict()

        responses, stats = asyncio.run(_go())
        for resp in responses:  # in-process records are the stored bytes
            resp["record"] = json.loads(resp["record"])
    else:
        from repro.service import request_sync

        try:
            responses = request_sync(args.host, args.port, docs)
        except ConnectionError as exc:
            print(
                f"request: cannot reach {args.host}:{args.port} ({exc}); "
                f"start one with 'serve' or use --local",
                file=sys.stderr,
            )
            return 2
        stats = None
    for resp in responses:
        outcome = resp.get("outcome", "?")
        status = resp.get("status", "?")
        print(f"{req.describe()}  ->  {outcome}/{status}  key={resp.get('key')}")
        if resp.get("error"):
            print(f"  error: {resp['error']}")
    if stats is not None:
        print()
        _print_service_stats(stats)
    if args.json:
        print()
        print(json.dumps(responses if len(responses) > 1 else responses[0],
                         default=str))
    return 0 if all(r.get("ok") for r in responses) else 1


def _workload_run_line(run) -> str:
    result = run.result
    cost = getattr(result, "total_cost", None)
    if cost is None:
        cost = getattr(result, "makespan", "?")
    steps = getattr(result, "num_supersteps", "-")
    status = "ok" if run.ok else "FAIL"
    status += "+val" if run.validated else ""
    return (
        f"{run.workload.name:20s} p={run.request.p:<3d} "
        f"cost={cost:<8} supersteps={steps:<4} {status}"
    )


def _workloads_list(args) -> int:
    from repro.workloads import iter_workloads

    for w in iter_workloads(family=getattr(args, "family", None)):
        space = "  ".join(f"{k}={list(v)}" for k, v in sorted(w.space.items()))
        print(f"{w.name:20s} [{w.family}/{w.model}]  {space}")
    return 0


def _workloads_describe(args) -> int:
    from repro.workloads import get

    w = get(args.name)
    print(w.describe())
    print(f"  campaign: {w.spec(quick=True).name} (target=workload)")
    return 0


def _workloads_run(args) -> int:
    from repro.workloads import get, iter_workloads, run_workload

    if args.all:
        targets = list(iter_workloads(family=args.family))
    elif not args.name:
        raise ParameterError("give a workload name or --all")
    else:
        targets = [get(args.name)]
    records = []
    all_ok = True
    for w in targets:
        points = (
            list(w.points(quick=True, seeds=(args.seed,)))
            if args.quick
            else [{"p": args.p or int(w.defaults["p"]), "seed": args.seed,
                   **_parse_kv(args.arg, "--arg")}]
        )
        runs = []
        for point in points:
            point = dict(point)
            p, seed = point.pop("p"), point.pop("seed")
            run = run_workload(
                w.name, p=p, seed=seed, params=point, chain=args.chain,
                kernel=args.kernel, validate=not args.no_validate,
            )
            runs.append(run)
            all_ok = all_ok and run.ok
            print(_workload_run_line(run))
            if args.verbose or not run.ok:
                print(run.report.render())
        records.append({
            "workload": w.name,
            "family": w.family,
            "points": [r.as_record() for r in runs],
            "ok": all(r.ok for r in runs),
        })
    if args.out:
        doc = {
            "tool": "experiments workloads run",
            "quick": bool(args.quick),
            "seed": args.seed,
            "ok": all_ok,
            "workloads": records,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
        print(f"wrote {args.out}")
    return 0 if all_ok else 1


def _workloads(args) -> int:
    return {
        "list": _workloads_list,
        "describe": _workloads_describe,
        "run": _workloads_run,
    }[args.wcommand](args)


def _list(args) -> int:
    from repro.campaign import CAMPAIGNS
    from repro.workloads import iter_workloads

    for key, (desc, _fn) in EXPERIMENTS.items():
        print(f"{key:5s} {desc}")
    print()
    for name, spec in CAMPAIGNS.items():
        print(f"{name:10s} {spec.description} [campaign]")
    print()
    for w in iter_workloads():
        space = "  ".join(f"{k}={list(v)}" for k, v in sorted(w.space.items()))
        print(f"{w.name:20s} {space} [workload/{w.family}]")
    return 0


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document per experiment "
        "after its table (rows use the shared MachineResult.as_row "
        "projection where available)",
    )
    sub.add_argument(
        "--metrics",
        action="store_true",
        help="attach an Observation and print its metric registry",
    )
    sub.add_argument(
        "--trace",
        metavar="OUT.json",
        help="record layer-labelled spans and write a Chrome trace_event "
        "file (loadable in Perfetto)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's quantitative artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids and built-in campaigns")
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    _add_obs_flags(run)
    camp = sub.add_parser(
        "campaign",
        help="run a resumable, cache-backed parameter sweep over a "
        "worker pool (see docs/CAMPAIGN.md)",
    )
    camp.add_argument(
        "name",
        help="a built-in campaign name (see 'list'), or a target id "
        "(request, workload, theorem2, cb, demo, dist) combined with "
        "--grid/--base; the Theorem 1 grids (th1-grid, th1-smoke) run "
        "on the request target",
    )
    camp.add_argument(
        "--grid",
        action="append",
        metavar="AXIS=V1,V2,...",
        help="add a grid axis to an ad-hoc campaign (repeatable)",
    )
    camp.add_argument(
        "--base",
        action="append",
        metavar="K=V",
        help="fixed parameter(s) merged under every point: one value per "
        "key, comma-separated pairs (repeatable)",
    )
    camp.add_argument("--seeds", metavar="S1,S2,...", help="per-point seeds")
    camp.add_argument(
        "--parallel", type=int, default=1, metavar="N", help="worker processes"
    )
    camp.add_argument(
        "--force",
        action="store_true",
        help="drop every cached point and recompute from scratch",
    )
    camp.add_argument(
        "--store", metavar="DIR", help="store directory (default campaigns/<name>)"
    )
    camp.add_argument(
        "--store-name", metavar="NAME", help="store/campaign name for ad-hoc targets"
    )
    camp.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="per-point timeout"
    )
    camp.add_argument(
        "--stop-after",
        type=int,
        metavar="N",
        help="abandon the run after N completed points (simulated kill; "
        "the store keeps them and the next run resumes)",
    )
    camp.add_argument(
        "--gate",
        metavar="BASELINE.json",
        help="fit the sweep's cost-model residuals and fail on shape "
        "regressions vs this committed baseline",
    )
    camp.add_argument(
        "--update-gate",
        metavar="BASELINE.json",
        help="(re)write the gate baseline from this sweep",
    )
    _add_obs_flags(camp)
    inspect_p = sub.add_parser(
        "inspect",
        help="run one RunRequest's Stack chain (e.g. bsp-on-logp-on-network) "
        "in-process and report on it",
    )
    _add_request_flags(inspect_p)
    _add_obs_flags(inspect_p)
    dist_p = sub.add_parser(
        "dist",
        help="run a program on real OS processes over TCP sockets, with "
        "optional seeded fault injection (see docs/DIST.md)",
    )
    dist_p.add_argument(
        "program",
        nargs="?",
        default="ring",
        help="dist program name (ring, alltoall, pingpong, flood); "
        "default ring",
    )
    dist_p.add_argument("--p", type=int, default=3, help="worker processes")
    dist_p.add_argument("--rounds", type=int, default=4, help="supersteps")
    dist_p.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed (same seed = same fault scenario, here and "
        "in the simulators)",
    )
    dist_p.add_argument(
        "--faults",
        metavar="K=V,...",
        help="wire-fault rates, e.g. drop=0.2,dup=0.1,delay=0.1 "
        "(keys: drop, dup, delay, max_extra_delay, kill)",
    )
    dist_p.add_argument(
        "--kill",
        action="append",
        metavar="PID:S",
        help="SIGKILL worker PID mid-superstep S (repeatable)",
    )
    dist_p.add_argument(
        "--log-dir", metavar="DIR",
        help="event-log directory (default: a fresh temp dir, kept)",
    )
    dist_p.add_argument(
        "--timeout", type=float, default=60.0,
        help="whole-run deadline in seconds (default 60)",
    )
    _add_obs_flags(dist_p)
    serve_p = sub.add_parser(
        "serve",
        help="serve RunRequest documents over TCP: cache hits from the "
        "sharded store, in-flight dedup, misses batched to the pool "
        "(see docs/SERVICE.md)",
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=7997,
        help="bind port (0 = ephemeral; default 7997)",
    )
    serve_p.add_argument(
        "--store", metavar="DIR", default="campaigns/service",
        help="sharded result-store root, shareable between servers "
        "(default campaigns/service)",
    )
    serve_p.add_argument(
        "--shards", type=int, default=16,
        help="key-prefix shard count, pinned at first open (default 16)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=0,
        help="pool processes for miss batches; 0 computes in-process "
        "(default 0)",
    )
    serve_p.add_argument(
        "--timeout", type=float, default=60.0, help="per-point timeout",
    )
    serve_p.add_argument(
        "--batch-window", type=float, default=0.01, metavar="SECONDS",
        help="with --workers > 1, how long a miss waits to coalesce with "
        "others into one worker-pool job; in-process misses start at once "
        "(default 0.01)",
    )
    serve_p.add_argument(
        "--smoke", action="store_true",
        help="self-contained end-to-end smoke: ephemeral port, mixed "
        "hit/miss/dedup traffic over a real socket, counters asserted; "
        "runs on a fresh temporary store (deleted afterwards), not --store",
    )
    _add_obs_flags(serve_p)
    req_p = sub.add_parser(
        "request",
        help="build one RunRequest and resolve it — against a running "
        "'serve' instance, or --local in-process",
    )
    _add_request_flags(req_p)
    req_p.add_argument(
        "--with-metrics", action="store_true",
        help="set the request's metrics flag: the computed record embeds "
        "its Observation registry (separate cache entry)",
    )
    req_p.add_argument("--host", default="127.0.0.1", help="server address")
    req_p.add_argument("--port", type=int, default=7997, help="server port")
    req_p.add_argument(
        "--local", action="store_true",
        help="no server: run an in-process service against --store",
    )
    req_p.add_argument(
        "--store", metavar="DIR",
        help="store root for --local (default: a fresh temp dir)",
    )
    req_p.add_argument(
        "--shards", type=int, default=16, help="shard count for --local",
    )
    req_p.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="submit N concurrent copies (exercises in-flight dedup)",
    )
    req_p.add_argument(
        "--dry-run", action="store_true",
        help="print the request document and its cache key; run nothing",
    )
    req_p.add_argument(
        "--json", action="store_true",
        help="also print the raw response document(s)",
    )
    wl_p = sub.add_parser(
        "workloads",
        help="the workload library: list/describe/run registered "
        "workloads (see docs/WORKLOADS.md)",
    )
    wsub = wl_p.add_subparsers(dest="wcommand", required=True)
    wl_list = wsub.add_parser(
        "list", help="one line per registered workload with its sweep space"
    )
    wl_list.add_argument("--family", help="only this family")
    wl_desc = wsub.add_parser(
        "describe", help="full space/quick/defaults/model card for one workload"
    )
    wl_desc.add_argument("name", help="registered workload name")
    wl_run = wsub.add_parser(
        "run",
        help="run workload points end-to-end via RunRequest, fold the "
        "analytic cost model into the ledger check, validate output",
    )
    wl_run.add_argument("name", nargs="?", help="workload name (or --all)")
    wl_run.add_argument(
        "--all", action="store_true", help="run every registered workload"
    )
    wl_run.add_argument("--family", help="with --all: only this family")
    wl_run.add_argument(
        "--quick", action="store_true",
        help="sweep the quick grid instead of one defaults point",
    )
    wl_run.add_argument("--p", type=int, help="processor count override")
    wl_run.add_argument("--seed", type=int, default=0, help="run seed")
    wl_run.add_argument(
        "--arg", action="append", metavar="K=V",
        help="workload parameter override (repeatable)",
    )
    wl_run.add_argument(
        "--chain", help="layer chain override (default: the workload's model)"
    )
    wl_run.add_argument(
        "--kernel", choices=KERNELS, default=None,
        help="event-queue kernel for layers that own a queue",
    )
    wl_run.add_argument(
        "--no-validate", action="store_true",
        help="skip reference-output validation",
    )
    wl_run.add_argument(
        "--verbose", action="store_true",
        help="print the full residual table for every point",
    )
    wl_run.add_argument(
        "--out", metavar="OUT.json", help="write a JSON artifact of all runs"
    )
    args = parser.parse_args(argv)
    handler = {
        "list": _list,
        "run": _run_experiments,
        "campaign": _campaign,
        "inspect": _inspect,
        "dist": _dist,
        "serve": _serve,
        "request": _request,
        "workloads": _workloads,
    }[args.command]
    try:
        return handler(args)
    except (ParameterError, ProgramError, TopologyError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
