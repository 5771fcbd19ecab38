"""Synchronous store-and-forward packet routing on a topology.

The simulator moves packets along precomputed (source-routed) paths:

* per step, each *directed edge* transmits at most one packet;
* **multi-port** nodes may use all their incident edges in one step;
  **single-port** nodes transmit on at most one outgoing edge per step
  (the Table 1 distinction between the two hypercube rows);
* queues are per outgoing edge, FIFO by default, optionally
  farthest-to-go-first (a classical greedy priority for meshes);
* a packet arriving at its destination node is absorbed.

Paths come from each topology's deterministic oblivious route, optionally
via a Valiant random intermediate host ("two-phase" routing — the
standard way to make the deterministic routes h-relation-worst-case
proof; used by the Table 1 experiment on the hypercube-like networks).

The routing time of a balanced h-relation then behaves as
``T(h) ~= gamma(p) * h + delta(p)``, and the experiment extracts
``(gamma, delta)`` by an affine fit over ``h``.

The ``"event"`` kernel has two implementations of one schedule and picks
between them from the relation itself (:func:`_vectorizes`): a scalar
active-set loop, which serves every configuration, and a numpy array
pass over all transmitting links at once, which serves multi-port FIFO
relations wide enough to amortize its per-step array overhead.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.engine.core import counters_for
from repro.engine.result import MachineResult
from repro.errors import RoutingError
from repro.networks.topology import Topology
from repro.perf.counters import KernelCounters
from repro.perf.event_queue import KERNELS
from repro.routing.workloads import balanced_h_relation
from repro.util.rng import make_rng

__all__ = ["RoutingConfig", "RoutingOutcome", "route_packets", "route_h_relation"]

#: The event kernel vectorizes a multi-port FIFO relation iff it has at
#: least this many packets ...
VECTOR_MIN_PACKETS = 512
#: ... and at least this many times ``h``, the most packets any node
#: sends or receives.  Below either bound most steps move only a handful
#: of packets (a hot spot drains one packet per link per step), and the
#: array pass's fixed per-step cost loses to the scalar loop.
VECTOR_MIN_RATIO = 8


@dataclass(frozen=True)
class RoutingConfig:
    """Simulator knobs.

    ``single_port``: one outgoing transmission per node per step.
    ``priority``: ``"fifo"`` or ``"farthest"`` (most remaining hops first).
    ``valiant``: route via a uniformly random intermediate host.
    ``max_steps``: safety valve.
    ``link_fault_rate``: probability in ``[0, 1)`` that any single
    transmission attempt fails (the packet stays queued and is retried on
    a later step — a lossy link with link-level retransmission).  Faults
    are drawn from a stream seeded by ``seed``, so a fixed seed
    reproduces the exact same fault pattern.
    ``kernel``: ``"event"`` visits only edges/nodes with queued packets
    each step (active-set scheduling), moving a wide multi-port FIFO
    relation in one numpy array pass per step (see :func:`_vectorizes`);
    ``"tick"`` is the reference scan over every edge ever created.
    Both kernels execute bit-identically — same transmission order, same
    fault-stream draws — the kernel only changes how the next actionable
    work is *found and dispatched*.
    """

    single_port: bool = False
    priority: str = "fifo"
    valiant: bool = False
    max_steps: int = 1_000_000
    link_fault_rate: float = 0.0
    seed: int = 0
    kernel: str = "event"

    def __post_init__(self) -> None:
        if not 0.0 <= self.link_fault_rate < 1.0:
            raise RoutingError(
                f"link_fault_rate must be in [0, 1), got {self.link_fault_rate}"
                " (at 1.0 no packet ever advances)"
            )
        if self.kernel not in KERNELS:
            raise RoutingError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )


@dataclass
class RoutingOutcome(MachineResult):
    """Result of routing one packet set.

    ``retransmissions`` counts transmission attempts that a faulty link
    swallowed (always 0 when ``link_fault_rate == 0``).

    ``kernel`` accounts for the simulator's own work: ``events`` counts
    transmission attempts, ``batches`` synchronous steps driven,
    ``ticks_skipped`` the idle edge (or node, under single-port) scans
    the event kernel avoided relative to a full per-step scan, and
    ``queue_highwater`` the peak edge-queue length (== ``max_queue``).
    """

    time: int
    packets: int
    total_hops: int
    max_queue: int
    retransmissions: int = 0
    kernel: KernelCounters = field(default_factory=KernelCounters)

    row_fields = (
        "time",
        "packets",
        "total_hops",
        "max_queue",
        "retransmissions",
        "avg_path",
    )

    @property
    def avg_path(self) -> float:
        return self.total_hops / self.packets if self.packets else 0.0


def route_packets(
    topo: Topology,
    paths: list[list[int]],
    config: RoutingConfig = RoutingConfig(),
    *,
    obs=None,
    layer: str = "network",
) -> RoutingOutcome:
    """Simulate the synchronous delivery of packets along ``paths``.

    Each path is a node sequence (from the packet's source node to its
    destination node).  Returns timing statistics; raises
    :class:`~repro.errors.RoutingError` if ``max_steps`` is exceeded.

    ``obs`` (an enabled :class:`~repro.obs.Observation`) additionally
    collects per-link occupancy counts and — when tracing — one span per
    successful hop; the recording is purely additive and never alters
    transmission order (the golden-trace suite pins this).
    """
    if config.priority not in ("fifo", "farthest"):
        raise RoutingError(f"unknown priority {config.priority!r}")
    if obs is not None and not obs.enabled:
        obs = None
    if config.kernel == "tick":
        route = _route_packets_tick
    elif _vectorizes(paths, config):
        route = _route_packets_array
    else:
        route = _route_packets_event
    outcome, occupancy, hops = route(paths, config, obs)
    if obs is not None:
        obs.observe_routing(outcome, occupancy, hops, layer=layer)
    return outcome


def _vectorizes(paths: list[list[int]], config: RoutingConfig) -> bool:
    """Whether the event kernel routes ``paths`` with the array pass.

    Only multi-port FIFO relations qualify, and only wide ones: at least
    :data:`VECTOR_MIN_PACKETS` packets and at least
    :data:`VECTOR_MIN_RATIO` times ``h``, the most packets any node
    sends or receives.  A balanced h-relation on ``p`` nodes has
    ``n = p * h`` packets, so it vectorizes once ``p >= 8`` and
    ``n >= 512``; a gather of ``n`` packets into one node has ``h = n``
    and never does.
    """
    n = len(paths)
    if config.single_port or config.priority != "fifo" or n < VECTOR_MIN_PACKETS:
        return False
    h = max(
        max(Counter(map(itemgetter(0), paths)).values()),
        max(Counter(map(itemgetter(-1), paths)).values()),
    )
    return n >= VECTOR_MIN_RATIO * h


def _route_packets_event(
    paths: list[list[int]], config: RoutingConfig, obs=None
):
    """Active-set kernel: per step, visit only edges that hold packets.

    Equivalence with the tick scan: edges are numbered in creation order,
    and each step iterates the *sorted* set of non-empty edge numbers —
    exactly the sequence the reference scan produces by walking every
    edge and skipping empty queues.  Under single-port the same holds for
    nodes, with the per-node rotation untouched.  Transmission order and
    fault-stream draws are therefore identical by construction.
    """
    pos = [0] * len(paths)
    total_hops = 0
    counters = counters_for("event")
    # Observation recording (inactive: everything below is None-guarded).
    occupancy: dict[tuple[int, int], int] | None = {} if obs is not None else None
    hops: list[tuple[int, int, int, int]] | None = (
        [] if (obs is not None and obs.tracing) else None
    )
    # Edge state, indexed by creation sequence number.
    eseq: dict[tuple[int, int], int] = {}
    equeues: list[deque[int]] = []
    edge_of: list[tuple[int, int]] = []
    edge_node: list[int] = []
    active: set[int] = set()  # seqs of non-empty edge queues
    # Node state (single-port arbitration), indexed by creation order.
    node_idx: dict[int, int] = {}
    node_edges: list[list[int]] = []  # per node: its edge seqs, in creation order
    node_pending: list[int] = []  # per node: packets queued on its out-edges
    active_nodes: set[int] = set()
    max_queue = 0
    sp = config.single_port  # node bookkeeping only matters under single-port

    def enqueue(pkt: int) -> bool:
        """Queue packet ``pkt`` on its next edge; False if already home."""
        nonlocal max_queue
        path = paths[pkt]
        i = pos[pkt]
        if i + 1 >= len(path):
            return False
        edge = (path[i], path[i + 1])
        s = eseq.get(edge)
        if s is None:
            s = eseq[edge] = len(equeues)
            equeues.append(deque())
            edge_of.append(edge)
            if sp:
                ni = node_idx.get(edge[0])
                if ni is None:
                    ni = node_idx[edge[0]] = len(node_edges)
                    node_edges.append([])
                    node_pending.append(0)
                node_edges[ni].append(s)
                edge_node.append(ni)
        q = equeues[s]
        q.append(pkt)
        if len(q) > max_queue:
            max_queue = len(q)
        if sp:
            ni = edge_node[s]
            node_pending[ni] += 1
            active_nodes.add(ni)
        else:
            active.add(s)
        return True

    def note_pop(s: int) -> None:
        """Deactivate drained edges/nodes after a successful transmission."""
        if sp:
            ni = edge_node[s]
            node_pending[ni] -= 1
            if not node_pending[ni]:
                active_nodes.discard(ni)
        elif not equeues[s]:
            active.discard(s)

    live = 0
    for pkt, path in enumerate(paths):
        total_hops += len(path) - 1
        if enqueue(pkt):
            live += 1

    farthest = config.priority == "farthest"
    fault_rate = config.link_fault_rate
    fault_rng = make_rng(config.seed) if fault_rate > 0 else None
    retransmissions = 0

    def link_ok() -> bool:
        return fault_rng is None or fault_rng.random() >= fault_rate

    def note_obs(s: int, pkt: int, time: int) -> None:
        edge = edge_of[s]
        occupancy[edge] = occupancy.get(edge, 0) + 1
        if hops is not None:
            hops.append((time, pkt, edge[0], edge[1]))

    time = 0
    while live:
        time += 1
        if time > config.max_steps:
            raise RoutingError(f"routing exceeded max_steps={config.max_steps}")
        counters.batches += 1
        moved: list[int] = []
        attempted = 0
        if config.single_port:
            order = sorted(active_nodes)
            counters.ticks_skipped += len(node_edges) - len(order)
            for ni in order:
                edges = node_edges[ni]
                n_e = len(edges)
                for off in range(n_e):
                    s = edges[(time + off) % n_e]
                    q = equeues[s]
                    if q:
                        attempted += 1
                        if link_ok():
                            pkt = _pop(q, paths, pos, farthest)
                            moved.append(pkt)
                            note_pop(s)
                            if occupancy is not None:
                                note_obs(s, pkt, time)
                        else:
                            retransmissions += 1
                        break
        else:
            n_edges = len(equeues)
            if len(active) == n_edges:
                order = range(n_edges)  # everything active: no sort needed
            else:
                order = sorted(active)
                counters.ticks_skipped += n_edges - len(active)
            for s in order:
                q = equeues[s]
                attempted += 1
                if link_ok():
                    pkt = _pop(q, paths, pos, farthest)
                    moved.append(pkt)
                    note_pop(s)
                    if occupancy is not None:
                        note_obs(s, pkt, time)
                else:
                    retransmissions += 1
        if not attempted:
            raise RoutingError("routing deadlock: live packets but no moves")
        counters.events += attempted
        for pkt in moved:
            pos[pkt] += 1
            if not enqueue(pkt):
                live -= 1

    counters.queue_highwater = max_queue
    outcome = RoutingOutcome(
        time=time,
        packets=len(paths),
        total_hops=total_hops,
        max_queue=max_queue,
        retransmissions=retransmissions,
        kernel=counters,
    )
    return outcome, occupancy, hops


def _route_packets_tick(
    paths: list[list[int]], config: RoutingConfig, obs=None
):
    """Reference kernel: scan every created edge (or node) each step."""
    # Packet state: index into its path (position of current node).
    pos = [0] * len(paths)
    total_hops = 0
    counters = counters_for("tick")
    occupancy: dict[tuple[int, int], int] | None = {} if obs is not None else None
    hops: list[tuple[int, int, int, int]] | None = (
        [] if (obs is not None and obs.tracing) else None
    )
    queues: dict[tuple[int, int], deque[int]] = {}
    node_out: dict[int, list[tuple[int, int]]] = {}

    def enqueue(pkt: int) -> bool:
        """Queue packet ``pkt`` on its next edge; False if already home."""
        path = paths[pkt]
        i = pos[pkt]
        if i + 1 >= len(path):
            return False
        edge = (path[i], path[i + 1])
        q = queues.get(edge)
        if q is None:
            q = queues[edge] = deque()
            node_out.setdefault(edge[0], []).append(edge)
        q.append(pkt)
        return True

    live = 0
    for pkt, path in enumerate(paths):
        total_hops += len(path) - 1
        if enqueue(pkt):
            live += 1
    max_queue = max((len(q) for q in queues.values()), default=0)

    farthest = config.priority == "farthest"
    fault_rate = config.link_fault_rate
    fault_rng = make_rng(config.seed) if fault_rate > 0 else None
    retransmissions = 0

    def link_ok() -> bool:
        return fault_rng is None or fault_rng.random() >= fault_rate

    def note_obs(edge: tuple[int, int], pkt: int, time: int) -> None:
        occupancy[edge] = occupancy.get(edge, 0) + 1
        if hops is not None:
            hops.append((time, pkt, edge[0], edge[1]))

    time = 0
    while live:
        time += 1
        if time > config.max_steps:
            raise RoutingError(f"routing exceeded max_steps={config.max_steps}")
        counters.batches += 1
        moved: list[int] = []
        attempted = 0
        if config.single_port:
            # Each node transmits on one outgoing edge this step; rotate
            # fairly over its edges by time to avoid starvation.  A faulty
            # link still consumes the node's port for the step.
            for node, edges in node_out.items():
                n_e = len(edges)
                for off in range(n_e):
                    edge = edges[(time + off) % n_e]
                    q = queues.get(edge)
                    if q:
                        attempted += 1
                        if link_ok():
                            pkt = _pop(q, paths, pos, farthest)
                            moved.append(pkt)
                            if occupancy is not None:
                                note_obs(edge, pkt, time)
                        else:
                            retransmissions += 1
                        break
        else:
            for edge, q in queues.items():
                if q:
                    attempted += 1
                    if link_ok():
                        pkt = _pop(q, paths, pos, farthest)
                        moved.append(pkt)
                        if occupancy is not None:
                            note_obs(edge, pkt, time)
                    else:
                        retransmissions += 1
        if not attempted:
            raise RoutingError("routing deadlock: live packets but no moves")
        counters.events += attempted
        for pkt in moved:
            pos[pkt] += 1
            if not enqueue(pkt):
                live -= 1
        if queues:
            max_queue = max(max_queue, max(len(q) for q in queues.values()))

    counters.queue_highwater = max_queue
    outcome = RoutingOutcome(
        time=time,
        packets=len(paths),
        total_hops=total_hops,
        max_queue=max_queue,
        retransmissions=retransmissions,
        kernel=counters,
    )
    return outcome, occupancy, hops


def _route_packets_array(
    paths: list[list[int]], config: RoutingConfig, obs=None
):
    """The event kernel's array pass for multi-port FIFO relations.

    Link state lives in numpy arrays: every hop of every path gets a
    compact link id in ``hop_cid`` (packet ``k``'s hops start at
    ``hop_off[k]``, and ``pos[k]`` counts the hops it has taken), and
    each edge queue is an intrusive linked list over packets
    (``qhead[e]``, ``qtail[e]``, ``qnext[pkt]``, ``qlen[e]``) — every
    packet sits in at most one queue, so one ``qnext`` array suffices.
    Each step moves every transmitting packet at once: batched fault
    draws, gathered FIFO pops, vectorized arrival detection, and grouped
    stable-sort appends.

    Bit-identity with the scalar kernels holds because (a) the active
    edges are taken in sorted edge-creation order — the same sequence
    the reference scan produces, (b) a batched ``rng.random(n)`` draws
    the exact scalar fault stream (numpy's Generator fills arrays with
    sequential draws), (c) FIFO append order is preserved by the stable
    sort, and (d) new edges are numbered in first-use order within each
    batch.  It serves only the relations :func:`_vectorizes` selects, so
    it may assume a nonempty multi-port FIFO relation.
    """
    n_pkts = len(paths)
    counters = counters_for("event")
    occupancy: dict[tuple[int, int], int] | None = {} if obs is not None else None
    hops: list[tuple[int, int, int, int]] | None = (
        [] if (obs is not None and obs.tracing) else None
    )

    path_len = np.fromiter(map(len, paths), dtype=np.int64, count=n_pkts)
    path_end = np.cumsum(path_len)
    total_hops = int(path_end[-1]) - n_pkts
    hop_off = path_end - path_len - np.arange(n_pkts)

    # Pack each node pair (u, v) of the concatenated paths as the key
    # u*K + v, then drop the pairs that straddle two paths: the rest are
    # the hops, in path order.  A link's compact id is its key's rank
    # among the distinct keys.
    flat = np.fromiter(chain.from_iterable(paths), np.int64, int(path_end[-1]))
    K = int(flat.max()) + 1
    hop_keys = flat[:-1] * K
    hop_keys += flat[1:]
    del flat
    hop_keys = np.delete(hop_keys, path_end[:-1] - 1)
    cand_keys = np.sort(hop_keys)
    cand_keys = cand_keys[np.concatenate(([True], cand_keys[1:] != cand_keys[:-1]))]
    n_cand = int(cand_keys.size)
    hop_cid = np.searchsorted(cand_keys, hop_keys)
    del hop_keys

    # Edge state, indexed by creation-order edge id (eid).
    eid_of_cid = np.full(n_cand, -1, dtype=np.int64)
    key_of_eid = np.zeros(n_cand, dtype=np.int64)
    qhead = np.zeros(n_cand, dtype=np.int64)
    qtail = np.zeros(n_cand, dtype=np.int64)
    qlen = np.zeros(n_cand, dtype=np.int64)
    qnext = np.zeros(n_pkts, dtype=np.int64)
    occ_counts = np.zeros(n_cand, dtype=np.int64) if occupancy is not None else None
    pos = np.zeros(n_pkts, dtype=np.int64)
    n_edges = 0
    max_queue = 0

    def append(movers: np.ndarray) -> None:
        """FIFO-append ``movers`` (in order) onto their current-hop edges."""
        nonlocal n_edges, max_queue
        if not movers.size:
            return
        cids = hop_cid[hop_off[movers] + pos[movers]]
        # Group movers by link; the stable sort keeps mover order within
        # groups, so a group's first entry is its link's first use.
        srt = np.argsort(cids, kind="stable")
        spkts = movers[srt]
        scids = cids[srt]
        same = scids[1:] == scids[:-1]
        starts = np.flatnonzero(np.concatenate(([True], ~same)))
        stops = np.flatnonzero(np.concatenate((~same, [True])))
        gcids = scids[starts]
        new = eid_of_cid[gcids] < 0
        if new.any():
            # Number fresh links in first-use order — the scalar kernels'
            # creation-order numbering.
            fresh = gcids[new][np.argsort(srt[starts][new])]
            ids = np.arange(n_edges, n_edges + fresh.size, dtype=np.int64)
            eid_of_cid[fresh] = ids
            key_of_eid[ids] = cand_keys[fresh]
            n_edges += int(fresh.size)
        ueids = eid_of_cid[gcids]
        # Chain consecutive same-link movers, then splice each group.
        qnext[spkts[:-1][same]] = spkts[1:][same]
        firsts = spkts[starts]
        was_empty = qlen[ueids] == 0
        qhead[ueids[was_empty]] = firsts[was_empty]
        grew = ~was_empty
        qnext[qtail[ueids[grew]]] = firsts[grew]
        qtail[ueids] = spkts[stops]
        qlen[ueids] += stops - starts + 1
        peak = int(qlen[ueids].max())
        if peak > max_queue:
            max_queue = peak

    movers0 = np.flatnonzero(path_len >= 2)
    live = int(movers0.size)
    # Enqueue in slices: one append over every packet would hold several
    # packet-sized temporaries at once.  Appends keep their movers'
    # order, so the queues and link numbering come out the same.
    for i in range(0, live, 2048):
        append(movers0[i : i + 2048])

    fault_rate = config.link_fault_rate
    fault_rng = make_rng(config.seed) if fault_rate > 0 else None
    retransmissions = 0

    time = 0
    while live:
        time += 1
        if time > config.max_steps:
            raise RoutingError(f"routing exceeded max_steps={config.max_steps}")
        counters.batches += 1
        actives = np.flatnonzero(qlen[:n_edges] > 0)
        n_active = int(actives.size)
        counters.ticks_skipped += n_edges - n_active
        if not n_active:
            raise RoutingError("routing deadlock: live packets but no moves")
        counters.events += n_active
        if fault_rng is not None:
            ok = fault_rng.random(n_active) >= fault_rate
            retransmissions += n_active - int(ok.sum())
            edges = actives[ok]
        else:
            edges = actives
        pkts = qhead[edges]
        qhead[edges] = qnext[pkts]
        qlen[edges] -= 1
        if occ_counts is not None:
            occ_counts[edges] += 1
            if hops is not None:
                us, vs = np.divmod(key_of_eid[edges], K)
                for pkt, u, v in zip(pkts.tolist(), us.tolist(), vs.tolist()):
                    hops.append((time, pkt, u, v))
        pos[pkts] += 1
        arrived = pos[pkts] + 1 >= path_len[pkts]
        live -= int(arrived.sum())
        append(pkts[~arrived])

    counters.queue_highwater = max_queue
    if occupancy is not None:
        for eid in range(n_edges):
            c = int(occ_counts[eid])
            if c:
                key = int(key_of_eid[eid])
                occupancy[(key // K, key % K)] = c
    outcome = RoutingOutcome(
        time=time,
        packets=n_pkts,
        total_hops=total_hops,
        max_queue=max_queue,
        retransmissions=retransmissions,
        kernel=counters,
    )
    return outcome, occupancy, hops


def _pop(q: deque, paths: list[list[int]], pos: list[int], farthest: bool) -> int:
    if not farthest or len(q) == 1:
        return q.popleft()
    best_i = 0
    best_rem = -1
    for i, pkt in enumerate(q):
        rem = len(paths[pkt]) - 1 - pos[pkt]
        if rem > best_rem:
            best_rem = rem
            best_i = i
    pkt = q[best_i]
    del q[best_i]
    return pkt


def build_paths(
    topo: Topology,
    pairs: list[tuple[int, int]],
    *,
    valiant: bool = False,
    seed: int | np.random.Generator = 0,
    routes: dict[tuple[int, int], list[int]] | None = None,
) -> list[list[int]]:
    """Source-route each ``(src_host, dst_host)`` pair, optionally through
    a uniformly random intermediate host (Valiant's two-phase trick).

    Routes are oblivious, a pure function of the node pair, and an
    h-relation asks for the same pairs over and over, so they are
    memoized in ``routes``: pass one dict to share the memo across the
    calls of one run, or leave it ``None`` for a memo private to this
    call.  The memo lives only as long as its owner, so a topology
    shared between runs holds no routes.
    """
    if routes is None:
        routes = {}
    rng = make_rng(seed) if valiant else None
    paths: list[list[int]] = []
    hosts = topo.hosts
    route = topo.route
    for src, dst in pairs:
        u, v = hosts[src], hosts[dst]
        if valiant and u != v:
            w = hosts[int(rng.integers(0, len(hosts)))]
            first = routes.get((u, w))
            if first is None:
                first = routes[(u, w)] = route(u, w)
            second = routes.get((w, v))
            if second is None:
                second = routes[(w, v)] = route(w, v)
            paths.append(first + second[1:])
        else:
            path = routes.get((u, v))
            if path is None:
                path = routes[(u, v)] = route(u, v)
            # Copy: the simulator's packets may share endpoint pairs, and
            # memoized paths are shared read-only structure.
            paths.append(list(path))
    return paths


def route_h_relation(
    topo: Topology,
    h: int,
    *,
    seed: int = 0,
    config: RoutingConfig = RoutingConfig(),
    obs=None,
    layer: str = "network",
) -> RoutingOutcome:
    """Generate a balanced h-relation on the topology's hosts and route it."""
    pairs = balanced_h_relation(topo.p, h, seed=seed)
    paths = build_paths(topo, pairs, valiant=config.valiant, seed=seed + 1)
    return route_packets(topo, paths, config, obs=obs, layer=layer)
