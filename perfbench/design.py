"""Workload designs: what each benchmark workload sends, derived from a seed.

Every request a workload can send is drawn from a fixed, finite
*universe* of request documents, so the reference statistics of every
one of them can be recorded once (``digests.json``, written by
``record_digests.py``) and checked on every run, whatever the seed.
The seed only chooses which members of the universe are sent and in
which order; the program under test receives nothing but the generated
request documents.

The simulator workloads are *stratified*: a run is a sequence of
rounds, each round sends every shape of the design once in a seeded
order, and each shape takes a fresh data seed per round.  Every seed
therefore sends the same mix of work, which keeps throughput and
latency percentiles comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Data seeds per shape in the simulator universes.
SIM_DATA_SEEDS = 40

# (chain, workload, p, args).  The smallest-p shapes form each
# workload's "cheap" latency class.
SIM_SHAPES = {
    "sim-theorems": [
        ("bsp-on-logp", "prefix", 8, {}),
        ("bsp-on-logp", "prefix", 16, {}),
        ("bsp-on-logp", "prefix", 32, {}),
        ("bsp-on-logp", "sample-sort-unit", 8, {}),
        ("bsp-on-logp", "jacobi", 8, {}),
        ("bsp-on-logp", "jacobi", 16, {}),
        ("bsp-on-logp", "radix-sort", 8, {}),
        ("bsp-on-logp", "matvec", 8, {}),
        ("bsp-on-logp", "matvec", 16, {}),
        ("bsp-on-logp", "fft", 8, {}),
        ("bsp-on-logp", "gradient", 8, {}),
        ("bsp-on-logp-on-network", "prefix", 16, {}),
        ("bsp-on-logp-on-network", "prefix", 32, {}),
        ("bsp-on-logp-on-network", "sample-sort-unit", 8, {}),
        ("bsp-on-logp-on-network", "jacobi", 8, {}),
        ("bsp-on-logp-on-network", "matvec", 16, {}),
        ("bsp-on-logp-on-network", "fft", 8, {}),
        ("bsp-on-logp-on-network", "radix-sort", 8, {}),
        ("logp-on-bsp", "ring", 16, {}),
        ("logp-on-bsp", "ring", 32, {}),
        ("logp-on-bsp", "alltoall", 32, {}),
        ("logp-on-bsp", "alltoall", 64, {}),
        ("logp-on-bsp", "sum", 64, {}),
        ("logp-on-bsp", "broadcast", 64, {}),
    ],
    "sim-network": [
        ("bsp-on-network", "fft", 64, {"points_per_proc": 256}),
        ("bsp-on-network", "radix-sort", 64, {"keys_per_proc": 32}),
        ("bsp-on-network", "radix-sort", 128, {"keys_per_proc": 32}),
        ("bsp-on-network", "radix-sort", 256, {"keys_per_proc": 32}),
        ("bsp-on-network", "matvec", 64, {"n": 256}),
        ("bsp-on-network", "matvec", 128, {"n": 256}),
        ("bsp-on-network", "sample-sort-unit", 64, {"keys_per_proc": 128}),
        ("bsp-on-network", "bitonic-sort", 64, {"keys_per_proc": 16}),
        ("bsp-on-network", "prefix", 256, {}),
        ("bsp-on-network", "jacobi", 256, {"n": 256}),
        ("bsp-on-network", "gradient", 256, {"n": 256}),
    ],
}

#: Native single-machine points of at most a millisecond each: the warm
#: set, the fresh points of ``serve-hot`` and the cheap misses of
#: ``serve-cold``.  Kept short and alike, because a hit that arrives
#: while a fresh point computes waits for the interpreter lock.
CHEAP_SHAPES = [
    ("bsp", "prefix", 8, {}),
    ("bsp", "matvec", 4, {}),
    ("bsp", "fft", 4, {}),
    ("bsp", "radix-sort", 4, {}),
    ("bsp", "sample-sort-unit", 4, {}),
    ("bsp", "jacobi", 4, {}),
    ("logp", "sum", 8, {}),
    ("logp", "broadcast", 8, {}),
]

#: Theorem-chain points of 40-65 ms each: the expensive misses of
#: ``serve-cold``.  All are data-oblivious and of similar cost, so the
#: latency tail does not depend on which of them a seed draws.
EXPENSIVE_SHAPES = [
    ("bsp-on-logp", "prefix", 16, {}),
    ("bsp-on-logp", "jacobi", 8, {}),
    ("bsp-on-logp", "gradient", 8, {}),
    ("bsp-on-logp-on-network", "prefix", 16, {}),
    ("bsp-on-logp-on-network", "jacobi", 8, {}),
]

WARM_SEEDS = range(0, 50)  # 400 warm points
FRESH_SEEDS = range(1000, 1500)  # 4000 fresh cheap points
EXPENSIVE_SEEDS = range(2000, 2060)  # 300 expensive points

# -- serving parameters --------------------------------------------------

#: Client connections the load generator opens.
CONNECTIONS = 2
#: serve-hot: slots per block and, per block and connection, the slots
#: that are dedup pairs (both connections send one fresh point together)
#: and solo cheap misses; every other slot is a warm hit.
HOT_BLOCK = 100
HOT_PAIR_SLOTS = 4
HOT_SOLO_SLOTS = 1
#: serve-cold: Poisson arrival rate (requests/s), well below the
#: server's capacity, and the expensive theorem-chain points among them.
#: One expensive arrival a second keeps a cheap miss behind one about a
#: twentieth of the time: p90 then sits among unblocked misses and p99
#: inside one head-of-line wait, neither on the knee between the two
#: (where a few arrivals more or less would move it a lot).
COLD_RATE = 50
COLD_EXPENSIVE_PER_S = 1

#: Server settings: the ``experiments serve`` defaults.
SERVER_ARGS = ["--workers", "0", "--batch-window", "0.01", "--shards", "16",
               "--timeout", "60"]


def request_doc(shape, seed: int) -> dict:
    """The request document a user would send for ``shape`` and ``seed``
    (kernel and metrics left at their defaults)."""
    chain, workload, p, args = shape
    doc = {"chain": chain, "workload": workload, "p": p, "seed": seed}
    if args:
        doc["args"] = dict(args)
    return doc


def universes() -> dict[str, list[dict]]:
    """Every request document each workload may send, by universe name.
    The digest table is aligned with these lists."""
    out = {}
    for name, shapes in SIM_SHAPES.items():
        out[name] = [
            request_doc(shape, seed)
            for shape in shapes
            for seed in range(SIM_DATA_SEEDS)
        ]
    out["warm"] = [request_doc(s, seed) for seed in WARM_SEEDS for s in CHEAP_SHAPES]
    out["fresh"] = [request_doc(s, seed) for seed in FRESH_SEEDS for s in CHEAP_SHAPES]
    out["expensive"] = [
        request_doc(s, seed) for seed in EXPENSIVE_SEEDS for s in EXPENSIVE_SHAPES
    ]
    return out


def design_hash() -> str:
    """Identity of the universes; a stale digest table is refused."""
    text = json.dumps(universes(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sim_rounds(workload: str, seed: int):
    """Endless stratified rounds for a ``sim-*`` workload.

    Yields lists of ``(universe_index, doc, cheap)``; each round holds
    every shape once, in a seeded order, with the next data seed of that
    shape's seeded permutation.
    """
    shapes = SIM_SHAPES[workload]
    cheap_p = min(s[2] for s in shapes)
    rng = random.Random(f"{workload}:{seed}")
    perms = []
    for _ in shapes:
        perm = list(range(SIM_DATA_SEEDS))
        rng.shuffle(perm)
        perms.append(perm)
    r = 0
    while True:
        order = list(range(len(shapes)))
        rng.shuffle(order)
        batch = []
        for i in order:
            d = perms[i][r % SIM_DATA_SEEDS]
            index = i * SIM_DATA_SEEDS + d
            batch.append((index, request_doc(shapes[i], d), shapes[i][2] == cheap_p))
        yield batch
        r += 1


def hot_block(seed: int, block: int):
    """One serve-hot block of ``HOT_BLOCK`` slots: ``(pairs, solos)``.

    ``pairs`` is the set of slots (shared by both connections) where
    every connection sends the same fresh point; ``solos[c]`` the slots
    where connection ``c`` sends a fresh point alone.  Every other slot
    is a warm hit.
    """
    rng = random.Random(f"serve-hot:{seed}:block:{block}")
    slots = list(range(HOT_BLOCK))
    rng.shuffle(slots)
    pairs = set(slots[:HOT_PAIR_SLOTS])
    rest = slots[HOT_PAIR_SLOTS:]
    solos = [set(rng.sample(rest, HOT_SOLO_SLOTS)) for _ in range(CONNECTIONS)]
    return pairs, solos


def cold_schedule(seed: int, seconds: float, n_fresh: int, n_expensive: int):
    """Seeded Poisson arrivals for serve-cold, stratified by second.

    Each second of the run is a Poisson process conditioned on its
    count: exactly ``COLD_RATE`` arrival times drawn uniformly over it,
    ``COLD_EXPENSIVE_PER_S`` of them expensive (pro rata in a last,
    partial second).  Every seed thus sends the same mix.  Returns
    ``[(offset_s, universe, index)]`` with ``universe`` ``fresh`` (a
    cheap miss) or ``expensive``; no index repeats, so every request is
    a distinct miss.
    """
    rng = random.Random(f"serve-cold:{seed}")
    arrivals = []
    for start in range(math.ceil(seconds)):
        width = min(1.0, seconds - start)
        n = round(COLD_RATE * width)
        heavy = set(rng.sample(range(n), min(n, round(COLD_EXPENSIVE_PER_S * width))))
        times = sorted(start + rng.uniform(0.0, width) for _ in range(n))
        arrivals += [(t, i in heavy) for i, t in enumerate(times)]
    n_exp = sum(h for _t, h in arrivals)
    fresh = iter(rng.sample(range(n_fresh), len(arrivals) - n_exp))
    expensive = iter(rng.sample(range(n_expensive), n_exp))
    return [
        (t, "expensive", next(expensive)) if h else (t, "fresh", next(fresh))
        for t, h in arrivals
    ]
