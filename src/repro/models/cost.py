"""Every closed-form cost expression stated in the paper, as executable code.

The benchmark harness compares times *measured* on the simulated machines
against these predictions.  The paper's bounds are asymptotic; functions
here return the bound with its explicit constant where the paper gives one
(e.g. ``T_CB <= 3(L+o) log p / log(1+ceil(L/G))``) and with constant 1
otherwise, so callers compare shapes/ratios rather than absolute values.

Section references follow the Algorithmica text reproduced in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.params import BSPParams, LogPParams
from repro.util.intmath import ceil_div, log_star

__all__ = [
    "bsp_superstep_cost",
    "theorem1_superstep_cost",
    "theorem1_slowdown",
    "stalling_sim_slowdown",
    "cb_time_upper",
    "CB_ENGINE_SLACK",
    "cb_time_lower",
    "cb_tree_arity",
    "t_seq_sort",
    "t_sort_aks",
    "t_sort_cubesort",
    "t_route_small",
    "t_route_deterministic",
    "slowdown_S",
    "theorem3_num_batches",
    "theorem3_beta",
    "theorem3_time_bound",
    "theorem3_failure_bound",
    "stalling_worst_case",
    "TopologyCosts",
    "TABLE1",
]


# ---------------------------------------------------------------------------
# BSP basics and Theorem 1 (Section 3)
# ---------------------------------------------------------------------------

def bsp_superstep_cost(params: BSPParams, w: int, h: int) -> int:
    """Paper eq. (1): ``T = w + g*h + l``."""
    return params.superstep_cost(w, h)


def theorem1_superstep_cost(bsp: BSPParams, logp: LogPParams) -> int:
    """BSP cost of simulating one LogP cycle of ``ceil(L/2)`` steps (Thm 1).

    Each cycle performs at most ``ceil(L/2)`` local operations per processor
    and routes an h-relation with ``h <= ceil(L/G)`` (stall-freedom bounds
    the per-destination traffic of a cycle by the capacity constraint).
    """
    cycle = ceil_div(logp.L, 2)
    h = logp.capacity
    return bsp.superstep_cost(cycle, h)


def theorem1_slowdown(bsp: BSPParams, logp: LogPParams) -> float:
    """Predicted slowdown of the Theorem 1 simulation.

    ``O(1 + g/G + l/L)``: the cycle of ``L/2`` LogP steps costs
    ``L/2 + g*ceil(L/G) + l`` in BSP.
    """
    cycle = ceil_div(logp.L, 2)
    return theorem1_superstep_cost(bsp, logp) / cycle


def stalling_sim_slowdown(bsp: BSPParams, logp: LogPParams) -> float:
    """Slowdown ``O(((l + g)/G) log p)`` for simulating *stalling* LogP
    cycles on BSP via sorting/prefix preprocessing (end of Section 3)."""
    return ((bsp.l + bsp.g) / logp.G) * max(1.0, math.log2(logp.p))


# ---------------------------------------------------------------------------
# Combine-and-Broadcast (Section 4.1)
# ---------------------------------------------------------------------------

def cb_tree_arity(params: LogPParams) -> int:
    """Arity of the CB tree: ``max{2, ceil(L/G)}``."""
    return max(2, params.capacity)


def cb_time_upper(params: LogPParams) -> float:
    """Paper's explicit upper bound ``3 (L+o) log p / log(1 + ceil(L/G))``.

    For ``p = 1`` the CB is vacuous and the bound is 0.
    """
    if params.p == 1:
        return 0.0
    return 3.0 * (params.L + params.o) * math.log2(params.p) / math.log2(1 + params.capacity)


#: Measured ``T_CB`` may exceed :func:`cb_time_upper` by this factor: the
#: engine charges a per-acquisition gap that the paper's constant-3
#: per-level budget omits (measured/upper reaches 1.75 at p <= 512).
CB_ENGINE_SLACK = 2.2


def cb_time_lower(params: LogPParams) -> float:
    """Proposition 1 lower bound ``Omega(L log p / log(1 + ceil(L/G)))``
    (returned with constant 1)."""
    if params.p == 1:
        return 0.0
    return params.L * math.log2(params.p) / math.log2(1 + params.capacity)


# ---------------------------------------------------------------------------
# Sorting (Section 4.2)
# ---------------------------------------------------------------------------

def t_seq_sort(r: int, p: int) -> int:
    """Local sort of ``r`` keys in range ``[0, p]``:
    ``r * min{log r, ceil(log p / log r)}`` (Radixsort; paper Section 4.2).

    For ``r <= 2`` the min-term is taken as 1 (a constant number of passes).
    """
    if r <= 0:
        return 0
    if r <= 2:
        return r
    log_r = math.log2(r)
    passes = min(log_r, ceil_div(max(1, math.ceil(math.log2(max(2, p)))), max(1, math.floor(log_r))))
    return int(math.ceil(r * max(1.0, passes)))


def t_sort_aks(r: int, p: int, params: LogPParams) -> float:
    """AKS-based scheme: ``O((G r + L) log p)`` (paper Section 4.2).

    Our executable substitute is Batcher's bitonic network with
    ``O(log^2 p)`` depth; this function returns the *paper's* AKS bound.
    """
    if p == 1:
        return float(t_seq_sort(r, p))
    return (params.G * max(1, r) + params.L) * math.log2(p)


def t_sort_cubesort(
    r: int, p: int, params: LogPParams, *, include_log_star_term: bool = True
) -> float:
    """Cubesort-based scheme (paper Section 4.2):

    ``O( 25^{log* (pr) - log* r} * (log(pr)/log(r+1))^2 * (Tseq(r) + G r + L) )``

    At finite sizes the ``25^{log* pr - log* r}`` factor flips between 1
    and 25 as ``log*`` steps; pass ``include_log_star_term=False`` for the
    asymptotic-regime view (the paper itself drops the term from the
    slowdown ``S`` because it is constant where Cubesort is preferable).
    """
    if p == 1 or r == 0:
        return float(t_seq_sort(r, p))
    factor = (
        25 ** max(0, log_star(p * r) - log_star(r)) if include_log_star_term else 1
    )
    rounds = factor * (math.log2(p * r) / math.log2(r + 1)) ** 2
    return rounds * (t_seq_sort(r, p) + params.G * r + params.L)


def t_sort_best(r: int, p: int, params: LogPParams) -> float:
    """The better of the two schemes, as the protocol would choose."""
    return min(t_sort_aks(r, p, params), t_sort_cubesort(r, p, params))


# ---------------------------------------------------------------------------
# Routing h-relations (Section 4.2) and the slowdown S
# ---------------------------------------------------------------------------

def t_route_small(h: int, params: LogPParams) -> int:
    """Direct routing of an ``h``-relation with ``h <= ceil(L/G)``:
    ``2o + G(h-1) + L`` (<= 4L), paper Section 4.2."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if h == 0:
        return 0
    return 2 * params.o + params.G * (h - 1) + params.L


def t_route_deterministic(h: int, params: LogPParams) -> float:
    """Paper eq. (2): ``Trout(h) <= 2 T_CB + Tsort(r, p) + 2o + (G+2)h + L``.

    ``r`` is the max number sent by any processor; eq. (2) is stated with
    the sort on ``r`` — we evaluate at the worst case ``r = h``.
    """
    return (
        2.0 * cb_time_upper(params)
        + t_sort_best(h, params.p, params)
        + 2 * params.o
        + (params.G + 2) * h
        + params.L
    )


def slowdown_S(params: LogPParams, h: int) -> float:
    """The paper's slowdown expression (end of Section 4.2):

    ``S(L,G,p,h) = L log p / ((Gh+L) log(1+ceil(L/G)))
                   + min{ log p, ceil(log p/log(h+1))^2 *
                          (Tseq(h) + Gh + L)/(Gh+L) }``

    (The ``25^{log* ...}`` factor is dropped exactly as the paper drops it:
    it is constant in the regime where Cubesort is the better scheme.)
    ``S = O(log p)`` always, and ``S = O(1)`` for
    ``h = Omega(p^eps + L log p)``.
    """
    p, L, G = params.p, params.L, params.G
    if p == 1:
        return 1.0
    log_p = math.log2(p)
    denom = G * h + L
    sync_term = L * log_p / (denom * math.log2(1 + params.capacity))
    if h >= 1:
        cube_term = (math.ceil(log_p / math.log2(h + 1)) ** 2) * (
            (t_seq_sort(h, p) + G * h + L) / denom
        )
    else:
        cube_term = log_p
    return sync_term + min(log_p, cube_term)


# ---------------------------------------------------------------------------
# Randomized routing (Section 4.3, Theorem 3)
# ---------------------------------------------------------------------------

def theorem3_beta_hat(c1: float, c2: float) -> float:
    """``beta_hat = e^{2(c2+3)/c1} - 1`` from the Theorem 3 proof."""
    return math.exp(2.0 * (c2 + 3.0) / c1) - 1.0


def theorem3_beta(c1: float, c2: float) -> float:
    """``beta = 4 e^{2(c2+3)/c1}``: total time is ``<= beta * G * h``."""
    return 4.0 * math.exp(2.0 * (c2 + 3.0) / c1)


def theorem3_num_batches(h: int, params: LogPParams, beta_hat: float) -> int:
    """``R = (1 + beta_hat) * h / ceil(L/G)`` rounded up to >= 1."""
    if h <= 0:
        return 1
    return max(1, math.ceil((1.0 + beta_hat) * h / params.capacity))


def theorem3_time_bound(h: int, params: LogPParams, beta_hat: float) -> float:
    """Round-phase bound ``2 (L + o) R`` (<= 4 L R = beta G h)."""
    return 2.0 * (params.L + params.o) * theorem3_num_batches(h, params, beta_hat)


def theorem3_failure_bound(h: int, params: LogPParams, beta_hat: float) -> float:
    """Chernoff union bound on Prob(stall or leftover), Theorem 3 proof.

    ``2 R p * (e^d / (1+d)^{1+d})^{C/(1+d)}`` with ``d = beta_hat`` and
    ``C = ceil(L/G)``; clamped to [0, 1].
    """
    C = params.capacity
    d = beta_hat
    R = theorem3_num_batches(h, params, beta_hat)
    log_tail = (C / (1.0 + d)) * (d - (1.0 + d) * math.log(1.0 + d))
    bound = 2.0 * R * params.p * math.exp(log_tail)
    return max(0.0, min(1.0, bound))


# ---------------------------------------------------------------------------
# Stalling (Sections 2 and 4.3)
# ---------------------------------------------------------------------------

def loggp_end_to_end(n: int, params: LogPParams) -> int:
    """LogGP extension: end-to-end time of one ``n``-word message,
    ``(o + (n-1) Gb) + L + (o + (n-1) Gb)`` — sender occupancy, wire
    latency, receiver occupancy (Alexandrov et al., paper ref. [18])."""
    if n < 1:
        raise ValueError(f"message size must be >= 1, got {n}")
    occupancy = params.o + (n - 1) * params.Gb
    return 2 * occupancy + params.L


def stalling_worst_case(h: int, params: LogPParams) -> int:
    """Worst-case completion time ``O(G h^2)`` of an h-relation under the
    stalling rule (Section 4.3's key observation), with constant 1."""
    return params.G * h * h


def hotspot_delivery_time(k: int, params: LogPParams) -> int:
    """Time for a hot spot to absorb ``k`` messages: the stalling rule keeps
    the destination draining at full rate, one message every ``G`` steps,
    so delivery completes in ``Theta(G k + L)`` (Section 2.2 discussion)."""
    if k <= 0:
        return 0
    return params.G * (k - 1) + params.L


# ---------------------------------------------------------------------------
# Table 1 (Section 5): gamma(p) and delta(p) per topology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyCosts:
    """Asymptotic bandwidth (gamma) and latency (delta) of a topology,
    as functions of the number of processors ``p`` (Table 1)."""

    name: str
    gamma_expr: str
    delta_expr: str

    def gamma(self, p: int, d: int = 2) -> float:
        return _EXPRS[self.gamma_expr](p, d)

    def delta(self, p: int, d: int = 2) -> float:
        return _EXPRS[self.delta_expr](p, d)


_EXPRS = {
    "1": lambda p, d: 1.0,
    "log p": lambda p, d: max(1.0, math.log2(p)),
    "p^(1/d)": lambda p, d: p ** (1.0 / d),
    "sqrt(p)": lambda p, d: math.sqrt(p),
}

#: Table 1 of the paper, verbatim (gamma, delta as expressions of p).
TABLE1: dict[str, TopologyCosts] = {
    "d-dim array": TopologyCosts("d-dim array", "p^(1/d)", "p^(1/d)"),
    "hypercube (multi-port)": TopologyCosts("hypercube (multi-port)", "1", "log p"),
    "hypercube (single-port)": TopologyCosts("hypercube (single-port)", "log p", "log p"),
    "butterfly": TopologyCosts("butterfly", "log p", "log p"),
    "ccc": TopologyCosts("ccc", "log p", "log p"),
    "shuffle-exchange": TopologyCosts("shuffle-exchange", "log p", "log p"),
    "mesh-of-trees": TopologyCosts("mesh-of-trees", "sqrt(p)", "log p"),
}


def best_bsp_params_on(topology: str, p: int, d: int = 2) -> tuple[float, float]:
    """Section 5: best attainable BSP parameters ``g* = Theta(gamma(p))``,
    ``l* = Theta(delta(p))`` on a Table-1 topology."""
    costs = TABLE1[topology]
    return costs.gamma(p, d), costs.delta(p, d)


def best_logp_params_on(topology: str, p: int, d: int = 2) -> tuple[float, float]:
    """Section 5: best attainable LogP parameters ``G* = Theta(gamma(p))``,
    ``L* = Theta(gamma(p) + delta(p))`` on a Table-1 topology."""
    costs = TABLE1[topology]
    gamma, delta = costs.gamma(p, d), costs.delta(p, d)
    return gamma, gamma + delta
