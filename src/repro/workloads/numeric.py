"""The iterative-numeric family: analytic scalability-peak curves.

Sokolinsky's BSF model (arXiv:1710.10490) and its applications (Ezhova
& Sokolinsky, arXiv:1710.10835) predict, for iterative master-worker
kernels, a **scalability peak**: total cost ``T(p) = w(n)/p + c(p)``
falls with ``p`` until the communication term ``c(p)`` (growing like
``p``) takes over, so ``T`` is minimized near ``p* = sqrt(w/c')``.

The two kernels in :mod:`repro.programs.bsp_iterative` have fully
closed-form cost ledgers, so this module checks the *entire* measured
cost — not a bound — against the analytic curve, and ``python -m
repro.experiments run NS`` (the ``numeric_scalability`` table) compares
the measured argmin over a ``p`` grid with the analytic peak.

Closed forms (``rows = n/p``, ``h2 = 2`` for ``p >= 3`` else 1)::

    jacobi:   T(p) = (iters+1)·rows + p + g·(h2·iters + 2(p-1)) + (iters+2)·l
              supersteps = iters + 2
    gradient: T(p) = 4·iters·rows + iters·p + 2·iters·g·(p-1) + (2·iters+1)·l
              supersteps = 2·iters + 1

Continuous peaks: ``p*_jacobi = sqrt((iters+1)·n / (1+2g))`` and
``p*_gradient = sqrt(4n / (1+2g))`` (iteration count cancels).
"""

from __future__ import annotations

import math

from repro.workloads.registry import Workload, register

__all__ = [
    "register_builtin_numeric",
    "jacobi_cost_closed_form",
    "gradient_cost_closed_form",
    "jacobi_peak",
    "gradient_peak",
]


def _h2(p: int) -> int:
    return 2 if p >= 3 else 1


def jacobi_cost_closed_form(n: int, p: int, iters: int, g: int, l: int) -> int:
    rows = n // p
    return (
        (iters + 1) * rows
        + p
        + g * (_h2(p) * iters + 2 * (p - 1))
        + (iters + 2) * l
    )


def gradient_cost_closed_form(n: int, p: int, iters: int, g: int, l: int) -> int:
    rows = n // p
    return (
        4 * iters * rows
        + iters * p
        + 2 * iters * g * (p - 1)
        + (2 * iters + 1) * l
    )


def jacobi_peak(n: int, iters: int, g: int) -> float:
    """Continuous minimizer of the Jacobi cost curve (``h2 = 2`` regime)."""
    return math.sqrt((iters + 1) * n / (1 + 2 * g))


def gradient_peak(n: int, g: int) -> float:
    """Continuous minimizer of the gradient cost curve (iters cancels)."""
    return math.sqrt(4 * n / (1 + 2 * g))


def _jacobi_factory(p, seed, n=48, iters=4):
    from repro.programs import bsp_jacobi_program

    return bsp_jacobi_program(n, iters, seed=seed)


def _jacobi_cost(result, p, params):
    n, iters = int(params["n"]), int(params["iters"])
    g, l = result.params.g, result.params.l
    msgs = _h2(p) * iters + 1 + (p - 1)
    return [
        ("supersteps == iters+2", result.num_supersteps, iters + 2, "exact"),
        ("max-h messages == h2·iters + p", result.total_messages, msgs, "exact"),
        ("total cost == closed form", result.total_cost,
         jacobi_cost_closed_form(n, p, iters, g, l), "exact"),
    ]


def _jacobi_validate(result, p, params):
    from repro.programs import jacobi_reference

    ref = jacobi_reference(
        int(params["n"]), p, int(params["iters"]), seed=int(params["seed"])
    )
    for pid in range(p):
        assert result.results[pid] == ref[pid], f"jacobi mismatch at {pid}"


def _gradient_factory(p, seed, n=48, iters=3):
    from repro.programs import bsp_gradient_program

    return bsp_gradient_program(n, iters, seed=seed)


def _gradient_cost(result, p, params):
    n, iters = int(params["n"]), int(params["iters"])
    g, l = result.params.g, result.params.l
    return [
        ("supersteps == 2·iters+1", result.num_supersteps, 2 * iters + 1, "exact"),
        ("max-h messages == iters·p", result.total_messages, iters * p, "exact"),
        ("total cost == closed form", result.total_cost,
         gradient_cost_closed_form(n, p, iters, g, l), "exact"),
    ]


def _gradient_validate(result, p, params):
    from repro.programs import gradient_reference

    ref = gradient_reference(
        int(params["n"]), p, int(params["iters"]), seed=int(params["seed"])
    )
    for pid in range(p):
        assert result.results[pid] == ref[pid], f"gradient mismatch at {pid}"


def _divides(p: int, params: dict) -> bool:
    return p >= 2 and int(params["n"]) % p == 0


def register_builtin_numeric() -> None:
    """Register the two iterative-numeric workloads (idempotent)."""
    entries = [
        Workload(
            name="jacobi",
            family="numeric",
            model="bsp",
            description=(
                "1-D Jacobi relaxation with halo exchange; exact "
                "closed-form cost with a scalability peak near "
                "sqrt((iters+1)·n/(1+2g))."
            ),
            factory=_jacobi_factory,
            space={"p": (2, 3, 4, 6, 8, 12, 16, 24), "n": (48, 96),
                   "iters": (2, 4, 8)},
            quick={"p": (2, 4), "n": (48,), "iters": (2,)},
            defaults={"p": 4, "n": 48, "iters": 4},
            cost_model=_jacobi_cost,
            validate=_jacobi_validate,
            supports=_divides,
        ),
        Workload(
            name="gradient",
            family="numeric",
            model="bsp",
            description=(
                "Master-worker steepest descent (BSF shape): fan-in of "
                "partial dot products, fan-out of the step size; peak "
                "near sqrt(4n/(1+2g))."
            ),
            factory=_gradient_factory,
            space={"p": (2, 3, 4, 6, 8, 12, 16, 24), "n": (48, 96),
                   "iters": (2, 3, 6)},
            quick={"p": (2, 4), "n": (48,), "iters": (2,)},
            defaults={"p": 4, "n": 48, "iters": 3},
            cost_model=_gradient_cost,
            validate=_gradient_validate,
            supports=_divides,
        ),
    ]
    for w in entries:
        register(w, replace=True)
