"""The sorting-regime family: sample sort vs bitonic vs Columnsort.

Gerbessiotis & Siniolakis (arXiv:1408.6729) study when one-round
sample sorting beats multi-round fixed-schedule sorters as ``n/p``
varies.  The three word-accurate sorters in
:mod:`repro.programs.bsp_sorting` make the regimes measurable on the
BSP cost ledger directly:

* **sample-sort-unit** — 4 supersteps always, but a ``p²``-word sample
  gather and ``(p-1)²``-word splitter scatter: wins once ``r = n/p``
  dwarfs ``p²``.
* **bitonic-sort** — ``R = log2(p)(log2(p)+1)/2`` rounds, each an exact
  ``r``-relation, no ``p²`` term: wins at small ``r`` where sample
  sort's overhead dominates.
* **columnsort** — 4 fixed ``~r``-relations, valid only for
  ``r >= 2(p-1)²`` — asymptotically between the two.

``python -m repro.experiments run SRT`` sweeps ``r`` at fixed ``p``
(the ``sorting_regimes`` table): the measured **crossover point** — the
smallest ``r`` where sample sort is no more expensive than bitonic —
sits next to the analytic prediction from the closed-form costs.
"""

from __future__ import annotations

from repro.workloads.registry import Workload, clog2, register

__all__ = [
    "register_builtin_sorting",
    "bitonic_cost_closed_form",
    "sample_unit_cost_closed_form",
]


def _sort_cost(k: int) -> int:
    return k * max(1, int(k).bit_length())


def _bitonic_rounds(p: int) -> int:
    return clog2(p) * (clog2(p) + 1) // 2


def bitonic_cost_closed_form(r: int, p: int, g: int, l: int) -> int:
    """Exact total BSP cost of ``bsp_bitonic_sort_program``: initial
    local sort, then ``R`` rounds of (exact ``r``-relation + ``2r``
    merge-split work), with the last merge as the trailing drain row."""
    R = _bitonic_rounds(p)
    return _sort_cost(r) + 2 * r * R + g * r * R + (R + 1) * l


def sample_unit_cost_closed_form(r: int, p: int, g: int, l: int) -> int:
    """Expected total cost of ``bsp_sample_sort_unit_program`` with
    balanced buckets (~``r`` keys each): the ``p²`` sample gather and
    ``(p-1)²`` splitter scatter are the terms bitonic never pays."""
    return (
        2 * _sort_cost(r)  # local sort + final merge (balanced)
        + _sort_cost(p * p)  # splitter-pool sort at the root
        + r  # partition scan
        + g * (p * p + (p - 1) ** 2 + r)
        + 4 * l
    )


def _bitonic_factory(p, seed, keys_per_proc=16, key_range=1 << 16):
    from repro.programs import bsp_bitonic_sort_program

    return bsp_bitonic_sort_program(keys_per_proc, key_range=key_range, seed=seed)


def _bitonic_cost(result, p, params):
    r = int(params["keys_per_proc"])
    g, l = result.params.g, result.params.l
    R = _bitonic_rounds(p)
    max_h = max((rec.h for rec in result.ledger), default=0)
    return [
        ("supersteps == R+1", result.num_supersteps, R + 1, "exact"),
        ("max-h messages == R·r", result.total_messages, R * r, "exact"),
        ("max h-relation == r", max_h, r, "exact"),
        ("total cost == closed form", result.total_cost,
         bitonic_cost_closed_form(r, p, g, l), "exact"),
    ]


def _sorted_output_validate(result, p, params):
    from repro.programs import sorted_input_keys

    expected = sorted_input_keys(
        p, int(params["keys_per_proc"]), int(params["key_range"]), int(params["seed"])
    )
    got = [k for pid in range(p) for k in result.results[pid]]
    assert got == expected, "sorter output is not the sorted input"


def _columnsort_factory(p, seed, keys_per_proc=32, key_range=1 << 16):
    from repro.programs import bsp_columnsort_program

    return bsp_columnsort_program(keys_per_proc, key_range=key_range, seed=seed)


def _columnsort_cost(result, p, params):
    r = int(params["keys_per_proc"])
    g, l = result.params.g, result.params.l
    max_h = max((rec.h for rec in result.ledger), default=0)
    upper = 5 * _sort_cost(r) + 4 * g * r + 5 * l
    return [
        ("supersteps == 5", result.num_supersteps, 5, "exact"),
        ("max-h messages <= 4r", result.total_messages, 4 * r, "upper"),
        ("max h-relation <= r", max_h, r, "upper"),
        ("total cost <= 5·sort(r) + 4g·r + 5l", result.total_cost, upper, "upper"),
    ]


def _columnsort_supports(p: int, params: dict) -> bool:
    from repro.sorting.columnsort import columnsort_valid

    return p >= 2 and columnsort_valid(int(params["keys_per_proc"]), p)


def _sample_unit_factory(p, seed, keys_per_proc=32, key_range=1 << 16):
    from repro.programs import bsp_sample_sort_unit_program

    return bsp_sample_sort_unit_program(keys_per_proc, key_range=key_range, seed=seed)


def _sample_unit_cost(result, p, params):
    r = int(params["keys_per_proc"])
    return [
        ("supersteps == 4", result.num_supersteps, 4, "exact"),
        ("sample gather h_recv == p²", result.ledger[0].h_recv, p * p, "exact"),
        ("splitter scatter h_send == (p-1)²",
         result.ledger[1].h_send, (p - 1) ** 2, "exact"),
        ("exchange h <= 2r (regular-sampling bucket bound)",
         result.ledger[2].h, 2 * r, "upper"),
        ("final merge w <= sort(2r)", result.ledger[3].w, _sort_cost(2 * r), "upper"),
    ]


def register_builtin_sorting() -> None:
    """Register the three regime sorters (idempotent via replace)."""
    entries = [
        Workload(
            name="bitonic-sort",
            family="sorting",
            model="bsp",
            description=(
                "Bitonic merge-split sort: log2(p)(log2(p)+1)/2 exact "
                "r-relations; the small-n/p regime winner."
            ),
            factory=_bitonic_factory,
            space={"p": (2, 4, 8), "keys_per_proc": (4, 8, 16, 32, 64),
                   "key_range": (1 << 16,)},
            quick={"p": (2, 4), "keys_per_proc": (8,)},
            defaults={"p": 4, "keys_per_proc": 16, "key_range": 1 << 16},
            cost_model=_bitonic_cost,
            validate=_sorted_output_validate,
            supports=lambda p, params: p >= 2 and (p & (p - 1)) == 0,
        ),
        Workload(
            name="columnsort",
            family="sorting",
            model="bsp",
            description=(
                "Leighton's Columnsort: 4 fixed ~r-relation permutation "
                "supersteps; valid once r >= 2(p-1)²."
            ),
            factory=_columnsort_factory,
            space={"p": (2, 3, 4), "keys_per_proc": (8, 18, 32, 64),
                   "key_range": (1 << 16,)},
            quick={"p": (2, 3), "keys_per_proc": (8,)},
            defaults={"p": 3, "keys_per_proc": 18, "key_range": 1 << 16},
            cost_model=_columnsort_cost,
            validate=_sorted_output_validate,
            supports=_columnsort_supports,
        ),
        Workload(
            name="sample-sort-unit",
            family="sorting",
            model="bsp",
            description=(
                "Word-accurate direct sample sort: 4 supersteps, p²-word "
                "sample gather; the large-n/p regime winner."
            ),
            factory=_sample_unit_factory,
            space={"p": (2, 4, 8), "keys_per_proc": (8, 16, 32, 64, 128),
                   "key_range": (1 << 16,)},
            quick={"p": (2, 4), "keys_per_proc": (16,)},
            defaults={"p": 4, "keys_per_proc": 32, "key_range": 1 << 16},
            cost_model=_sample_unit_cost,
            validate=_sorted_output_validate,
            supports=lambda p, params: p >= 2 and int(params["keys_per_proc"]) >= p,
        ),
    ]
    for w in entries:
        register(w, replace=True)
