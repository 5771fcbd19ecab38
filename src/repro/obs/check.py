"""Predicted-vs-observed cost assertions (``CostModelCheck``).

The paper's claims are shapes of measured curves — BSP's ``w + g·h + ℓ``
per superstep, LogP's ``≤ L`` delivery and ``L + 2o`` point-to-point
cost, the Theorem 1/2 slowdown predictions — so this module turns each
closed form into a *residual check* against a measured run:

* every residual row records the observed quantity, the model's
  prediction, and their difference/ratio;
* ``kind="exact"`` rows must match the prediction exactly (the BSP cost
  ledger *is* the formula);
* ``kind="upper"`` rows must stay at or below the prediction (LogP
  delivery latency ``≤ L``, Theorem 1's slowdown ``O(1 + g/G + l/L)``);
* ``kind="factor"`` rows (slowdown vs an asymptotic, constant-free
  prediction) are judged to a constant multiplicative band.

``CostModelCheck.check(result)`` dispatches on the result type
(:class:`~repro.bsp.machine.BSPResult`,
:class:`~repro.logp.machine.LogPResult`, the Theorem 1/2 reports) and
returns a :class:`CostCheckReport`; ``report.assert_ok()`` raises with
the offending rows.  ``python -m repro.experiments run TH1 --metrics``
and ``... inspect <chain> `` print these reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["CostResidual", "CostCheckReport", "CostModelCheck"]


@dataclass(frozen=True)
class CostResidual:
    """One predicted-vs-observed comparison.

    ``kind`` is ``"exact"`` (must equal), ``"upper"`` (observed must not
    exceed predicted), or ``"factor"`` (ratio judged to a constant
    multiplicative band — for asymptotic predictions).  Judging any other
    kind raises :class:`~repro.errors.ParameterError`, so a residual
    document from an older or foreign writer is rejected, not judged.
    """

    name: str
    observed: float
    predicted: float
    kind: str = "exact"

    #: Band for ``kind="factor"``: the observed/predicted ratio must lie
    #: in ``[1/FACTOR_BAND, FACTOR_BAND]``.  Asymptotic predictions (the
    #: theorem slowdowns are ``O(S)`` with protocol constants elided)
    #: are judged to a constant factor, not a percentage.
    FACTOR_BAND = 8.0

    @property
    def residual(self) -> float:
        """Signed miss: ``observed - predicted``."""
        return self.observed - self.predicted

    @property
    def ratio(self) -> float:
        if self.predicted == 0:
            return 1.0 if self.observed == 0 else math.inf
        return self.observed / self.predicted

    def ok(self) -> bool:
        if self.kind == "exact":
            return self.observed == self.predicted
        if self.kind == "upper":
            return self.observed <= self.predicted
        if self.kind == "factor":
            return 1.0 / self.FACTOR_BAND <= self.ratio <= self.FACTOR_BAND
        from repro.errors import ParameterError

        raise ParameterError(
            f"residual {self.name!r} has unknown kind {self.kind!r} "
            f"(known: exact, upper, factor)"
        )


@dataclass
class CostCheckReport:
    """All residuals of one checked run."""

    model: str
    residuals: list[CostResidual] = field(default_factory=list)

    def add(self, name: str, observed: float, predicted: float, kind: str = "exact") -> None:
        self.residuals.append(CostResidual(name, observed, predicted, kind))

    def failures(self) -> list[CostResidual]:
        return [r for r in self.residuals if not r.ok()]

    def ok(self) -> bool:
        return not self.failures()

    @property
    def max_abs_residual(self) -> float:
        return max((abs(r.residual) for r in self.residuals), default=0.0)

    def assert_ok(self) -> "CostCheckReport":
        """Raise ``AssertionError`` listing every failed residual."""
        bad = self.failures()
        if bad:
            detail = "; ".join(
                f"{r.name}: observed={r.observed:g} predicted={r.predicted:g} "
                f"({r.kind}, ratio={r.ratio:.3f})"
                for r in bad
            )
            raise AssertionError(
                f"CostModelCheck[{self.model}]: {len(bad)} residual(s) out of "
                f"bounds — {detail}"
            )
        return self

    def rows(self) -> list[tuple]:
        return [
            (
                r.name,
                r.kind,
                f"{r.observed:g}",
                f"{r.predicted:g}",
                f"{r.residual:+g}",
                f"{r.ratio:.3f}" if math.isfinite(r.ratio) else "inf",
            )
            for r in self.residuals
        ]

    def render(self) -> str:
        from repro.util.tables import render_table

        return render_table(
            ["check", "kind", "observed", "predicted", "residual", "ratio"],
            self.rows(),
            title=f"CostModelCheck — {self.model}",
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "CostCheckReport":
        """Rebuild a report from :meth:`as_dict` output — how campaign
        records round-trip their cost checks through JSON."""
        report = cls(model=doc.get("model", "?"))
        for row in doc.get("residuals", ()):
            report.add(
                row["name"],
                row["observed"],
                row["predicted"],
                row.get("kind", "exact"),
            )
        return report

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "residuals": [
                {
                    "name": r.name,
                    "kind": r.kind,
                    "observed": r.observed,
                    "predicted": r.predicted,
                    "residual": r.residual,
                    "ratio": r.ratio if math.isfinite(r.ratio) else None,
                }
                for r in self.residuals
            ],
        }


class CostModelCheck:
    """Compare a measured run against the paper's closed-form bounds."""

    #: Per-superstep rows are emitted up to this many supersteps; beyond
    #: it only the aggregate row is kept (the report stays readable).
    MAX_DETAIL_ROWS = 64

    @staticmethod
    def check_bsp(result) -> CostCheckReport:
        """BSP cost ledger vs ``w + g·h + ℓ`` (+ recovery): exact rows."""
        report = CostCheckReport(model=f"BSP p={result.params.p}")
        params = result.params
        total_pred = 0
        for rec in result.ledger:
            predicted = params.superstep_cost(rec.w, rec.h) + rec.retry_cost
            total_pred += predicted
            if rec.index < CostModelCheck.MAX_DETAIL_ROWS:
                report.add(
                    f"superstep[{rec.index}] w+g·h+l", rec.cost, predicted, "exact"
                )
        report.add("total_cost", result.total_cost, total_pred, "exact")
        return report

    @staticmethod
    def check_logp(result) -> CostCheckReport:
        """LogP trace vs the model's bounds: delivery within ``L`` of
        acceptance, point-to-point cost ``≥ 2o + L`` impossible to beat
        (lower bound as an ``upper`` check on ``-cost``), submission and
        acquisition gaps ``≥ G``.  Needs ``record_trace=True``."""
        params = result.params
        report = CostCheckReport(model=f"LogP p={params.p}")
        trace = result.trace
        if trace is None:
            # No trace: the only model-level claim checkable from the
            # result alone is nonnegativity, phrased as the usual
            # negated lower bound so a legitimate makespan passes.
            report.add("makespan >= 0", -result.makespan, 0, "upper")
            return report
        from repro.logp.trace import accept_times_from_result

        accept = accept_times_from_result(result)
        delivered = {uid: t for t, _dest, uid in trace.deliveries}
        worst = 0
        for uid, t_del in delivered.items():
            t_acc = accept.get(uid)
            if t_acc is not None:
                worst = max(worst, t_del - t_acc)
        report.add("max delivery latency <= L", worst, params.L, "upper")
        sub = {uid: t for t, _src, uid in trace.submissions}
        acq_end = {uid: t_end for _s, t_end, _pid, uid in trace.acquisitions}
        if acq_end:
            # Fastest observed point-to-point time; the model says a lone
            # message costs at least o (submit) + delivery + o (acquire),
            # delivery >= 1 — so 2o + 1 is a hard floor.
            fastest = min(
                acq_end[uid] - (sub[uid] - params.o)
                for uid in acq_end
                if uid in sub
            )
            report.add(
                "min end-to-end >= 2o + 1", -fastest, -(2 * params.o + 1), "upper"
            )
        return report

    @staticmethod
    def check_theorem1(report_obj) -> CostCheckReport:
        """Theorem 1 run: host-BSP ledger exact, slowdown under the
        theorem's ``O(1 + g/G + l/L)`` upper bound."""
        report = CostModelCheck.check_bsp(report_obj.bsp)
        report.model = (
            f"Theorem 1 (LogP p={report_obj.logp_params.p} on "
            f"BSP p={report_obj.bsp_params.p})"
        )
        report.add(
            "slowdown vs predicted",
            report_obj.slowdown,
            report_obj.predicted_slowdown,
            "upper",
        )
        report.add(
            "window == floor(L/2)",
            report_obj.window,
            max(1, report_obj.logp_params.L // 2),
            "exact",
        )
        return report

    @staticmethod
    def check_theorem2(report_obj) -> CostCheckReport:
        """Theorem 2/3 run: native ledger exact, phase timings consistent,
        slowdown vs the paper's ``S(L, G, p, h)`` prediction."""
        report = CostModelCheck.check_bsp(report_obj.bsp_native)
        report.model = (
            f"Theorem 2/3 ({report_obj.routing} routing, "
            f"LogP p={report_obj.logp_params.p})"
        )
        if report_obj.timings:
            last_end = report_obj.timings[-1].route_end
            report.add(
                "makespan >= last route_end", -report_obj.total_logp_time, -last_end, "upper"
            )
        report.add(
            "slowdown vs predicted S",
            report_obj.slowdown,
            report_obj.predicted_slowdown,
            "factor",
        )
        return report

    @staticmethod
    def check(result) -> CostCheckReport:
        """Dispatch on the result's shape (duck-typed, import-free)."""
        if hasattr(result, "timings") and hasattr(result, "bsp_native"):
            return CostModelCheck.check_theorem2(result)
        if hasattr(result, "window") and hasattr(result, "bsp"):
            return CostModelCheck.check_theorem1(result)
        if hasattr(result, "ledger"):
            return CostModelCheck.check_bsp(result)
        if hasattr(result, "makespan"):
            return CostModelCheck.check_logp(result)
        raise TypeError(
            f"CostModelCheck has no model for {type(result).__name__}"
        )
