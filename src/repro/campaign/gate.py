"""Bound-fit regression gate: residual shape across a sweep vs baseline.

The paper's theorems predict *curves*, not points, so after a campaign
this module fits the sweep's predicted-vs-observed pairs — every
``cost_check`` residual the targets embedded in their records — and
compares the fitted shape against a committed baseline:

* per residual name, the observed values are regressed on the predicted
  values (least squares ``observed ≈ slope · predicted + intercept``) —
  a theorem that holds sweeps out with slope near the baseline's and the
  same ok-fraction under its :class:`~repro.obs.check.CostResidual`
  kind (exact/upper/factor);
* a gate **fails** when a residual family disappears, its ok-fraction
  drops, or its slope / mean ratio drifts outside the tolerance band —
  the signature of a simulator change bending a measured curve away
  from the paper's closed form.

Baselines are schema-versioned JSON written by
:meth:`RegressionGate.update` (see ``benchmarks/baselines/``); CI runs
the smoke campaign and checks it against the committed file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.io import dump_json, load_json

__all__ = ["fit_bounds", "GateResult", "RegressionGate"]

GATE_KIND = "repro.campaign.gate"

#: Relative drift allowed on slope and mean ratio before failing.
RATIO_TOL = 0.25
#: Absolute drop allowed in a residual family's ok-fraction.
OK_DROP_TOL = 0.0


def _residual_rows(records: list[dict]):
    """Yield ``(family, kind, observed, predicted, ok)`` from every
    ``cost_check`` block found in the records.  Indexed names collapse
    into one family (``superstep[3] ...`` -> ``superstep[*] ...``) so a
    family's membership does not depend on how many supersteps each grid
    point happened to execute."""
    import re

    from repro.obs.check import CostResidual

    for record in records:
        check = record.get("cost_check")
        if not check:
            continue
        for row in check.get("residuals", ()):
            residual = CostResidual(
                name=row["name"],
                observed=row["observed"],
                predicted=row["predicted"],
                kind=row.get("kind", "exact"),
            )
            family = re.sub(r"\[\d+\]", "[*]", residual.name)
            yield family, residual.kind, residual.observed, residual.predicted, residual.ok()


def _linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares ``y = slope * x + intercept`` (slope 1 for a
    degenerate x range: the fit then only reports the offset)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 1.0, my - mx
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return slope, my - slope * mx


def fit_bounds(records: list[dict]) -> dict:
    """Summarize every residual family across the sweep.

    Returns ``{name: {kind, count, ok, ok_frac, mean_ratio, max_ratio,
    slope, intercept}}`` — the shape the gate compares.
    """
    families: dict[str, dict] = {}
    for name, kind, observed, predicted, ok in _residual_rows(records):
        fam = families.setdefault(
            name,
            {"kind": kind, "observed": [], "predicted": [], "ok": 0, "count": 0},
        )
        fam["count"] += 1
        fam["ok"] += bool(ok)
        fam["observed"].append(float(observed))
        fam["predicted"].append(float(predicted))
    out: dict[str, dict] = {}
    for name, fam in sorted(families.items()):
        obs_v, pred_v = fam["observed"], fam["predicted"]
        ratios = [
            o / p for o, p in zip(obs_v, pred_v) if p not in (0, 0.0)
        ]
        finite = [r for r in ratios if math.isfinite(r)]
        slope, intercept = _linear_fit(pred_v, obs_v)
        out[name] = {
            "kind": fam["kind"],
            "count": fam["count"],
            "ok": fam["ok"],
            "ok_frac": round(fam["ok"] / fam["count"], 6),
            "mean_ratio": round(sum(finite) / len(finite), 6) if finite else None,
            "max_ratio": round(max(finite), 6) if finite else None,
            "slope": round(slope, 6),
            "intercept": round(intercept, 6),
        }
    return out


@dataclass
class GateResult:
    """Verdict of one gate check."""

    summary: dict
    baseline: dict
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        from repro.util.tables import render_table

        rows = []
        for name, fam in self.summary.items():
            ref = self.baseline.get(name, {})
            rows.append(
                (
                    name,
                    fam["kind"],
                    fam["count"],
                    f"{fam['ok_frac']:.2f}",
                    f"{ref.get('ok_frac', float('nan')):.2f}",
                    f"{fam['slope']:.3f}",
                    f"{ref.get('slope', float('nan')):.3f}",
                )
            )
        out = render_table(
            ["residual", "kind", "n", "ok", "ok base", "slope", "slope base"],
            rows,
            title=f"regression gate — {'ok' if self.ok else 'FAIL'}",
        )
        for failure in self.failures:
            out += f"\nFAIL  {failure}"
        return out


def _drifted(value, ref, tol: float) -> bool:
    if value is None or ref is None:
        return (value is None) != (ref is None)
    if ref == 0:
        return abs(value) > tol
    return abs(value - ref) / abs(ref) > tol


class RegressionGate:
    """Fit a sweep and compare it against a committed baseline file."""

    def __init__(
        self, *, ratio_tol: float = RATIO_TOL, ok_drop_tol: float = OK_DROP_TOL
    ) -> None:
        self.ratio_tol = ratio_tol
        self.ok_drop_tol = ok_drop_tol

    def check(self, records: list[dict], baseline_path: str | Path) -> GateResult:
        doc = load_json(baseline_path, kind=GATE_KIND)
        baseline = doc["families"]
        summary = fit_bounds(records)
        failures: list[str] = []
        for name, ref in baseline.items():
            fam = summary.get(name)
            if fam is None:
                failures.append(f"residual family {name!r} disappeared from the sweep")
                continue
            if fam["ok_frac"] < ref["ok_frac"] - self.ok_drop_tol:
                failures.append(
                    f"{name}: ok fraction regressed "
                    f"{ref['ok_frac']:.2f} -> {fam['ok_frac']:.2f}"
                )
            if _drifted(fam["slope"], ref["slope"], self.ratio_tol):
                failures.append(
                    f"{name}: observed-vs-predicted slope drifted "
                    f"{ref['slope']:.3f} -> {fam['slope']:.3f} "
                    f"(tol {self.ratio_tol:.0%})"
                )
            if _drifted(fam["mean_ratio"], ref["mean_ratio"], self.ratio_tol):
                failures.append(
                    f"{name}: mean observed/predicted ratio drifted "
                    f"{ref['mean_ratio']} -> {fam['mean_ratio']} "
                    f"(tol {self.ratio_tol:.0%})"
                )
        return GateResult(summary=summary, baseline=baseline, failures=failures)

    def update(
        self, records: list[dict], baseline_path: str | Path, *, campaign: str = ""
    ) -> Path:
        """(Re)write the committed baseline from this sweep's fits."""
        return dump_json(
            baseline_path,
            GATE_KIND,
            {"campaign": campaign, "families": fit_bounds(records)},
        )
