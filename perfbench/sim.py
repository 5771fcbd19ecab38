"""The ``sim-*`` workloads: direct ``build_stack(req).run()`` calls.

One caller, closed loop: each request is built, run, checked with
``check_workload`` (on the report and on the machine result embedded
in it), validated against the workload's reference output, and its
simulated statistics compared with the recorded digest.
"""

from __future__ import annotations

import time

import design
from digest import result_digest
from hostspeed import Calibration


def run_request(doc: dict, tracer=None):
    """Run one request and check it; returns ``(digest, error)`` with
    ``error`` ``None`` when every check passed."""
    import repro.engine.request as request_mod
    import repro.workloads.registry as registry

    req = request_mod.RunRequest.from_dict(doc)
    w = registry.get(req.workload)
    result = request_mod.build_stack(req).run()
    params = {**w.merged(dict(req.args)), "seed": req.seed}
    inner = next(
        (getattr(result, a) for a in ("bsp_native", "native", "bsp")
         if getattr(result, a, None) is not None),
        None,
    )
    errors = []
    for checked in (result, inner):
        if checked is None:
            continue
        report = registry.check_workload(w, checked, req.p, params)
        if not report.ok():
            errors.append(f"cost check: {[r.name for r in report.failures()]}")
    if getattr(result, "outputs_match", True) is not True:
        errors.append("simulated outputs differ from the native run")
    if inner is None:
        errors.append("no native result to validate")
    elif w.validate is not None:
        span = tracer.open("check.validate") if tracer else None
        try:
            w.validate(inner, req.p, params)
        except AssertionError as exc:
            errors.append(f"validator: {exc}")
        finally:
            if span:
                tracer.close(*span)
    return result_digest(result), "; ".join(errors) or None


def measure(workload: str, seed: int, seconds: float, table: list, tracer=None) -> dict:
    """Send stratified rounds for ``seconds``.  Each complete round is
    one measurement segment, so every seed measures the same mix;
    requests of a cut-off last round are still checked.  A host-speed
    probe runs before every request, outside its timing; latencies are
    scaled to reference-host seconds (see :mod:`hostspeed`)."""
    cal = Calibration()
    rounds = design.sim_rounds(workload, seed)
    attempted = failed = 0
    errors: list[str] = []
    segments: list[dict] = []
    roots: list[int] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds
    stop = False
    while not stop:
        timed = []  # (start, seconds, cheap, reference events)
        for index, doc, is_cheap in next(rounds):
            cal.sample()
            if time.perf_counter() >= deadline:
                stop = True
                break
            attempted += 1
            t0 = time.perf_counter()
            span = tracer.open("harness.request") if tracer else None
            try:
                got, error = run_request(doc, tracer)
            except Exception as exc:  # noqa: BLE001 — counted, reported
                got, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                if span:
                    tracer.close(*span)
                    roots.append(span[0][0])
            dt = time.perf_counter() - t0
            want, ref_events = table[index]
            if error is None and got != want:
                error = f"digest {got} != recorded {want}"
            if error is not None:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"{doc}: {error}")
            timed.append((t0, dt, is_cheap, ref_events))
        if (stop and segments) or not timed:
            break  # metrics cover complete rounds only
        scale = cal.factor(timed[0][0], timed[-1][0] + timed[-1][1])
        lat = [dt * scale for _t0, dt, _c, _e in timed]
        segments.append({
            "lat": lat,
            "cheap": [x for x, t in zip(lat, timed) if t[2]],
            "busy_s": sum(lat),
            "events": sum(t[3] for t in timed),
        })
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "segments": segments,
        "roots": roots,
        "traced_wall_s": time.perf_counter() - t_start - sum(cal.probes),
    }
