"""The traced run: per-layer self times, counts, ratios and shares.

A traced run measures the workload twice with identical settings —
first untraced (the baseline), then with every layer's entry points
wrapped — and reports:

* per-layer metrics derived from the spans (:func:`layer_metrics`; the
  ``per_layer`` list of ``BENCHMARK.json`` names them);
* ``share.<layer>``: each layer's self time over the traced total;
* ``trace.overhead_pct``: how much the wrappers slowed the mean request
  (traced over baseline mean latency);
* ``trace.reconcile_err``: |sum of layer self times - traced total| over
  the traced total.  Above 5 % the run fails.

The traced total is measured independently of the spans: the wall time
of the single caller (``sim-*``), the busy time of every client
connection (``serve-hot``), or the sum of latencies counted from each
request's scheduled send time (``serve-cold``).

Server spans come from ``traced_server.py`` and share the client's
``perf_counter`` clock.  Each server ``service.submit`` span is attached
to the client request whose response carried its key and whose round
trip contains it; the pool point, store append, batch wait and
in-batch queueing of a miss are attached to the submit that caused it.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import tracing
from tracing import LAYERS, by_name, layer_self_ns, self_times, tree_ids

NS = 1e9


def _mean(values, scale=1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def _dur(s) -> int:
    return s[4] - s[3]


def merge_serve(records, dump) -> tuple[list, list[int], int]:
    """Client records plus server spans -> (spans, root ids, unmatched)."""
    spans = [list(s) for s in dump["spans"]]
    next_id = max((s[0] for s in spans), default=0) + 1
    roots, clients = [], []
    by_key: dict[str, list[int]] = defaultdict(list)
    for i, (_c, ready, due, send, recv, *_rest, response) in enumerate(records):
        ready, due, send, recv = (int(t * NS) for t in (ready, due, send, recv))
        root = [next_id, 0, "client.request", ready, recv, 0, None]
        spans.append(root)
        roots.append(next_id)
        next_id += 1
        for name, lo, hi in (("loadgen.wait", ready, due), ("loadgen.lag", due, send)):
            if hi > lo:
                spans.append([next_id, root[0], name, lo, hi, 0, None])
                next_id += 1
        clients.append((root, send))
        by_key[response.get("key")].append(i)

    named = by_name(spans)
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    points = {s[6]: s for s in named["pool.point"]}
    appends = {s[6]: s for s in named["store.append"]}
    runs = {s[0]: s for s in named["pool.run"]}
    taken: set[int] = set()
    unmatched = 0
    for sub in sorted(named["service.submit"], key=lambda s: s[3]):
        key, outcome = sub[6] or (None, None)
        best = None
        for i in by_key.get(key, ()):
            root, send = clients[i]
            if i not in taken and send <= sub[3] and sub[4] <= root[4]:
                if best is None or send > clients[best][1]:
                    best = i
        if best is None:
            unmatched += 1
            continue
        taken.add(best)
        sub[1] = clients[best][0][0]
        if outcome != "miss" or key not in points:
            continue
        point = points[key]
        run = runs.get(point[1])
        point[1] = sub[0]
        if key in appends:
            appends[key][1] = sub[0]
        gets = [c for c in children[sub[0]] if c[2] == "store.get"]
        if run is not None:
            if gets and run[3] > gets[-1][4]:
                spans.append([next_id, sub[0], "service.batch_wait", gets[-1][4], run[3], 0, None])
                next_id += 1
            if point[3] > run[3]:
                spans.append([next_id, sub[0], "pool.queue", run[3], point[3], 0, None])
                next_id += 1
    return spans, roots, unmatched


def layer_metrics(spans, accum, members, total_ns, plancache, extra) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``."""
    named = by_name(spans)
    selfs = self_times([s for s in spans if s[0] in members])

    def self_s(name):
        return sum(selfs[s[0]] for s in named[name] if s[0] in selfs) / NS

    def mean_us(name):
        return _mean([_dur(s) for s in named[name]], 1e-3)

    def acc(name):
        return accum.get(name, (0, 0))

    layers = layer_self_ns(spans, accum, members)
    self_sum = sum(layers.values())
    logp_events = sum(s[6] for s in named["logp.run"])
    router_events = sum(s[6] for s in named["router.route"]) + acc("router.delay")[1]
    hits = sum(c["hits"] for c in plancache.values())
    misses = sum(c["misses"] for c in plancache.values())
    run_ns = sum(_dur(s) for s in named["pool.run"])
    target_ns = sum(_dur(s) for s in named["pool.target"])
    n_points = len(named["pool.point"])
    opens = named["store.open"]
    out = {
        "request.coerce_us": (mean_us("request.coerce"), "us"),
        "request.key_us": (mean_us("request.key"), "us"),
        "request.build_stack_us": (mean_us("request.build_stack"), "us"),
        "stack.self_s": (self_s("stack.run"), "s"),
        "bsp.self_s": (self_s("bsp.run"), "s"),
        "bsp.calls": (len(named["bsp.run"]), "count"),
        "logp.self_s": (self_s("logp.run"), "s"),
        "logp.events": (logp_events, "count"),
        "logp.ns_per_event": (
            self_s("logp.run") * NS / logp_events if logp_events else 0.0, "ns"),
        "router.route_s": (self_s("router.route"), "s"),
        "router.paths_s": (self_s("router.paths"), "s"),
        "router.delay_s": (acc("router.delay")[0] / NS, "s"),
        "router.events": (router_events, "count"),
        "plancache.hits": (hits, "count"),
        "plancache.misses": (misses, "count"),
        "plancache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "plancache.build_s": (acc("plancache.build")[0] / NS, "s"),
        "check.cost_s": (self_s("check.cost"), "s"),
        "check.validate_s": (self_s("check.validate"), "s"),
        "check.fail": (extra["check_fail"], "count"),
        "service.submit_self_us": (
            _mean([selfs[s[0]] for s in named["service.submit"] if s[0] in selfs], 1e-3),
            "us"),
        "service.hit_ratio": (extra.get("hit_ratio", 0.0), "ratio"),
        "service.dedup_ratio": (extra.get("dedup_ratio", 0.0), "ratio"),
        "service.batch_wait_ms": (
            _mean([_dur(s) for s in named["service.batch_wait"]], 1e-6), "ms"),
        "service.points_per_job": (extra.get("points_per_job", 0.0), "count"),
        "pool.run_s": (run_ns / NS, "s"),
        "pool.overhead_us_per_point": (
            (run_ns - target_ns) / n_points * 1e-3 if n_points else 0.0, "us"),
        "store.get_us": (mean_us("store.get"), "us"),
        "store.append_us": (mean_us("store.append"), "us"),
        "store.open_s": (_dur(opens[-1]) / NS if opens else 0.0, "s"),
        "protocol.overhead_us": (
            layers["protocol"] / len(named["client.request"]) * 1e-3
            if named["client.request"] else 0.0, "us"),
        "loadgen.lag_p99_ms": (extra.get("lag_p99_ms", 0.0), "ms"),
        "loadgen.backlog": (extra.get("backlog", 0), "count"),
        "trace.total_s": (total_ns / NS, "s"),
        "trace.self_sum_s": (self_sum / NS, "s"),
        "trace.reconcile_err": (abs(self_sum - total_ns) / total_ns, "ratio"),
        "trace.overhead_pct": (extra["overhead_pct"], "%"),
        "trace.unmatched": (extra.get("unmatched", 0), "count"),
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = (layers[layer] / self_sum if self_sum else 0.0, "ratio")
    return out


def traced_run(workload, seed, seconds, tables, work) -> dict:
    import run

    if workload.startswith("sim-"):
        from repro.perf.memo import clear_plan_caches, plan_cache_stats

        base = run.run_sim(workload, seed, seconds, tables)
        clear_plan_caches()
        tracer = tracing.Tracer()
        tracer.install_engine()
        try:
            m = run.run_sim(workload, seed, seconds, tables, tracer)
        finally:
            tracer.uninstall()
        raw = m["raw"]
        spans, accum = tracer.spans, dict(tracer.accum)
        members = tree_ids(spans, set(raw["roots"]))
        total_ns = raw["traced_wall_s"] * NS
        plancache = plan_cache_stats()
        extra = {"check_fail": m["failed"]}
    else:
        base = run.run_serve(workload, seed, seconds, tables, work / "base", setups=1)
        spans_out = work / "spans.json"
        m = run.run_serve(workload, seed, seconds, tables, work / "traced",
                          setups=1, spans_out=spans_out)
        raw = m["raw"]
        dump = json.loads(spans_out.read_text())
        spans, roots, unmatched = merge_serve(raw["records"], dump)
        accum = dump["accum"]
        members = tree_ids(spans, set(roots))
        records = raw["records"]
        if workload == "serve-hot":
            busy = defaultdict(lambda: [float("inf"), 0.0])
            for r in records:
                b = busy[r[0]]
                b[0], b[1] = min(b[0], r[1]), max(b[1], r[4])
            total_ns = sum(hi - lo for lo, hi in busy.values()) * NS
            lags = [r[3] - r[1] for r in records]
        else:
            total_ns = sum(r[4] - r[2] for r in records) * NS
            lags = raw["lags"]
        stats = raw["stats"]
        plancache = dump["plancache"]
        extra = {
            "check_fail": m["failed"],
            "hit_ratio": stats["hit"] / stats["requests"],
            "dedup_ratio": stats["dedup"] / stats["requests"],
            "points_per_job": stats["pool_points"] / stats["pool_jobs"] if stats["pool_jobs"] else 0.0,
            "lag_p99_ms": run.pct(lags, 99) * 1e3,
            "backlog": raw["backlog"],
            "unmatched": unmatched,
        }
    extra["overhead_pct"] = (
        statistics.fmean(run.latencies(m)) / statistics.fmean(run.latencies(base)) - 1.0
    ) * 100.0
    metrics = layer_metrics(spans, accum, members, total_ns, plancache, extra)
    problems = list(m.get("problems", ())) + list(base.get("problems", ()))
    err = metrics["trace.reconcile_err"][0]
    if err > run.RECONCILE_TOLERANCE:
        problems.append(f"layer self times miss the traced total by {err:.1%}")
    m = dict(m, attempted=m["attempted"] + base["attempted"],
             failed=m["failed"] + base["failed"],
             errors=m["errors"] + base["errors"] + problems)
    correct = m["failed"] == 0 and not problems
    return run.summarize(workload, m, metrics, correct)
