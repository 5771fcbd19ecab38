"""The observation hub: one object carrying metrics + tracer through a run.

An :class:`Observation` is handed to a machine (``obs=``), a theorem
driver, or a :class:`~repro.engine.stack.Stack` run; every layer it
passes through publishes into its shared :class:`MetricsRegistry` and
(when ``trace=True``) its :class:`Tracer`.  The design rule, pinned by
the golden-trace suite: *observation never changes execution*.  Almost
everything is published once per run from records the machines already
keep (cost ledgers, event traces, kernel counters, stall and fault
ledgers); the few inline hooks (per-link occupancy in the routers) sit
behind a single ``is not None`` test and only count.

``Observation(enabled=False)`` is the measurable no-op: machines
normalize it away up front, so instrumented call sites run the exact
uninstrumented code path — the perf-smoke gate asserts the residual
overhead stays under 5 %.

The ``layer`` labels threaded through every ``observe_*`` call are the
same strings the engine's diagnostics carry (``"guest BSP on host
LogP"``, ``"native BSP reference"``, ...), so a stacked run's metrics
and trace rows separate by layer for free.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Observation"]


def _active(obs: "Observation | None") -> "Observation | None":
    """Normalize ``obs`` for hot paths: a disabled observation becomes
    ``None``, so instrumented code needs only an ``is not None`` test."""
    return obs if (obs is not None and obs.enabled) else None


class Observation:
    """Shared metrics/trace sink for one (possibly stacked) run.

    Parameters
    ----------
    trace:
        Also record layer-labelled spans (see :class:`Tracer`); off by
        default because traces grow with the execution while metrics
        stay O(1) per run.
    enabled:
        ``False`` builds the inert observation every instrumented call
        site treats exactly like ``obs=None`` — used by the overhead
        benchmark gate.
    """

    def __init__(self, *, trace: bool = False, enabled: bool = True) -> None:
        self.enabled = enabled
        self.trace = bool(trace)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self._published_kernels: list = []

    def __bool__(self) -> bool:
        return self.enabled

    @property
    def tracing(self) -> bool:
        return self.enabled and self.trace

    def metrics_only(self) -> "Observation":
        """A view sharing this registry with span recording off — for
        sub-runs whose native time base would clash with the parent's
        trace (e.g. per-superstep router invocations)."""
        view = Observation.__new__(Observation)
        view.enabled = self.enabled
        view.trace = False
        view.metrics = self.metrics
        view.tracer = self.tracer
        view._published_kernels = self._published_kernels
        return view

    # -- output --------------------------------------------------------

    def write_trace(self, path: str | Path) -> Path:
        """Export the recorded spans as Chrome ``trace_event`` JSON."""
        return self.tracer.write_chrome(path)

    def render_metrics(self, title: str = "metrics") -> str:
        return self.metrics.render(title)

    def flamegraph(self, width: int = 40) -> str:
        return self.tracer.flamegraph(width)

    # -- publication hooks ---------------------------------------------

    def publish_kernel(self, layer: str, counters) -> None:
        """Publish one engine's :class:`~repro.perf.counters.KernelCounters`.

        Deduplicated by object identity: the LogP machine publishes at
        drain time and the result-level observers publish defensively,
        so the same counters object may arrive twice.
        """
        if not self.enabled or counters is None:
            return
        if any(seen is counters for seen in self._published_kernels):
            return
        self._published_kernels.append(counters)
        m = self.metrics
        kind = counters.kernel
        m.counter("kernel.events", layer=layer, kernel=kind).inc(counters.events)
        m.counter("kernel.batches", layer=layer, kernel=kind).inc(counters.batches)
        m.counter("kernel.ticks_skipped", layer=layer, kernel=kind).inc(
            counters.ticks_skipped
        )
        m.gauge("kernel.queue_highwater", layer=layer, kernel=kind).track_max(
            counters.queue_highwater
        )

    def _publish_faults(self, layer: str, fault_log) -> None:
        if fault_log is None:
            return
        for name, count in fault_log.summary().items():
            if count:
                self.metrics.counter(f"faults.{name}", layer=layer).inc(count)

    # -- per-layer observers -------------------------------------------

    def observe_bsp(self, result, layer: str = "BSP") -> None:
        """Publish a :class:`~repro.bsp.machine.BSPResult`: the per-
        superstep ``w``/``h``/cost decomposition, retries, kernel work,
        and (tracing) one span per superstep split into its local and
        communication phases on the BSP simulated clock."""
        if not self.enabled:
            return
        m = self.metrics
        m.counter("bsp.supersteps", layer=layer).inc(result.num_supersteps)
        m.counter("bsp.messages", layer=layer).inc(result.total_messages)
        m.gauge("bsp.total_cost", layer=layer).track_max(result.total_cost)
        if result.total_retries:
            m.counter("bsp.retries", layer=layer).inc(result.total_retries)
            m.counter("bsp.retry_cost", layer=layer).inc(result.total_retry_cost)
        hist_w = m.histogram("bsp.superstep_w", layer=layer)
        hist_h = m.histogram("bsp.superstep_h", layer=layer)
        hist_cost = m.histogram("bsp.superstep_cost", layer=layer)
        for rec in result.ledger:
            hist_w.observe(rec.w)
            hist_h.observe(rec.h)
            hist_cost.observe(rec.cost)
        self.publish_kernel(layer, result.kernel)
        self._publish_faults(layer, result.fault_log)
        if self.tracing:
            tr = self.tracer
            clock = 0
            for rec in result.ledger:
                end = clock + rec.cost
                tr.span(
                    layer,
                    "superstep",
                    clock,
                    end,
                    args={
                        "index": rec.index,
                        "w": rec.w,
                        "h": rec.h,
                        "retries": rec.retries,
                    },
                )
                # Phase decomposition on a second thread row so the
                # parent superstep span stays unambiguous.
                tr.span(layer, "local (w)", clock, clock + rec.w, tid=1)
                tr.span(layer, "exchange (g*h+l)", clock + rec.w, end, tid=1)
                clock = end

    def observe_logp(self, result, layer: str = "LogP") -> None:
        """Publish a :class:`~repro.logp.machine.LogPResult`: makespan,
        message/stall totals, buffer high-water, kernel work, and —
        when tracing and the machine recorded its trace — per-processor
        submit/acquire spans, stall spans, and one async span per
        message lifetime (submit → acquire) keyed by message uid."""
        if not self.enabled:
            return
        m = self.metrics
        m.gauge("logp.makespan", layer=layer).track_max(result.makespan)
        m.counter("logp.messages", layer=layer).inc(result.total_messages)
        if result.stalls:
            m.counter("logp.stalls", layer=layer).inc(len(result.stalls))
            m.counter("logp.stall_cycles", layer=layer).inc(result.total_stall_time)
        m.gauge("logp.buffer_highwater", layer=layer).track_max(
            max(result.buffer_highwater, default=0)
        )
        self.publish_kernel(layer, result.kernel)
        self._publish_faults(layer, result.fault_log)
        trace = result.trace
        if self.tracing and trace is not None:
            tr = self.tracer
            o = result.params.o
            delivered = {uid: t for t, _dest, uid in trace.deliveries}
            latency = m.histogram("logp.delivery_latency", layer=layer)
            acq_end: dict[int, int] = {}
            for t_start, t_end, pid, uid in trace.acquisitions:
                tr.span(layer, "acquire", t_start, t_end, tid=pid, args={"uid": uid})
                acq_end[uid] = t_end
            for t_sub, src, uid in trace.submissions:
                tr.span(layer, "submit", t_sub - o, t_sub, tid=src, args={"uid": uid})
                end = acq_end.get(uid, delivered.get(uid, t_sub))
                tr.span(
                    layer, "message", t_sub, end, tid=src, cat="msg", async_id=uid
                )
                t_del = delivered.get(uid)
                if t_del is not None:
                    latency.observe(t_del - t_sub)
            for s in result.stalls:
                tr.span(layer, "stall", s.submit_time, s.accept_time, tid=s.sender,
                        args={"dest": s.dest})

    def observe_routing(
        self, outcome, occupancy=None, hops=None, layer: str = "network"
    ) -> None:
        """Publish a :class:`~repro.networks.routing_sim.RoutingOutcome`
        plus the router's optional inline recordings: ``occupancy`` maps
        each directed link to its transmission count, ``hops`` lists
        ``(arrive_time, packet, u, v)`` successful transmissions."""
        if not self.enabled:
            return
        m = self.metrics
        m.gauge("net.route_time", layer=layer).track_max(outcome.time)
        m.counter("net.packets", layer=layer).inc(outcome.packets)
        m.counter("net.hops", layer=layer).inc(outcome.total_hops)
        if outcome.retransmissions:
            m.counter("net.retransmissions", layer=layer).inc(outcome.retransmissions)
        m.gauge("net.max_queue", layer=layer).track_max(outcome.max_queue)
        if occupancy:
            hist = m.histogram("net.link_occupancy", layer=layer)
            for count in occupancy.values():
                hist.observe(count)
        self.publish_kernel(layer, outcome.kernel)
        if self.tracing and hops:
            tr = self.tracer
            for t_arr, pkt, u, v in hops:
                tr.span(
                    layer, "hop", t_arr - 1, t_arr, tid=u,
                    args={"packet": pkt, "link": f"{u}->{v}"},
                )

    def observe_network_delivery(self, delivery, layer: str = "network") -> None:
        """Publish a :class:`~repro.networks.backed.NetworkDelivery`'s
        co-simulation record: delay distribution, ``> L`` violations,
        and (tracing) one span per store-and-forward hop in the host
        LogP clock."""
        if not self.enabled:
            return
        m = self.metrics
        hist = m.histogram("net.delivery_delay", layer=layer)
        for d in delivery.delays:
            hist.observe(d)
        if delivery.violations:
            m.counter("net.latency_violations", layer=layer).inc(delivery.violations)
        if delivery.occupancy:
            occ = m.histogram("net.link_occupancy", layer=layer)
            for count in delivery.occupancy.values():
                occ.observe(count)
        if self.tracing:
            tr = self.tracer
            for depart, u, v, uid in delivery.hops:
                tr.span(
                    layer, "hop", depart, depart + 1, tid=u,
                    args={"uid": uid, "link": f"{u}->{v}"},
                )

    # -- cross-simulation observers ------------------------------------

    def observe_theorem2(self, report) -> None:
        """Publish a Theorem 2/3 :class:`~repro.core.bsp_on_logp.
        Theorem2Report`: the native reference ledger, the measured and
        predicted slowdowns, and (tracing) the guest's per-superstep
        local/sync/route phase spans on the host LogP clock."""
        if not self.enabled:
            return
        guest = "guest BSP supersteps"
        m = self.metrics
        m.gauge("sim.slowdown", layer=guest).set(round(report.slowdown, 6))
        m.gauge("sim.predicted_slowdown", layer=guest).set(
            round(report.predicted_slowdown, 6)
        )
        self.observe_bsp(report.bsp_native, layer="native BSP reference")
        sync_h = m.histogram("sim.t_sync", layer=guest)
        route_h = m.histogram("sim.t_route", layer=guest)
        prev = 0
        for tm in report.timings:
            sync_h.observe(tm.t_sync)
            route_h.observe(tm.t_route)
            if self.tracing:
                tr = self.tracer
                args = {"superstep": tm.index}
                tr.span(guest, "local", prev, tm.local_end, args=args)
                tr.span(guest, "sync (CB)", tm.local_end, tm.sync_end, args=args)
                tr.span(guest, "route", tm.sync_end, tm.route_end, args=args)
            prev = tm.route_end

    def observe_theorem1(self, report) -> None:
        """Publish a Theorem 1 :class:`~repro.core.logp_on_bsp.
        Theorem1Report`: slowdowns, window geometry, and (tracing) the
        guest's simulated cycles on the LogP virtual clock."""
        if not self.enabled:
            return
        guest = "guest LogP windows"
        m = self.metrics
        m.gauge("sim.slowdown", layer=guest).set(round(report.slowdown, 6))
        m.gauge("sim.predicted_slowdown", layer=guest).set(
            round(report.predicted_slowdown, 6)
        )
        m.gauge("sim.window", layer=guest).set(report.window)
        m.gauge("sim.max_window_h", layer=guest).track_max(report.max_window_h)
        if report.native is not None:
            m.gauge("logp.makespan", layer="native LogP reference").track_max(
                report.native.makespan
            )
        if self.tracing:
            tr = self.tracer
            W = report.window
            for i in range(report.windows):
                tr.span(guest, "cycle", i * W, (i + 1) * W, args={"window": i})

    def observe_network_run(self, run) -> None:
        """Publish a Section-5 :class:`~repro.networks.backed.
        NetworkBackedRun`: measured routing/barrier charges per
        superstep and (tracing) the re-priced superstep spans."""
        if not self.enabled:
            return
        layer = "guest BSP on host network"
        m = self.metrics
        m.gauge("net.network_cost", layer=layer).track_max(run.network_cost)
        m.counter("net.route_time_total", layer=layer).inc(run.total_route_time)
        route_h = m.histogram("net.superstep_route_time", layer=layer)
        clock = 0
        for s in run.supersteps:
            route_h.observe(s.route_time)
            if self.tracing:
                tr = self.tracer
                args = {"superstep": s.index, "h": s.h}
                tr.span(layer, "local (w)", clock, clock + s.w, args=args)
                tr.span(
                    layer, "route", clock + s.w, clock + s.w + s.route_time, args=args
                )
                tr.span(
                    layer, "barrier", clock + s.w + s.route_time, clock + s.cost,
                    args=args,
                )
            clock += s.cost

    def observe_dist(self, result, layer: str = "dist") -> None:
        """Publish a :class:`~repro.dist.supervisor.DistResult`: rounds,
        restarts, wall time, wire-fault and reliable-channel counters,
        and (tracing) the merged Lamport-clock event log replayed as one
        lane per process — a *real* faulty run rendered through the same
        tracer as the simulators."""
        if not self.enabled:
            return
        m = self.metrics
        m.counter("dist.rounds", layer=layer).inc(result.rounds)
        m.gauge("dist.wall_s", layer=layer).set(round(result.wall_s, 6))
        m.gauge("dist.p", layer=layer).set(result.p)
        if result.restarts:
            m.counter("dist.restarts", layer=layer).inc(result.restarts)
        for kind, count in result.wire_faults.items():
            if count:
                m.counter(f"dist.wire_{kind}", layer=layer).inc(count)
        for name in ("sent", "received", "retransmits", "dup_received",
                     "backpressure_waits"):
            count = result.channel_stats.get(name, 0)
            if count:
                m.counter(f"dist.chan_{name}", layer=layer).inc(count)
        if self.tracing:
            from repro.dist.analyze import replay_to_tracer
            from repro.dist.eventlog import merge_logs

            events, _meta = merge_logs(result.log_dir)
            replay_to_tracer(events, self.tracer)

    def observe_service(self, stats, layer: str = "service") -> None:
        """Publish a :class:`~repro.service.ServiceStats` snapshot: the
        reconciling served/deduped/missed counters, the hit-rate gauge,
        and the per-outcome request-latency histograms (merged field-
        wise, since the service keeps real :class:`Histogram` objects).
        Called from the CLI's ``serve`` shutdown path and the service
        benchmark — never per-request."""
        if not self.enabled:
            return
        m = self.metrics
        m.counter("service.requests", layer=layer).inc(stats.requests)
        m.counter("service.served", layer=layer).inc(stats.served)
        m.counter("service.hits", layer=layer).inc(stats.counts["hit"])
        m.counter("service.deduped", layer=layer).inc(stats.counts["dedup"])
        m.counter("service.missed", layer=layer).inc(stats.counts["miss"])
        if stats.failed:
            m.counter("service.failed", layer=layer).inc(stats.failed)
        m.counter("service.pool_jobs", layer=layer).inc(stats.pool_jobs)
        m.counter("service.pool_points", layer=layer).inc(stats.pool_points)
        m.gauge("service.hit_rate", layer=layer).set(round(stats.hit_rate(), 6))
        for outcome, src in stats.latency.items():
            if not src.count:
                continue
            dst = m.histogram("service.latency_s", layer=layer, outcome=outcome)
            dst.count += src.count
            dst.total += src.total
            dst.min = min(dst.min, src.min)
            dst.max = max(dst.max, src.max)

    def observe_campaign(self, report, layer: str = "campaign") -> None:
        """Publish a :class:`~repro.campaign.runner.CampaignReport`:
        point totals, throughput, cache hit rate, and pool utilization.
        Called once per campaign from :func:`~repro.campaign.runner.
        run_campaign` — never from workers, whose records must stay
        bit-identical across cached reruns."""
        if not self.enabled:
            return
        m = self.metrics
        m.counter("campaign.points", layer=layer).inc(report.total)
        m.counter("campaign.ran", layer=layer).inc(report.ran)
        m.counter("campaign.cached", layer=layer).inc(report.cached)
        if report.failed:
            m.counter("campaign.failed", layer=layer).inc(report.failed)
        m.gauge("campaign.workers", layer=layer).set(report.workers)
        m.gauge("campaign.points_per_s", layer=layer).set(
            round(report.points_per_s, 6)
        )
        m.gauge("campaign.cache_hit_rate", layer=layer).set(
            round(report.cache_hit_rate, 6)
        )
        m.gauge("campaign.worker_utilization", layer=layer).set(
            round(report.utilization, 6)
        )

    # -- dispatch ------------------------------------------------------

    def observe_result(self, result, layer: str | None = None) -> None:
        """Duck-typed dispatch to the matching ``observe_*`` method —
        the hook :meth:`~repro.engine.result.MachineResult.observe`
        calls.  Mirrors ``CostModelCheck.check``'s shape tests."""
        if not self.enabled:
            return
        if hasattr(result, "restarts") and hasattr(result, "log_dir"):
            self.observe_dist(result, layer=layer or "dist")
        elif hasattr(result, "timings") and hasattr(result, "bsp_native"):
            self.observe_theorem2(result)
        elif hasattr(result, "window") and hasattr(result, "bsp"):
            self.observe_theorem1(result)
        elif hasattr(result, "supersteps") and hasattr(result, "topology_name"):
            self.observe_network_run(result)
        elif hasattr(result, "ledger"):
            self.observe_bsp(result, layer=layer or "BSP")
        elif hasattr(result, "makespan"):
            self.observe_logp(result, layer=layer or "LogP")
        elif hasattr(result, "total_hops"):
            self.observe_routing(result, layer=layer or "network")
        else:
            raise TypeError(
                f"Observation has no observer for {type(result).__name__}"
            )
