"""Outside-in layer tracing: wrap each layer's public entry points.

A :class:`Tracer` replaces a layer's entry point (a function, method or
registered campaign target) with a wrapper that records one span per
call: ``[id, parent_id, name, start_ns, end_ns, accumulated_ns, attrs]``.
The parent is the innermost open span of the calling task or thread
(a ``contextvars`` variable, so asyncio tasks and ``to_thread`` calls
keep their own chains).  Calls too frequent for a span each — the
router's per-message ``propose_delay`` and plan-cache builds — are
*accumulated*: their time is summed per layer and subtracted from the
enclosing span instead.

Nothing inside ``src/`` is edited; :meth:`Tracer.uninstall` restores
every patched attribute.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the union of its children's
intervals (clipped to the span) minus its accumulated time;
:func:`layer_self_ns` folds self times into layers by span-name prefix.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from collections import defaultdict

now = time.perf_counter_ns

#: Span-name prefix -> layer.  Accumulated names use the same prefixes.
LAYERS = (
    "harness", "request", "stack", "bsp", "logp", "router", "plancache",
    "check", "service", "pool", "store", "protocol", "loadgen",
)


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return "protocol" if head == "client" else head


class Tracer:
    """In-memory span recorder with attribute patching."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.accum: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []
        #: The pool point being executed; the campaign target runs in a
        #: fresh watchdog thread that inherits no context, so it adopts
        #: this span as its parent explicitly.
        self.pool_point: list | None = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str, parent: list | None = None, attrs=None):
        if parent is None:
            parent = self.current.get()
        span = [next(self._ids), parent[0] if parent else 0, name, now(), 0, 0, attrs]
        return span, self.current.set(span)

    def close(self, span: list, token) -> None:
        span[4] = now()
        self.current.reset(token)
        self.spans.append(span)

    def add(self, name: str, ns: int, count: int = 1) -> None:
        """Accumulate ``ns`` into layer ``name`` and the open span."""
        acc = self.accum[name]
        acc[0] += ns
        acc[1] += count
        parent = self.current.get()
        if parent is not None:
            parent[5] += ns

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name: str, attrs=None, parent_of=None):
        """Synchronous span wrapper; ``attrs(args, kwargs, result)``
        annotates the span, ``parent_of()`` overrides the parent."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = tracer.open(name, parent_of() if parent_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if attrs is not None:
                span[6] = attrs(args, kwargs, out)
            return out

        return wrapper

    def wrap_async(self, fn, name: str, attrs=None):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span, token = tracer.open(name)
            try:
                out = await fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if attrs is not None:
                span[6] = attrs(args, kwargs, out)
            return out

        return wrapper

    def wrap_accumulated(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(name, now() - t0)

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory, *, static: bool = False):
        """Replace ``owner.attr`` by ``wrapper_factory(original)``.
        ``static`` keeps a class-level callable unbound (class and
        static methods)."""
        original = getattr(owner, attr)
        raw = owner.__dict__.get(attr, original) if isinstance(owner, type) else original
        new = wrapper_factory(original)
        setattr(owner, attr, staticmethod(new) if static else new)
        self._patches.append((owner, attr, raw))

    def patch_item(self, mapping: dict, key: str, wrapper_factory) -> None:
        original = mapping[key]
        mapping[key] = wrapper_factory(original)
        self._patches.append((mapping, key, original))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # -- the layers ----------------------------------------------------------

    def install_engine(self) -> None:
        """Request path, Stack, both machines, router, plan caches and
        the cost check: the layers a simulation passes through."""
        import repro.engine.request as request_mod
        import repro.networks.backed as backed
        import repro.workloads.registry as registry
        from repro.bsp.machine import BSPMachine
        from repro.engine.stack import Stack
        from repro.logp.machine import LogPMachine
        from repro.obs.check import CostModelCheck
        from repro.perf.memo import PlanCache

        def events(_a, _k, out):
            return out.kernel.events

        self.patch(request_mod.RunRequest, "coerce",
                   lambda f: self.wrap(f, "request.coerce"), static=True)
        self.patch(request_mod.RunRequest, "key",
                   lambda f: self.wrap(f, "request.key"))
        self.patch(request_mod, "build_stack",
                   lambda f: self.wrap(f, "request.build_stack"))
        self.patch(Stack, "run", lambda f: self.wrap(f, "stack.run"))
        self.patch(BSPMachine, "run", lambda f: self.wrap(f, "bsp.run", events))
        self.patch(LogPMachine, "run", lambda f: self.wrap(f, "logp.run", events))
        self.patch(backed, "route_packets",
                   lambda f: self.wrap(f, "router.route", events))
        self.patch(backed, "build_paths", lambda f: self.wrap(f, "router.paths"))
        self.patch(backed.NetworkDelivery, "propose_delay",
                   lambda f: self.wrap_accumulated(f, "router.delay"))
        self.patch(CostModelCheck, "check",
                   lambda f: self.wrap(f, "check.cost"), static=True)
        self.patch(registry, "check_workload",
                   lambda f: self.wrap(f, "check.cost"))

        tracer = self

        def plan_get(get):
            @functools.wraps(get)
            def wrapper(cache, key, factory):
                def build():
                    t0 = now()
                    try:
                        return factory()
                    finally:
                        tracer.add("plancache.build", now() - t0)

                return get(cache, key, build)

            return wrapper

        self.patch(PlanCache, "get", plan_get)

    def install_service(self) -> None:
        """The serving layers inside a server process: submit, store,
        pool and the campaign target a pool point runs."""
        import repro.campaign.pool as pool
        import repro.campaign.targets as targets
        from repro.campaign.store import ShardedStore
        from repro.service.service import SimulationService

        def submit_attrs(_a, _k, out):
            return (out.get("key"), out.get("outcome"))

        def key_of_item(args, _k, _out):
            return args[1]["key"]

        def key_of_entry(args, _k, _out):
            return args[1]["key"]

        def points(args, kwargs, _out):
            return len(args[1])

        self.patch(SimulationService, "submit",
                   lambda f: self.wrap_async(f, "service.submit", submit_attrs))
        self.patch(ShardedStore, "get", lambda f: self.wrap(f, "store.get"))
        self.patch(ShardedStore, "append",
                   lambda f: self.wrap(f, "store.append", key_of_entry))
        self.patch(ShardedStore, "open", lambda f: self.wrap(f, "store.open"))
        self.patch(pool, "run_pool", lambda f: self.wrap(f, "pool.run", points))

        tracer = self

        def execute(fn):
            @functools.wraps(fn)
            def wrapper(target_fn, item, timeout_s):
                span, token = tracer.open("pool.point", attrs=item["key"])
                tracer.pool_point = span
                try:
                    return fn(target_fn, item, timeout_s)
                finally:
                    tracer.pool_point = None
                    tracer.close(span, token)

            return wrapper

        self.patch(pool, "execute_point", execute)
        self.patch_item(
            targets.TARGETS, "request",
            lambda f: self.wrap(f, "pool.target", parent_of=lambda: tracer.pool_point),
        )


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> self ns: duration minus the union of its children's
    intervals clipped to it, minus its accumulated time."""
    children: dict[int, list[list]] = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append(s)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
            lo, hi = max(c[3], start), min(c[4], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = (end - start) - covered - s[5]
    return out


def tree_ids(spans: list[list], roots: set[int]) -> set[int]:
    """Ids of every span descending from (and including) ``roots``."""
    children: dict[int, list[int]] = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append(s[0])
    seen, stack = set(), list(roots)
    while stack:
        sid = stack.pop()
        if sid in seen:
            continue
        seen.add(sid)
        stack.extend(children.get(sid, ()))
    return seen


def layer_self_ns(spans, accum, members: set[int]) -> dict[str, int]:
    """Self ns per layer over the spans in ``members``, plus the
    accumulated layers (which sit inside those spans)."""
    selfs = self_times([s for s in spans if s[0] in members])
    out = {layer: 0 for layer in LAYERS}
    for s in spans:
        if s[0] in members:
            out[layer_of(s[2])] += selfs[s[0]]
    for name, (ns, _count) in accum.items():
        out[layer_of(name)] += ns
    return out


def by_name(spans) -> dict[str, list[list]]:
    out: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        out[s[2]].append(s)
    return out
