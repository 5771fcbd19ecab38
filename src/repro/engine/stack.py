"""Declarative simulation stacks: compose the paper's layers by name.

The paper's whole argument is architectural: a routed network *hosts* a
LogP abstraction, which *hosts* (and is hosted by) BSP, with Theorems
1-3 bounding the cost of each hop.  Before this module, each hop was a
bespoke entry point (``simulate_logp_on_bsp``, ``simulate_bsp_on_logp``,
``run_on_network``) with its own adapter plumbing, and the three-layer
composition existed only as a ``machine_kwargs`` trick.  :class:`Stack`
makes the composition first-class::

    Stack(bsp_prog).on_logp(params).run()                  # Theorem 2/3
    Stack(logp_prog, model="logp", params=P).on_bsp().run()  # Theorem 1
    Stack(bsp_prog).on_network(topo).run()                 # Section 5
    Stack(bsp_prog).on_logp(params).on_network(topo).run() # all three layers

A stack is immutable: each ``on_*`` call returns a new stack with one
more host layer.  ``run()`` looks the full chain — ``(guest_model,
*host_kinds)`` — up in the adapter registry and delegates to the same
engine-backed simulators the legacy entry points use, so stacked runs
reproduce them bit-identically (the stack equivalence tests assert
this).  Unsupported chains fail loudly with the list of supported ones.

Machines are imported lazily inside the adapters so this module can be
re-exported from :mod:`repro.engine` without an import cycle (the
machines themselves import :mod:`repro.engine.core`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ProgramError
from repro.models.params import BSPParams, LogPParams

__all__ = ["Stack", "StackLayer", "SUPPORTED_CHAINS"]


@dataclass(frozen=True)
class StackLayer:
    """One host layer of a stack: its kind plus adapter options."""

    kind: str  # "bsp" | "logp" | "network"
    spec: Any = None  # model params (bsp/logp) or a Topology (network)
    options: tuple[tuple[str, Any], ...] = ()

    def opts(self) -> dict:
        return dict(self.options)


@dataclass(frozen=True)
class Stack:
    """A guest program plus the tower of hosts that will simulate it.

    Parameters
    ----------
    program:
        The guest program(s), in the guest model's coroutine dialect
        (single callable or exactly-``p`` sequence, as everywhere else).
    model:
        The guest model: ``"bsp"`` (default) or ``"logp"``.
    params:
        The guest model's parameters, where the guest carries its own
        (a LogP guest needs :class:`LogPParams`; a BSP guest's machine
        parameters are determined by its host, so it passes ``None``).
    """

    program: Callable | Sequence[Callable]
    model: str = "bsp"
    params: Any = None
    layers: tuple[StackLayer, ...] = field(default=())
    #: The RunRequest this stack was built from (None for hand-built
    #: stacks); carried for ``to_request`` round-trips, excluded from
    #: equality so a request-built stack equals its hand-built twin.
    request: Any = field(default=None, compare=False, repr=False)

    # -- the request schema --------------------------------------------

    @classmethod
    def from_request(cls, request) -> "Stack":
        """Build the stack a :class:`~repro.engine.request.RunRequest`
        (or its dict form) names — the one schema-driven construction
        path the CLI, campaign targets, and service share."""
        from repro.engine.request import build_stack

        return build_stack(request)

    def to_request(self):
        """The request this stack was built from.

        ``Stack.from_request(req).to_request() == req`` round-trips; a
        hand-built stack has no serializable request form (its programs
        are live callables), so this raises with the construction hint.
        """
        if self.request is None:
            raise ProgramError(
                "this stack was not built from a RunRequest; construct it "
                "with Stack.from_request(RunRequest(chain=..., ...)) to get "
                "a serializable round-trip"
            )
        return self.request

    # -- composition ---------------------------------------------------

    def _push(self, layer: StackLayer) -> "Stack":
        return Stack(
            program=self.program,
            model=self.model,
            params=self.params,
            layers=self.layers + (layer,),
        )

    def on_bsp(self, params: BSPParams | None = None, **options: Any) -> "Stack":
        """Host the current stack on a BSP machine (Theorem 1 direction
        for a LogP guest).  Pass ``p=<bsp_p>`` for the footnote-1
        work-preserving variant on fewer processors."""
        return self._push(StackLayer("bsp", params, tuple(sorted(options.items()))))

    def on_logp(self, params: LogPParams, **options: Any) -> "Stack":
        """Host the current stack on a LogP machine (Theorem 2/3
        direction for a BSP guest).  Options are forwarded to
        :func:`~repro.core.bsp_on_logp.simulate_bsp_on_logp`
        (``routing=``, ``seed=``, ``faults=``, ...)."""
        return self._push(StackLayer("logp", params, tuple(sorted(options.items()))))

    def on_network(self, topology: Any, **options: Any) -> "Stack":
        """Host the current stack on a routed point-to-point network
        (Section 5).  Under a LogP layer this swaps the host machine's
        delivery scheduler for hop-by-hop routing on ``topology``."""
        return self._push(
            StackLayer("network", topology, tuple(sorted(options.items())))
        )

    def on_dist(self, p: int, **options: Any) -> "Stack":
        """Host the stack on ``p`` real OS processes over TCP sockets
        (:mod:`repro.dist`) — the terminal backend where failures are
        SIGKILLs and latency is wall-clock.

        The guest ``program`` must be a *name* from
        :data:`repro.dist.programs.DIST_PROGRAMS` (the checkpointable
        superstep dialect; coroutine programs cannot survive a restart).
        Options are forwarded to :func:`repro.dist.supervisor.run_dist`
        (``kwargs=``, ``faults=``, ``params=``, ``log_dir=``, ...).
        """
        return self._push(StackLayer("dist", p, tuple(sorted(options.items()))))

    # -- execution -----------------------------------------------------

    @property
    def chain(self) -> tuple[str, ...]:
        """The stack's shape, guest first: ``(model, *host_kinds)``."""
        return (self.model, *(layer.kind for layer in self.layers))

    def describe(self) -> str:
        """Human-readable stack shape, guest first: ``bsp -> logp -> network``."""
        return " -> ".join(self.chain)

    def run(self, **options: Any) -> Any:
        """Execute the stack and return the host adapter's report.

        Extra keyword arguments are merged over the layers' recorded
        options (outermost wins) and forwarded to the adapter.
        """
        chain = self.chain
        adapter = _ADAPTERS.get(chain)
        if adapter is None:
            supported = ", ".join(
                " -> ".join(c) for c in sorted(_ADAPTERS)
            )
            raise ProgramError(
                f"unsupported stack {self.describe()!r}; supported stacks: "
                f"{supported}"
            )
        merged: dict[str, Any] = {}
        for layer in self.layers:
            merged.update(layer.opts())
        merged.update(options)
        return adapter(self, merged)

    def _guest_logp_params(self) -> LogPParams:
        if not isinstance(self.params, LogPParams):
            raise ProgramError(
                f"stack {self.describe()!r} needs guest LogPParams: "
                f"Stack(program, model='logp', params=LogPParams(...))"
            )
        return self.params


# -- adapter registry ---------------------------------------------------
#
# Keyed by the full chain tuple.  Each adapter receives the stack and the
# merged option dict and delegates to the engine-backed simulators, so a
# stacked run and its legacy entry point are the same computation.
#
# ``kernel=`` is a first-class stack option: every adapter routes it to
# the component that owns an event queue — the host machine's
# ``kernel=`` argument (folded into ``machine_kwargs`` for the theorem
# simulators) or the router's ``RoutingConfig.kernel`` — so
# ``.on_logp(params, kernel="tick")`` selects the kernel no matter
# how deep the simulator plumbing sits.


def _fold_kernel_into_machine(opts: dict) -> None:
    """Move a stack-level ``kernel=`` option into ``machine_kwargs``,
    the argument the theorem simulators forward to their host machine."""
    kernel = opts.pop("kernel", None)
    if kernel is not None:
        machine_kwargs = dict(opts.get("machine_kwargs") or {})
        machine_kwargs.setdefault("kernel", kernel)
        opts["machine_kwargs"] = machine_kwargs


def _fold_kernel_into_config(opts: dict) -> None:
    """Move a stack-level ``kernel=`` option into the router's
    ``RoutingConfig`` (rebuilding it, since configs are frozen)."""
    from dataclasses import replace

    from repro.networks.routing_sim import RoutingConfig

    kernel = opts.pop("kernel", None)
    if kernel is not None:
        config = opts.get("config") or RoutingConfig()
        opts["config"] = replace(config, kernel=kernel)


def _run_bsp_native(stack: Stack, opts: dict) -> Any:
    from repro.bsp.machine import BSPMachine

    (layer,) = stack.layers
    if not isinstance(layer.spec, BSPParams):
        raise ProgramError("Stack(...).on_bsp(params) needs BSPParams to run natively")
    opts.setdefault("layer", "BSP")
    return BSPMachine(layer.spec, **opts).run(stack.program)


def _run_logp_native(stack: Stack, opts: dict) -> Any:
    from repro.logp.machine import LogPMachine

    (layer,) = stack.layers
    if not isinstance(layer.spec, LogPParams):
        raise ProgramError("Stack(...).on_logp(params) needs LogPParams to run natively")
    opts.setdefault("layer", "LogP")
    return LogPMachine(layer.spec, **opts).run(stack.program)


def _run_logp_on_bsp(stack: Stack, opts: dict) -> Any:
    from repro.core.logp_on_bsp import (
        simulate_logp_on_bsp,
        simulate_logp_on_bsp_workpreserving,
    )

    (layer,) = stack.layers
    if layer.spec is not None:
        opts.setdefault("bsp_params", layer.spec)
    _fold_kernel_into_machine(opts)
    guest = stack._guest_logp_params()
    bsp_p = opts.pop("p", None)
    if bsp_p is not None:
        return simulate_logp_on_bsp_workpreserving(
            guest, stack.program, bsp_p, **opts
        )
    return simulate_logp_on_bsp(guest, stack.program, **opts)


def _run_bsp_on_logp(stack: Stack, opts: dict) -> Any:
    from repro.core.bsp_on_logp import simulate_bsp_on_logp

    (layer,) = stack.layers
    if not isinstance(layer.spec, LogPParams):
        raise ProgramError("Stack(...).on_logp(params) needs host LogPParams")
    _fold_kernel_into_machine(opts)
    return simulate_bsp_on_logp(layer.spec, stack.program, **opts)


def _run_bsp_on_network(stack: Stack, opts: dict) -> Any:
    from repro.networks.backed import run_on_network

    (layer,) = stack.layers
    _fold_kernel_into_config(opts)
    return run_on_network(layer.spec, stack.program, **opts)


def _run_logp_on_network(stack: Stack, opts: dict) -> Any:
    from repro.logp.machine import LogPMachine
    from repro.networks.backed import NetworkDelivery

    (layer,) = stack.layers
    guest = stack._guest_logp_params()
    obs = opts.get("obs")
    opts.setdefault("layer", "LogP on host network")
    delivery = NetworkDelivery(layer.spec, obs=obs)
    result = LogPMachine(guest, delivery=delivery, **opts).run(stack.program)
    delivery.publish(layer="network")
    return result


def _run_bsp_on_logp_on_network(stack: Stack, opts: dict) -> Any:
    from repro.core.bsp_on_logp import simulate_bsp_on_logp
    from repro.networks.backed import NetworkDelivery

    logp_layer, net_layer = stack.layers
    if not isinstance(logp_layer.spec, LogPParams):
        raise ProgramError("Stack(...).on_logp(params) needs host LogPParams")
    _fold_kernel_into_machine(opts)
    machine_kwargs = dict(opts.pop("machine_kwargs", None) or {})
    delivery = machine_kwargs.get("delivery")
    if delivery is None:
        delivery = NetworkDelivery(net_layer.spec, obs=opts.get("obs"))
        machine_kwargs["delivery"] = delivery
    machine_kwargs.setdefault("layer", "guest BSP on host LogP on network")
    report = simulate_bsp_on_logp(
        logp_layer.spec, stack.program, machine_kwargs=machine_kwargs, **opts
    )
    if isinstance(delivery, NetworkDelivery):
        delivery.publish(layer="network")
    return report


def _run_bsp_on_dist(stack: Stack, opts: dict) -> Any:
    from repro.dist.supervisor import run_dist

    (layer,) = stack.layers
    if not isinstance(layer.spec, int) or isinstance(layer.spec, bool):
        raise ProgramError("Stack(...).on_dist(p) needs an integer worker count")
    if not isinstance(stack.program, str):
        raise ProgramError(
            "dist stacks take a registered program *name* "
            "(see repro.dist.programs.DIST_PROGRAMS), not a coroutine: "
            "real processes restart from checkpoints, which generator "
            "programs cannot provide"
        )
    obs = opts.pop("obs", None)
    plan = opts.pop("faults", None) or opts.pop("plan", None)
    opts.pop("plan", None)
    result = run_dist(stack.program, layer.spec, plan=plan, **opts)
    if obs is not None:
        obs.observe_dist(result)
    return result


_ADAPTERS: dict[tuple[str, ...], Callable[[Stack, dict], Any]] = {
    ("bsp", "bsp"): _run_bsp_native,
    ("logp", "logp"): _run_logp_native,
    ("logp", "bsp"): _run_logp_on_bsp,
    ("bsp", "logp"): _run_bsp_on_logp,
    ("bsp", "network"): _run_bsp_on_network,
    ("logp", "network"): _run_logp_on_network,
    ("bsp", "logp", "network"): _run_bsp_on_logp_on_network,
    ("bsp", "dist"): _run_bsp_on_dist,
}

#: Public view of the chains the registry supports.
SUPPORTED_CHAINS: tuple[tuple[str, ...], ...] = tuple(sorted(_ADAPTERS))
