"""Real-process distributed backend (``repro.dist``).

The simulators answer "what does the model predict?"; this package
answers "what does a real machine do?" — each LogP processor is an OS
process, links are TCP sockets, failures are real SIGKILLs, and the
same seeded :class:`~repro.faults.plan.FaultPlan` that drives the
simulated fault media drops/duplicates/delays frames at the wire.

Layering (each module usable alone):

* :mod:`~repro.dist.params` — :class:`DistParams` runtime knobs
* :mod:`~repro.dist.clock` — thread-safe Lamport clock
* :mod:`~repro.dist.frames` — length-prefixed JSON wire protocol
* :mod:`~repro.dist.channel` — seq/ack/retransmit reliable channel
* :mod:`~repro.dist.injector` — FaultPlan -> wire-fault adapter
* :mod:`~repro.dist.eventlog` — Lamport-stamped JSONL logs + merging
* :mod:`~repro.dist.programs` — checkpointable superstep programs
* :mod:`~repro.dist.worker` — the worker process entrypoint
* :mod:`~repro.dist.supervisor` — spawn/monitor/relay/restart
* :mod:`~repro.dist.analyze` — merged-log invariants + obs replay
* :mod:`~repro.dist.measure` — wall-clock L/o/g fits

Front door::

    from repro.dist import run_dist
    result = run_dist("ring", p=3, kwargs={"rounds": 4})
    report = result.analyze(strict=True)   # exactly-once, agreement, ...

or, composed with everything else, ``Stack().on_dist(p=3).run(...)``.
"""

from repro.dist.analyze import analyze_run, check_merged, replay_to_tracer, to_logp_result
from repro.dist.channel import ChannelClosed, ChannelStats, ReliableChannel
from repro.dist.clock import LamportClock
from repro.dist.eventlog import EventLogWriter, merge_logs, read_log
from repro.dist.frames import FrameReader, encode_frame
from repro.dist.injector import WireFaults, preview_fates, wire_fault_plan
from repro.dist.params import DistParams
from repro.dist.programs import DIST_PROGRAMS, DistContext, make_program, run_reference
from repro.dist.supervisor import DistResult, Supervisor, run_dist

__all__ = [
    "DistParams",
    "LamportClock",
    "encode_frame",
    "FrameReader",
    "ReliableChannel",
    "ChannelStats",
    "ChannelClosed",
    "WireFaults",
    "preview_fates",
    "wire_fault_plan",
    "EventLogWriter",
    "read_log",
    "merge_logs",
    "DistContext",
    "DIST_PROGRAMS",
    "make_program",
    "run_reference",
    "Supervisor",
    "DistResult",
    "run_dist",
    "analyze_run",
    "check_merged",
    "replay_to_tracer",
    "to_logp_result",
]
