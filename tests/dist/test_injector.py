"""WireFaults: same seeded FaultPlan, same fates, in both backends."""

import pytest

from repro.dist.injector import WireFaults, preview_fates, wire_fault_plan
from repro.errors import ParameterError
from repro.faults.plan import FaultPlan
from repro.models.message import Message

PLAN = FaultPlan(seed=42, drop_rate=0.3, dup_rate=0.2, delay_rate=0.2,
                 max_extra_delay=5)


def frame(src: int, dest: int, uid: str = "u") -> dict:
    return {"t": "deliver", "src": src, "dest": dest, "uid": uid}


class TestDeterminism:
    def test_preview_is_pure(self):
        assert preview_fates(PLAN, 0, 1, 20) == preview_fates(PLAN, 0, 1, 20)

    def test_injector_consumes_the_preview_stream(self):
        wire = WireFaults(PLAN)
        drawn = [wire.send_fate(frame(0, 1, f"0:0:{k}")) for k in range(20)]
        assert drawn == preview_fates(PLAN, 0, 1, 20)

    def test_links_have_independent_streams(self):
        forward = preview_fates(PLAN, 0, 1, 30)
        backward = preview_fates(PLAN, 1, 0, 30)
        assert forward != backward  # astronomically unlikely to collide

    def test_simulator_medium_draws_the_same_stream(self):
        # FaultyMedium calls ActiveFaults.fate(msg) per accepted message;
        # the injector calls it per transmission.  Same plan, same link,
        # same draw order => same fates: one seed names one scenario in
        # both backends.
        active = PLAN.activate()
        sim = [active.fate(Message(src=2, dest=3, payload=None, size=1))
               for _ in range(25)]
        assert sim == preview_fates(PLAN, 2, 3, 25)


class TestBookkeeping:
    def test_events_and_summary_count_injected_faults(self):
        wire = WireFaults(PLAN)
        for k in range(50):
            wire.send_fate(frame(0, 1, f"0:0:{k}"))
        summary = wire.summary()
        assert summary == {
            "drop": sum(1 for e in wire.events if e[0] == "drop"),
            "dup": sum(1 for e in wire.events if e[0] == "dup"),
            "delay": sum(1 for e in wire.events if e[0] == "delay"),
        }
        assert sum(summary.values()) == len(wire.events) > 0
        assert all(e[1] == 0 and e[2] == 1 for e in wire.events)

    def test_no_plan_means_no_fates(self):
        wire = WireFaults(None)
        assert not wire.enabled
        assert wire.send_fate(frame(0, 1)) is None
        assert wire.kill_directive(0) is None
        assert wire.summary() == {"drop": 0, "dup": 0, "delay": 0}

    def test_crash_only_plan_disables_message_fates(self):
        wire = WireFaults(FaultPlan(seed=1, crash={1: 2}))
        assert not wire.enabled
        assert wire.send_fate(frame(0, 1)) is None
        assert wire.kill_directive(1) == 2
        assert wire.kill_directive(0) is None


class TestWireFaultPlan:
    """The one fault spec the ``dist`` CLI and campaign target share."""

    def test_rates_kill_and_delay_default(self):
        plan = wire_fault_plan(
            {"drop": 0.2, "dup": 0.1, "delay": 0.1, "kill": ["1:2", "0:3"]}, seed=7
        )
        assert (plan.seed, plan.drop_rate, plan.dup_rate, plan.delay_rate) == (
            7, 0.2, 0.1, 0.1
        )
        assert plan.max_extra_delay == 5
        assert dict(plan.crash) == {1: 2, 0: 3}

    def test_no_faults_is_no_plan(self):
        assert wire_fault_plan({}) is None
        assert wire_fault_plan({"kill": ""}) is None

    @pytest.mark.parametrize(
        "faults, match",
        [
            ({"reorder": 0.5}, "unknown wire fault"),
            ({"foo": 1}, "unknown wire fault"),
            ({"drop": "x"}, "drop must be a rate"),
            ({"drop": 2.0}, "drop_rate"),
            ({"delay": 0.1, "max_extra_delay": 1.5}, "max_extra_delay must be an integer"),
            ({"kill": "3"}, "PID:SUPERSTEP"),
        ],
    )
    def test_anything_else_is_rejected(self, faults, match):
        with pytest.raises(ParameterError, match=match):
            wire_fault_plan(faults)

    def test_campaign_target_rejects_unapplied_faults(self):
        """The ``dist`` target builds its plan the same way, so a rate the
        injector never applies fails before any process spawns."""
        from repro.campaign import run_point

        with pytest.raises(ParameterError, match="unknown wire fault"):
            run_point("dist", {"program": "ring", "p": 2, "reorder": 0.5})
