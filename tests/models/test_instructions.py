"""Value semantics of the BSP and LogP instruction objects: validation,
class-strict equality, hashing and the reprs (defaults included) that
traces and errors print."""

import pytest

from repro.bsp import program as bsp
from repro.errors import ProgramError
from repro.logp import instructions as logp

LOGP_VALUES = [
    logp.Compute(3),
    logp.Send(1, "x", tag=2, size=3),
    logp.Recv(),
    logp.TryRecv(),
    logp.WaitUntil(3),
    logp.Linger(),
]
BSP_VALUES = [bsp.Compute(3), bsp.Send(1, "x", tag=2), bsp.Sync()]


class TestValidation:
    def test_logp_negative_compute_rejected(self):
        """BSP ``Compute(-1)`` and LogP ``Send(size=0)`` are pinned in
        the machines' own suites."""
        with pytest.raises(ProgramError, match="ops >= 0"):
            logp.Compute(-1)


class TestEquality:
    def test_equality_is_class_strict(self):
        assert logp.Compute(3) != logp.WaitUntil(3)
        assert logp.Recv() != logp.TryRecv()
        assert logp.Recv() != logp.Linger()
        assert bsp.Send(1) != logp.Send(1)
        assert logp.Send(1) != bsp.Send(1)
        assert bsp.Compute(3) != logp.Compute(3)

    @pytest.mark.parametrize(
        "value", LOGP_VALUES + BSP_VALUES, ids=lambda v: repr(v)
    )
    def test_equal_instances_hash_equal(self, value):
        twin = type(value)(
            *[getattr(value, f) for f in type(value).__dataclass_fields__]
        )
        assert twin is not value
        assert twin == value and hash(twin) == hash(value)

    def test_fields_take_part_in_equality(self):
        assert logp.Send(1, "x") != logp.Send(1, "y")
        assert logp.Send(1, size=2) != logp.Send(1)
        assert bsp.Send(1, tag=1) != bsp.Send(1)
        assert logp.WaitUntil(1) != logp.WaitUntil(2)


class TestRepr:
    def test_reprs(self):
        assert repr(logp.Send(1, "x")) == "Send(dest=1, payload='x', tag=0, size=1)"
        assert repr(bsp.Send(1, "x")) == "Send(dest=1, payload='x', tag=0)"
        assert repr(bsp.Compute(2)) == "Compute(ops=2)"
        assert repr(logp.Compute(2)) == "Compute(ops=2)"
        assert repr(bsp.Sync()) == "Sync()"
        assert repr(logp.WaitUntil(5)) == "WaitUntil(time=5)"
        assert repr(logp.Recv()) == "Recv()"


class TestFieldless:
    @pytest.mark.parametrize(
        "cls", [logp.Recv, logp.TryRecv, logp.Linger, bsp.Sync],
        ids=lambda c: c.__name__,
    )
    def test_no_settable_attribute(self, cls):
        with pytest.raises(AttributeError):
            cls().anything = 1
