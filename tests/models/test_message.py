import copy
import pickle

import pytest

from repro.models.message import Message


class TestMessage:
    def test_uids_unique(self):
        msgs = [Message(src=0, dest=1) for _ in range(100)]
        assert len({m.uid for m in msgs}) == 100

    def test_equality_ignores_uid(self):
        a = Message(src=0, dest=1, payload="x", tag=3)
        b = Message(src=0, dest=1, payload="x", tag=3)
        assert a == b
        assert a.uid != b.uid

    def test_frozen(self):
        m = Message(src=0, dest=1)
        try:
            m.dest = 2
            assert False, "Message must be immutable"
        except AttributeError:
            pass

    def test_repr_compact(self):
        assert "0->1" in repr(Message(src=0, dest=1))


class TestValueSemantics:
    """What every consumer of a message relies on: the body is the value,
    the uid is its identity (traces and ``FaultyMedium`` key by it)."""

    def test_positional_and_keyword_construction_agree(self):
        a = Message(1, 2, "x", 4, 3)
        b = Message(src=1, dest=2, payload="x", tag=4, size=3)
        assert a == b
        assert (a.src, a.dest, a.payload, a.tag, a.size) == (1, 2, "x", 4, 3)
        d = Message(1, 2)
        assert (d.payload, d.tag, d.size) == (None, 0, 1)

    def test_uid_is_immutable(self):
        m = Message(0, 1)
        with pytest.raises(AttributeError):
            m.uid = m.uid + 1

    def test_never_equals_a_tuple(self):
        m = Message(0, 1, "x", 2, 1)
        body = (m.src, m.dest, m.payload, m.tag, m.size)
        for t in (body, body + (m.uid,)):
            assert m != t and t != m
            assert not (m == t) and not (t == m)

    def test_equal_bodies_hash_equal(self):
        a = Message(3, 4, ("k", 1), 7, 2)
        b = Message(3, 4, ("k", 1), 7, 2)
        assert a.uid != b.uid
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_differing_bodies_differ(self):
        base = Message(0, 1, "x", 2, 3)
        for other in (
            Message(9, 1, "x", 2, 3),
            Message(0, 9, "x", 2, 3),
            Message(0, 1, "y", 2, 3),
            Message(0, 1, "x", 9, 3),
            Message(0, 1, "x", 2, 9),
        ):
            assert base != other and not (base == other)

    def test_not_ordered(self):
        with pytest.raises(TypeError):
            sorted([Message(0, 1), Message(0, 0)])

    def test_repr_covers_the_body_only(self):
        a, b = Message(0, 1, "x", 2), Message(0, 1, "x", 2)
        assert repr(a) == repr(b) == "Msg(0->1, tag=2, payload='x')"

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_the_uid(self, clone):
        m = Message(0, 1, {"k": [1]}, 2, 3)
        c = clone(m)
        assert type(c) is Message
        assert c == m and c.uid == m.uid
        assert c.payload == {"k": [1]}
