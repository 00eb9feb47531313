"""Unit tests for events and operations (Definition 1)."""

import pickle

import pytest

from repro.core.events import Event, Op, OpKind, read, write


class TestOp:
    def test_read_constructor(self):
        op = read("x", 5)
        assert op.kind is OpKind.READ
        assert op.obj == "x"
        assert op.value == 5

    def test_write_constructor(self):
        op = write("y", 7)
        assert op.kind is OpKind.WRITE
        assert op.obj == "y"
        assert op.value == 7

    def test_is_read_is_write(self):
        assert read("x", 0).is_read
        assert not read("x", 0).is_write
        assert write("x", 0).is_write
        assert not write("x", 0).is_read

    def test_equality_is_structural(self):
        assert read("x", 1) == read("x", 1)
        assert read("x", 1) != read("x", 2)
        assert read("x", 1) != write("x", 1)
        assert read("x", 1) != read("y", 1)

    def test_hashable(self):
        assert len({read("x", 1), read("x", 1), write("x", 1)}) == 2

    def test_str_rendering(self):
        assert str(read("x", 1)) == "read(x, 1)"
        assert str(write("acct", -30)) == "write(acct, -30)"

    def test_values_may_be_arbitrary_hashables(self):
        op = write("x", ("tuple", 1))
        assert op.value == ("tuple", 1)


class TestOpContract:
    """``Op`` is a plain slotted class that keeps the frozen
    dataclass's equality, hashing and ``repr``."""

    def test_keyword_construction(self):
        assert Op(kind=OpKind.READ, obj="x", value=1) == read("x", 1)

    def test_never_equals_its_field_tuple_or_an_event(self):
        op = read("x", 1)
        assert op != (OpKind.READ, "x", 1)
        assert (OpKind.READ, "x", 1) != op
        assert op != Event(0, op)
        assert op.__eq__((OpKind.READ, "x", 1)) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self):
        op = write("x", ("a", 2))
        assert hash(op) == hash((OpKind.WRITE, "x", ("a", 2)))
        assert hash(op) == hash(write("x", ("a", 2)))

    def test_repr_is_the_dataclass_text(self):
        assert repr(read("x", 1)) == (
            "Op(kind=<OpKind.READ: 'read'>, obj='x', value=1)"
        )
        assert repr(write("y", ("a", None))) == (
            "Op(kind=<OpKind.WRITE: 'write'>, obj='y', value=('a', None))"
        )

    def test_no_instance_dict(self):
        op = read("x", 1)
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.note = "extra"

    def test_pickles_at_highest_protocol(self):
        op = write("x", {"k": (1, 2)})
        copy = pickle.loads(pickle.dumps(op, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is Op and copy == op
        assert copy.kind is OpKind.WRITE


class TestEvent:
    def test_accessors_delegate_to_op(self):
        e = Event(0, read("x", 3))
        assert e.is_read
        assert not e.is_write
        assert e.obj == "x"
        assert e.value == 3

    def test_distinct_ids_distinguish_same_op(self):
        e1 = Event(0, read("x", 3))
        e2 = Event(1, read("x", 3))
        assert e1 != e2

    def test_same_id_same_op_equal(self):
        assert Event(0, read("x", 3)) == Event(0, read("x", 3))

    def test_str_rendering(self):
        assert str(Event(2, write("x", 1))) == "e2:write(x, 1)"
