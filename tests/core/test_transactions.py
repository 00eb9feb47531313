"""Unit tests for transactions and the §2 judgements."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InternalConsistencyError
from repro.core.events import read, write
from repro.core.transactions import (
    Transaction,
    all_internally_consistent,
    check_internal_consistency,
    final_writes,
    footprint,
    initialisation_transaction,
    read_only,
    transaction,
    write_only,
)


class TestConstruction:
    def test_transaction_builder_assigns_event_ids(self):
        t = transaction("t1", read("x", 0), write("x", 1))
        assert [e.eid for e in t.events] == [0, 1]

    def test_empty_transaction_rejected(self):
        with pytest.raises(ValueError):
            Transaction("t1", ())

    def test_equality_by_tid(self):
        t1 = transaction("t1", read("x", 0))
        t2 = transaction("t1", write("y", 9))
        assert t1 == t2
        assert hash(t1) == hash(t2)

    def test_read_only_and_write_only_builders(self):
        r = read_only("r", [("x", 1), ("y", 2)])
        assert [e.op for e in r.events] == [read("x", 1), read("y", 2)]
        w = write_only("w", [("x", 1)])
        assert [e.op for e in w.events] == [write("x", 1)]

    def test_initialisation_transaction(self):
        init = initialisation_transaction(["y", "x"], value=0)
        assert init.tid == "t_init"
        assert init.final_write("x") == 0
        assert init.final_write("y") == 0
        assert init.written_objects == {"x", "y"}

    def test_initialisation_requires_objects(self):
        with pytest.raises(ValueError):
            initialisation_transaction([])


class TestObjectViews:
    def test_objects(self):
        t = transaction("t", read("x", 0), write("y", 1))
        assert t.objects == {"x", "y"}
        assert t.read_objects == {"x"}
        assert t.written_objects == {"y"}

    def test_events_on(self):
        t = transaction("t", read("x", 0), write("y", 1), write("x", 2))
        assert [e.op for e in t.events_on("x")] == [read("x", 0), write("x", 2)]


class TestJudgements:
    def test_final_write_is_last_write(self):
        t = transaction("t", write("x", 1), write("x", 2))
        assert t.final_write("x") == 2

    def test_final_write_none_without_write(self):
        t = transaction("t", read("x", 0))
        assert t.final_write("x") is None

    def test_writes_predicate(self):
        t = transaction("t", write("x", 1))
        assert t.writes("x")
        assert not t.writes("y")

    def test_external_read_first_access_is_read(self):
        t = transaction("t", read("x", 7), write("x", 8), read("x", 8))
        assert t.external_read("x") == 7
        assert t.reads_externally("x")

    def test_external_read_undefined_after_write(self):
        t = transaction("t", write("x", 1), read("x", 1))
        assert t.external_read("x") is None
        assert not t.reads_externally("x")

    def test_external_read_undefined_without_access(self):
        t = transaction("t", read("y", 0))
        assert t.external_read("x") is None

    def test_external_read_objects(self):
        t = transaction("t", read("x", 0), write("y", 1), read("y", 1))
        assert t.external_read_objects == {"x"}


class TestInternalConsistency:
    def test_consistent_read_after_write(self):
        t = transaction("t", write("x", 1), read("x", 1))
        assert t.is_internally_consistent()

    def test_inconsistent_read_after_write(self):
        t = transaction("t", write("x", 1), read("x", 2))
        assert not t.is_internally_consistent()
        assert "should return" in t.internal_violations()[0]

    def test_repeated_reads_must_agree(self):
        good = transaction("t", read("x", 3), read("x", 3))
        bad = transaction("t", read("x", 3), read("x", 4))
        assert good.is_internally_consistent()
        assert not bad.is_internally_consistent()

    def test_last_preceding_access_wins(self):
        t = transaction(
            "t", read("x", 3), write("x", 5), write("x", 6), read("x", 6)
        )
        assert t.is_internally_consistent()

    def test_first_read_unconstrained(self):
        t = transaction("t", read("x", 42))
        assert t.is_internally_consistent()

    def test_different_objects_independent(self):
        t = transaction("t", write("x", 1), read("y", 9))
        assert t.is_internally_consistent()

    def test_check_internal_consistency_raises(self):
        bad = transaction("t", write("x", 1), read("x", 2))
        with pytest.raises(InternalConsistencyError):
            check_internal_consistency([bad])

    def test_all_internally_consistent(self):
        good = transaction("g", read("x", 0))
        bad = transaction("b", write("x", 1), read("x", 2))
        assert all_internally_consistent([good])
        assert not all_internally_consistent([good, bad])


# ----------------------------------------------------------------------
# The single-pass footprint against the definitions of §2
# ----------------------------------------------------------------------

ops_strategy = st.lists(
    st.builds(
        lambda is_read, obj, value: (read if is_read else write)(obj, value),
        st.booleans(),
        st.sampled_from("xyz"),
        st.integers(0, 3),
    ),
    max_size=12,
)


def definitional_footprint(ops):
    """Scan each object's operations separately: the first one decides
    an external read, the last write decides the final write."""
    reads, writes = {}, {}
    for obj in {op.obj for op in ops}:
        on_obj = [op for op in ops if op.obj == obj]
        if on_obj[0].is_read:
            reads[obj] = on_obj[0].value
        written = [op.value for op in on_obj if op.is_write]
        if written:
            writes[obj] = written[-1]
    return reads, writes


class TestFootprint:
    @settings(max_examples=300, deadline=None)
    @given(ops_strategy)
    def test_matches_per_object_definition(self, ops):
        assert footprint(ops) == definitional_footprint(ops)
        assert final_writes(ops) == definitional_footprint(ops)[1]

    @settings(max_examples=100, deadline=None)
    @given(ops_strategy.filter(bool))
    def test_transaction_judgements_read_the_footprint(self, ops):
        t = transaction("t", *ops)
        reads, writes = definitional_footprint(ops)
        assert t.external_read_objects == frozenset(reads)
        assert t.written_objects == frozenset(writes)
        for obj in "xyz":
            assert t.reads_externally(obj) == (obj in reads)
            assert t.external_read(obj) == reads.get(obj)
            assert t.writes(obj) == (obj in writes)
            assert t.final_write(obj) == writes.get(obj)
