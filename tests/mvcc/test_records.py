"""The record types' contract: ``CommitRecord`` and ``Version`` are
plain slotted classes that keep the frozen dataclass's equality,
hashing and ``repr``, and survive the round trips the log and the
certifier put them through."""

import pickle

import pytest

from repro.core.events import read, write
from repro.mvcc import engine as engine_module
from repro.mvcc.engine import CommitRecord
from repro.mvcc.store import Version
from repro.wal.format import (
    commit_record_from_payload,
    commit_record_to_payload,
)

EVENTS = (read("x", 0), write("x", 1), write("y", "a"), write("x", 2))


def make_record(**changes):
    fields = dict(tid="t3", session="s1", commit_ts=3, events=EVENTS,
                  snapshot=2, extra=frozenset({"t9"}), sources=(0,))
    fields.update(changes)
    return CommitRecord(**fields)


def field_tuple(record):
    return (record.tid, record.session, record.commit_ts, record.events,
            record.snapshot, record.extra, record.sources)


class TestCommitRecord:
    def test_positional_and_keyword_construction_agree(self):
        assert CommitRecord("t3", "s1", 3, EVENTS, 2, frozenset({"t9"}),
                            (0,)) == make_record()

    def test_defaults(self):
        record = CommitRecord("t1", "s", 1, (write("x", 1),), 0)
        assert record.extra == frozenset() and record.sources == ()

    def test_equality_only_with_the_same_class(self):
        record = make_record()
        assert record == make_record()
        assert record != make_record(sources=(1,))
        assert record != field_tuple(record)
        assert record.__eq__(field_tuple(record)) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self):
        record = make_record()
        assert hash(record) == hash(make_record())
        assert hash(record) == hash(field_tuple(record))
        assert len({record, make_record(), make_record(tid="t4")}) == 2

    def test_repr_is_the_dataclass_text(self):
        record = CommitRecord("t1", "s", 1, (write("x", 1),), 0)
        assert repr(record) == (
            "CommitRecord(tid='t1', session='s', commit_ts=1, "
            "events=(Op(kind=<OpKind.WRITE: 'write'>, obj='x', value=1),), "
            "snapshot=0, extra=frozenset(), sources=())"
        )

    def test_no_instance_dict(self):
        record = make_record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "extra"

    def test_writes_computed_once(self, monkeypatch):
        calls = []

        def counting(events):
            calls.append(events)
            return final_writes(events)

        final_writes = engine_module.final_writes
        monkeypatch.setattr(engine_module, "final_writes", counting)
        record = make_record()
        assert calls == []
        writes = record.writes
        assert writes == {"x": 2, "y": "a"}
        assert record.writes is writes
        assert calls == [EVENTS]

    def test_writes_not_in_eq_hash_or_repr(self):
        record, fresh = make_record(), make_record()
        text, digest = repr(record), hash(record)
        assert record.writes
        assert record == fresh and fresh == record
        assert repr(record) == text == repr(fresh)
        assert hash(record) == digest
        assert "writes" not in text

    def test_log_round_trip(self):
        record = make_record()
        decoded = commit_record_from_payload(commit_record_to_payload(record))
        assert type(decoded) is CommitRecord
        assert decoded == record and hash(decoded) == hash(record)
        assert decoded.writes == record.writes

    @pytest.mark.parametrize("read_writes", [False, True])
    def test_pickles_at_highest_protocol(self, read_writes):
        record = make_record()
        if read_writes:
            record.writes
        copy = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is CommitRecord and copy == record
        assert copy.writes == {"x": 2, "y": "a"}


class TestVersion:
    def test_equality_only_with_the_same_class(self):
        assert Version(1, 2, "t2") == Version(value=1, commit_ts=2,
                                              writer="t2")
        assert Version(1, 2, "t2") != Version(1, 3, "t2")
        assert Version(1, 2, "t2") != (1, 2, "t2")
        assert Version(1, 2, "t2").__eq__((1, 2, "t2")) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self):
        assert hash(Version("a", 2, "t2")) == hash(("a", 2, "t2"))

    def test_repr_is_the_dataclass_text(self):
        assert repr(Version(1, 0, "t_init")) == (
            "Version(value=1, commit_ts=0, writer='t_init')"
        )

    def test_no_instance_dict(self):
        assert not hasattr(Version(1, 2, "t2"), "__dict__")

    def test_pickles_at_highest_protocol(self):
        version = Version((1, "a"), 2, "t2")
        copy = pickle.loads(pickle.dumps(version, pickle.HIGHEST_PROTOCOL))
        assert type(copy) is Version and copy == version
