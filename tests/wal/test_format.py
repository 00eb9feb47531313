"""Frame codec tests: framing, CRC, and bit-identical payload round trips."""

import hashlib
from types import MappingProxyType

import pytest

from repro.core.events import read as read_op, write as write_op
from repro.io.json_format import FormatError
from repro.mvcc import PSIEngine, SIEngine
from repro.mvcc.engine import CommitRecord
from repro.wal.format import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    LogMeta,
    MetaEncoder,
    commit_record_from_doc,
    commit_record_to_payload,
    encode_frame,
    meta_from_doc,
    meta_to_payload,
    payload_to_doc,
    scan_frames,
    segment_index,
    segment_name,
)


def make_record(ts=1, tid=None, values=(0, 1)):
    return CommitRecord(
        tid=tid or f"t{ts}",
        session="client-1",
        commit_ts=ts,
        events=(read_op("x", values[0]), write_op("x", values[1])),
        snapshot=ts - 1,
    )


class TestSegmentNames:
    def test_round_trip(self):
        assert segment_index(segment_name(7)) == 7
        assert segment_index(segment_name(12345678)) == 12345678

    def test_lexicographic_is_numeric(self):
        names = [segment_name(i) for i in (1, 2, 10, 99, 100)]
        assert names == sorted(names)

    @pytest.mark.parametrize("name", [
        "wal-0000001.segx", "foo.seg", "wal-abc.seg", "wal-.seg", "other",
    ])
    def test_foreign_names_rejected(self, name):
        assert segment_index(name) is None


class TestFrames:
    def test_empty_data_scans_clean(self):
        payloads, damage, offset = scan_frames(b"")
        assert payloads == [] and damage is None and offset == 0

    def test_multiple_frames_round_trip(self):
        data = b"".join(encode_frame(p) for p in (b"a", b"bb" * 100, b""))
        payloads, damage, _ = scan_frames(data)
        assert payloads == [b"a", b"bb" * 100, b""]
        assert damage is None

    def test_torn_header_detected(self):
        data = encode_frame(b"ok") + b"\x01\x02\x03"
        payloads, damage, offset = scan_frames(data)
        assert payloads == [b"ok"]
        assert "torn frame header" in damage
        assert offset == len(encode_frame(b"ok"))

    def test_truncated_payload_detected(self):
        data = encode_frame(b"hello world")[:-4]
        payloads, damage, offset = scan_frames(data)
        assert payloads == []
        assert "truncated frame payload" in damage
        assert offset == 0

    def test_crc_mismatch_detected(self):
        data = bytearray(encode_frame(b"hello"))
        data[-1] ^= 0xFF
        payloads, damage, _ = scan_frames(bytes(data))
        assert payloads == []
        assert "CRC mismatch" in damage

    def test_implausible_length_detected(self):
        data = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1, 0)
        payloads, damage, _ = scan_frames(data)
        assert payloads == []
        assert "implausible frame length" in damage

    def test_good_prefix_survives_bad_tail(self):
        good = encode_frame(b"one") + encode_frame(b"two")
        bad = bytearray(encode_frame(b"three"))
        bad[len(bad) // 2] ^= 0x55
        payloads, damage, offset = scan_frames(good + bytes(bad))
        assert payloads == [b"one", b"two"]
        assert damage is not None
        assert offset == len(good)


class TestCommitPayloads:
    def test_bit_identical_round_trip(self):
        record = make_record()
        back = commit_record_from_doc(
            payload_to_doc(commit_record_to_payload(record))
        )
        assert back == record
        assert back.events == record.events
        assert dict(back.writes) == dict(record.writes)
        assert (back.snapshot, back.extra) == (record.snapshot, record.extra)

    def test_tuple_values_survive(self):
        # The service's value tagger writes (logical, seq) tuples; JSON
        # alone would flatten them to lists.
        record = CommitRecord(
            tid="t1", session="s", commit_ts=1,
            events=(read_op("x", (5, 2)), write_op("x", (6, 3))),
            snapshot=0,
        )
        back = commit_record_from_doc(
            payload_to_doc(commit_record_to_payload(record))
        )
        assert back == record
        assert isinstance(back.writes["x"], tuple)
        assert isinstance(back.events[0].value, tuple)

    def test_nested_container_values_survive(self):
        value = {"a": [1, (2, 3)], "b": (4, [5])}
        record = CommitRecord(
            tid="t1", session="s", commit_ts=1,
            events=(write_op("x", value),),
            snapshot=0,
        )
        back = commit_record_from_doc(
            payload_to_doc(commit_record_to_payload(record))
        )
        assert back.writes["x"] == value
        assert isinstance(back.writes["x"]["b"], tuple)
        assert isinstance(back.writes["x"]["a"][1], tuple)

    def test_non_json_payload_rejected(self):
        with pytest.raises(FormatError):
            payload_to_doc(b"\xff\xfe not json")
        with pytest.raises(FormatError):
            payload_to_doc(b"[1, 2, 3]")  # no kind tag

    def test_wrong_kind_rejected(self):
        meta_doc = payload_to_doc(
            meta_to_payload({"engine": "SI", "init": {"x": 0}}, 1, 1)
        )
        with pytest.raises(FormatError):
            commit_record_from_doc(meta_doc)
        commit_doc = payload_to_doc(
            commit_record_to_payload(make_record())
        )
        with pytest.raises(FormatError):
            meta_from_doc(commit_doc)

    def test_malformed_commit_doc_rejected(self):
        doc = payload_to_doc(commit_record_to_payload(make_record()))
        del doc["events"]
        with pytest.raises(FormatError):
            commit_record_from_doc(doc)


class TestMetaPayloads:
    def test_round_trip(self):
        meta = meta_from_doc(payload_to_doc(meta_to_payload(
            {"engine": "PSI", "init": {"x": (0, 0), "y": 1},
             "init_tid": "t_zero", "model": "PSI", "note": "hi"},
            segment=3, first_ts=17,
        )))
        assert meta == LogMeta(
            engine="PSI", init={"x": (0, 0), "y": 1}, init_tid="t_zero",
            model="PSI", segment=3, first_ts=17,
        )
        assert meta.extra["note"] == "hi"
        assert isinstance(meta.init["x"], tuple)

    def test_defaults(self):
        meta = meta_from_doc(payload_to_doc(
            meta_to_payload({"init": {"x": 0}}, 1, 1)
        ))
        assert meta.engine is None
        assert meta.model is None
        assert meta.init_tid == "t_init"

    # sha256 of meta frames as ``json.dumps(doc, sort_keys=True)`` of
    # the whole document writes them; the per-field encoder must not
    # change a byte of any log.
    PINNED = [
        (
            {"engine": "SI", "init_tid": "t_init", "model": "SI",
             "init": {f"{kind}{n}": 100 for n in range(1000)
                      for kind in ("savings", "checking")}},
            1, 1, 34876,
            "7e8c6ecceff62bd3a5ee7425f14ec020e01b61eba14dbac352c6d6b30fd74fef",
        ),
        (
            {"engine": "PSI", "init_tid": "t0", "model": None,
             "init": {"x": (0, "a"), "y": [1, (2, 3)], "z": {"k": (1,)},
                      "\u00e9": "\u00fc", "n": None, "f": 1.5, "b": True},
             "note": "hi", "zeta": [1, 2], "aardvark": {"q": 1},
             "segment": 99},
            7, 123, 253,
            "76f09ae3fb9eb435851c4d08e551b62e809052e3833abae2112f1e8b80c17cd9",
        ),
    ]

    @pytest.mark.parametrize("meta, segment, first_ts, size, digest", PINNED)
    def test_meta_frame_bytes_are_pinned(self, meta, segment, first_ts,
                                         size, digest):
        encoder = MetaEncoder(meta)
        for payload in (encoder.payload(segment, first_ts),
                        meta_to_payload(meta, segment, first_ts)):
            assert len(payload) == size
            assert hashlib.sha256(payload).hexdigest() == digest

    def test_commit_frame_bytes_are_pinned(self):
        # A commit frame holds exactly the record's six fields; a field
        # added back (or a changed encoding) needs a new segment magic.
        record = CommitRecord(
            tid="t7", session="client-2", commit_ts=7,
            events=(read_op("x", (5, 2)), write_op("x", (6, 3)),
                    write_op("y", 1), write_op("x", 9)),
            snapshot=4, extra=frozenset({"t6", "t5"}),
        )
        frame = encode_frame(commit_record_to_payload(record))
        assert len(frame) == 198
        assert hashlib.sha256(frame).hexdigest() == (
            "5d679cdbecd5e66c0df45ef3f0fb48c34dacff764e619ac7252feeab7be2b091"
        )

    def test_decoded_init_is_read_only(self):
        meta = meta_from_doc(payload_to_doc(
            meta_to_payload({"init": {"x": 0}}, 1, 1)
        ))
        assert isinstance(meta.init, MappingProxyType)

    def test_missing_init_rejected(self):
        doc = payload_to_doc(meta_to_payload({"init": {"x": 0}}, 1, 1))
        del doc["init"]
        with pytest.raises(FormatError):
            meta_from_doc(doc)


class TestSnapshotDescriptor:
    """Commit frames carry a constant-size snapshot descriptor."""

    def test_si_frame_size_is_flat_in_history(self):
        engine = SIEngine({"x": 0})
        records = []
        for _ in range(2000):
            t = engine.begin("s")
            engine.write(t, "x", 1)
            records.append(engine.commit(t))

        def frame_bytes(record):
            return len(encode_frame(commit_record_to_payload(record)))

        assert abs(frame_bytes(records[1999]) - frame_bytes(records[9])) <= 16

    def test_psi_auto_deliver_records_have_no_extra(self):
        engine = PSIEngine({"x": 0, "y": 0}, auto_deliver=True)
        records = []
        for i in range(60):
            # A new session (and replica) joins every tenth commit.
            t = engine.begin(f"s{i // 10}")
            engine.read(t, "x")
            engine.write(t, "xy"[i % 2], i)
            records.append(engine.commit(t))
        assert all(r.extra == frozenset() for r in records)
        assert [r.snapshot for r in records] == list(range(60))

    def test_extra_round_trips(self):
        record = CommitRecord(
            tid="t5", session="s", commit_ts=5,
            events=(write_op("x", 1),),
            snapshot=2, extra=frozenset({"t4", "t3"}),
        )
        payload = commit_record_to_payload(record)
        assert b'"extra":["t3","t4"]' in payload
        assert commit_record_from_doc(payload_to_doc(payload)) == record

    @pytest.mark.parametrize("field,value", [
        ("snapshot", 1),
        ("snapshot", 7),
        ("snapshot", -1),
        ("snapshot", "0"),
        ("snapshot", 0.5),
        ("snapshot", True),
        ("snapshot", None),
        ("extra", ["t0", 3]),
        ("extra", "t0"),
        ("extra", None),
        ("extra", ["t1"]),
    ])
    def test_malformed_descriptor_rejected(self, field, value):
        doc = payload_to_doc(commit_record_to_payload(make_record(ts=1)))
        doc[field] = value
        with pytest.raises(FormatError):
            commit_record_from_doc(doc)

    @pytest.mark.parametrize("field", ["snapshot", "extra"])
    def test_missing_descriptor_rejected(self, field):
        doc = payload_to_doc(commit_record_to_payload(make_record(ts=1)))
        del doc[field]
        with pytest.raises(FormatError):
            commit_record_from_doc(doc)
