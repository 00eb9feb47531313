"""Frame codec tests: framing, CRC, and bit-identical payload round trips."""

import hashlib
import json
import math
import struct
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import read as read_op, write as write_op
from repro.io.json_format import FormatError
from repro.mvcc import PSIEngine, SIEngine
from repro.mvcc.engine import CommitRecord, store_reads
from repro.wal.format import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    MAX_VALUE_DEPTH,
    LogMeta,
    commit_record_from_payload,
    commit_record_to_payload,
    encode_frame,
    meta_from_doc,
    meta_to_payload,
    payload_to_doc,
    scan_frames,
    segment_index,
    segment_name,
    state_from_payload,
    state_to_payload,
)
from tests.wal.frames import forge_commit_payload, forge_state_payload


def make_record(ts=1, tid=None, values=(0, 1)):
    return CommitRecord(
        tid=tid or f"t{ts}",
        session="client-1",
        commit_ts=ts,
        events=(read_op("x", values[0]), write_op("x", values[1])),
        snapshot=ts - 1, sources=(0,),
    )


def round_trip(record):
    return commit_record_from_payload(commit_record_to_payload(record))


def canonical(value):
    """``value`` with every type spelled out and floats as their bits,
    so ``True`` differs from ``1``, ``b"a"`` from ``"a"``, ``-0.0``
    from ``0.0``, and a NaN equals only itself."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(canonical(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(
            (canonical(k), canonical(v)) for k, v in value.items()
        ))
    return (type(value).__name__, value)


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
        back = round_trip(record)
        assert back == record
        assert back.events == record.events
        assert dict(back.writes) == dict(record.writes)
        assert (back.snapshot, back.extra) == (record.snapshot, record.extra)

    def test_tuple_values_survive(self):
        # Values tagged as (logical, seq) tuples; a codec that flattened
        # them to lists would break them.
        record = CommitRecord(
            tid="t1", session="s", commit_ts=1,
            events=(read_op("x", (5, 2)), write_op("x", (6, 3))),
            snapshot=0, sources=(0,),
        )
        back = round_trip(record)
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
        back = round_trip(record)
        assert back.writes["x"] == value
        assert isinstance(back.writes["x"]["b"], tuple)
        assert isinstance(back.writes["x"]["a"][1], tuple)

    def test_dict_keys_and_bytes_keep_their_type(self):
        # JSON turned every dict key into a string and could not carry
        # bytes at all.
        value = {1: "a", (2, 3): 4, "k": b"\x00\xff", None: {True: 1.5}}
        record = CommitRecord(
            tid="t1", session="s", commit_ts=1,
            events=(write_op("x", value), write_op("y", b"raw")),
            snapshot=0,
        )
        back = round_trip(record)
        assert canonical(back.writes["x"]) == canonical(value)
        assert back.writes["y"] == b"raw"

    def test_non_json_payload_rejected(self):
        with pytest.raises(FormatError):
            payload_to_doc(b"\xff\xfe not json")
        with pytest.raises(FormatError):
            payload_to_doc(b"[1, 2, 3]")  # no kind tag

    def test_wrong_kind_rejected(self):
        meta_payload = meta_to_payload({"engine": "SI", "init": {"x": 0}},
                                        1, 1)
        with pytest.raises(FormatError, match="expected a commit frame"):
            commit_record_from_payload(meta_payload)
        with pytest.raises(FormatError, match="expected a commit frame"):
            commit_record_from_payload(state_to_payload({"x": 0}))
        with pytest.raises(FormatError):
            meta_from_doc(payload_to_doc(
                commit_record_to_payload(make_record())
            ))

    def test_malformed_commit_doc_rejected(self):
        # An op tag with no value after it.
        good = forge_commit_payload([1, 0, 0, 1], ["t1", "s", "x"], b"wi")
        assert commit_record_from_payload(good) == CommitRecord(
            "t1", "s", 1, (write_op("x", 1),), 0
        )
        with pytest.raises(FormatError):
            commit_record_from_payload(
                forge_commit_payload([1, 0, 0], ["t1", "s", "x"], b"w")
            )

    def test_forged_layout_reads_as_documented(self):
        record = CommitRecord(
            tid="t9", session="s\u00e9", commit_ts=9,
            events=(read_op("x", (1, -2)), write_op("y", [1.5, "z", None]),
                    write_op("x", {True: b"\x01"})),
            snapshot=4, extra=frozenset({"t6", "t5"}), sources=(3,),
        )
        payload = forge_commit_payload(
            [9, 4, 2, 2, 1, -2, 3, 1, 3],
            ["t9", "s\u00e9", "t5", "t6", "x", "y", "z", "x", "\x01"],
            b"rtii" b"wlfsN" b"wdTb",
            floats=[1.5],
        )
        assert commit_record_from_payload(payload) == record
        assert len(commit_record_to_payload(record)) < len(payload)


# Every tag of the value grammar, including the cases JSON got wrong or
# could not carry and the ones where character and byte lengths differ.
scalar_values = st.one_of(
    st.integers(),
    st.sampled_from([
        -(1 << 63), (1 << 63) - 1, -(1 << 63) - 1, 1 << 63, 1 << 200,
        -(1 << 200), 127, 128, -129, 32768, -32769, 1 << 31, -(1 << 31) - 1,
    ]),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.text(),
    st.sampled_from(["\u00e9\u00e9", "\U0001f600x", "\ud800", "a\udfffb",
                     "\ud83d\ude00", "nul\x00"]),
    st.binary(),
    st.none(),
)
hashable_values = st.recursive(
    scalar_values, lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
any_values = st.recursive(
    scalar_values,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashable_values, inner, max_size=3),
    ),
    max_leaves=20,
)
names = st.text(min_size=1, max_size=8) | st.sampled_from(
    ["\ud800x", "\U0001f600"]
)


class TestValueCodec:
    """The binary commit payload carries every value type bit-exactly
    and decodes damage only ever to :class:`FormatError`."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(any_values, min_size=1, max_size=4),
           obj=names, tid=names, session=names,
           extra=st.frozensets(names, max_size=3),
           commit_ts=st.integers(min_value=1, max_value=1 << 62))
    def test_values_round_trip_bit_exact(self, values, obj, tid, session,
                                         extra, commit_ts):
        extra = extra - {tid}
        record = CommitRecord(
            tid=tid, session=session, commit_ts=commit_ts,
            events=tuple(
                (read_op if i % 2 else write_op)(obj, value)
                for i, value in enumerate(values)
            ),
            snapshot=commit_ts - 1, extra=extra,
        )
        back = round_trip(record)
        assert (back.tid, back.session, back.commit_ts, back.snapshot,
                back.extra) == (tid, session, commit_ts, commit_ts - 1,
                                extra)
        assert [(op.kind, op.obj) for op in back.events] == [
            (op.kind, op.obj) for op in record.events
        ]
        assert [canonical(op.value) for op in back.events] == [
            canonical(value) for value in values
        ]

    @pytest.mark.parametrize("value", [
        0, 1, -1, 127, -128, 128, 32767, -32768, 32768, (1 << 31) - 1,
        -(1 << 31), 1 << 31, (1 << 63) - 1, -(1 << 63), 1 << 63,
        -(1 << 63) - 1, 10 ** 40, -(10 ** 40),
    ])
    def test_int_table_widths(self, value):
        # Each payload picks the narrowest int format that holds all of
        # its ints; values past int64 travel as big ints.
        record = CommitRecord("t1", "s", 1, (write_op("x", (value, 5)),), 0)
        back = round_trip(record)
        assert back.writes["x"] == (value, 5)
        assert type(back.writes["x"][0]) is int

    PAYLOADS = [
        make_record(),
        CommitRecord(
            tid="t\u00e97", session="\U0001f600", commit_ts=70000,
            events=(
                read_op("x", (1 << 40, -3)),
                write_op("y", {1: [1.5, None, True], (2, "k"): b"\xff"}),
                write_op("z", ["\ud800", 1 << 70, False, -0.0]),
            ),
            snapshot=69990, extra=frozenset({"t1", "t2"}),
            sources=(69989,),
        ),
    ]

    @pytest.mark.parametrize("record", PAYLOADS)
    def test_truncated_payload_is_format_error(self, record):
        payload = commit_record_to_payload(record)
        for end in range(len(payload)):
            try:
                commit_record_from_payload(payload[:end])
            except FormatError:
                pass

    @pytest.mark.parametrize("record", PAYLOADS)
    def test_flipped_byte_is_format_error_or_decodes(self, record):
        payload = commit_record_to_payload(record)
        for at in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(payload)
                damaged[at] ^= mask
                try:
                    commit_record_from_payload(bytes(damaged))
                except FormatError:
                    pass

    def test_nesting_bound(self):
        value = 0
        for _ in range(MAX_VALUE_DEPTH):
            value = [value]
        record = CommitRecord("t1", "s", 1, (write_op("x", value),), 0)
        assert round_trip(record) == record
        # One level deeper is refused when written, and is damage when
        # forged.
        deeper = CommitRecord("t1", "s", 1, (write_op("x", (value,)),), 0)
        with pytest.raises(ValueError, match="nests deeper"):
            commit_record_to_payload(deeper)
        depth = MAX_VALUE_DEPTH + 1
        forged = forge_commit_payload(
            [1, 0, 0] + [1] * depth + [0], ["t1", "s", "x"],
            b"w" + b"l" * depth + b"i",
        )
        with pytest.raises(FormatError, match="nests deeper"):
            commit_record_from_payload(forged)

    def test_deeply_nested_forged_frame_is_format_error(self):
        depth = 100_000
        forged = forge_commit_payload(
            [1, 0, 0] + [1] * depth + [0], ["t1", "s", "x"],
            b"w" + b"t" * depth + b"i",
        )
        with pytest.raises(FormatError):
            commit_record_from_payload(forged)

    @pytest.mark.parametrize("ints, strs, shape, reason", [
        ([1, 0, 0, 1], ["t1", "s", "x"], b"wq", "unknown value tag"),
        ([1, 0, 0, 1], ["t1", "s", "x"], b"xi", "unknown op tag"),
        ([1, 0, 0, 1, 2], ["t1", "s", "x"], b"wi", "unused"),
        ([1, 0, 0, 1], ["t1", "s", "x", "y"], b"wi", "unused"),
        ([1, 0, 0, 5, 1], ["t1", "s", "x"], b"wti", "container of 5"),
        ([1, 0, 0, -1], ["t1", "s", "x"], b"wt", "container of -1"),
        ([1, 0, 0, 3], ["t1", "s", "x", "\x01"], b"wI", "fits the int"),
        ([1, 0, 0], ["t1", "s", "x", "\u0100"], b"wb", "latin-1"),
    ])
    def test_malformed_tables_rejected(self, ints, strs, shape, reason):
        with pytest.raises(FormatError, match=reason):
            commit_record_from_payload(forge_commit_payload(ints, strs, shape))

    def test_bad_utf8_and_layout_rejected(self):
        payload = forge_commit_payload([1, 0, 0], ["t1", "s"], b"")
        with pytest.raises(FormatError):
            commit_record_from_payload(payload[:-1] + b"\xff")
        with pytest.raises(FormatError, match="layout"):
            commit_record_from_payload(payload[:1] + b"\x7f" + payload[2:])

    def test_unloggable_value_refused(self):
        record = CommitRecord("t1", "s", 1, (write_op("x", object()),), 0)
        with pytest.raises(TypeError, match="cannot log"):
            commit_record_to_payload(record)


class TestSources:
    """A read served from the store carries its version's commit_ts
    (0 for the initial version) at the end of the int table; a read of
    the transaction's own write carries none."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           ops=st.lists(st.tuples(st.booleans(), st.sampled_from("xyz"),
                                  st.integers(-5, 5)), max_size=8),
           commit_ts=st.integers(min_value=1, max_value=1 << 40))
    def test_sources_round_trip(self, data, ops, commit_ts):
        events = tuple(
            (read_op if is_read else write_op)(obj, value)
            for is_read, obj, value in ops
        )
        served = len(store_reads(events))
        sources = tuple(data.draw(st.lists(
            st.integers(0, commit_ts - 1), min_size=served,
            max_size=served,
        )))
        record = CommitRecord("t1", "s", commit_ts, events, commit_ts - 1,
                              sources=sources)
        back = round_trip(record)
        assert back == record
        assert back.sources == sources

    def test_reads_of_own_writes_have_no_source(self):
        record = CommitRecord(
            "t3", "s", 3,
            (read_op("x", 1), write_op("x", 2), read_op("x", 2),
             read_op("y", 0), read_op("y", 0)),
            2, sources=(1, 0, 0),
        )
        assert round_trip(record).sources == (1, 0, 0)

    @pytest.mark.parametrize("ints, shape, reason", [
        ([2, 1, 0, 5], b"ri", "missing"),           # a source missing
        ([2, 1, 0, 5, 1, 1], b"ri", "unused"),      # one too many
        ([2, 1, 0, 5, 5, 0], b"wiri", "unused"),    # own write: none
        ([2, 1, 0, 5, 2], b"ri", "outside"),        # >= its commit_ts
        ([2, 1, 0, 5, -1], b"ri", "outside"),       # negative
    ])
    def test_forged_sources_are_format_errors(self, ints, shape, reason):
        objs = ["x"] * (len(shape) // 2)
        payload = forge_commit_payload(ints, ["t2", "s", *objs], shape)
        with pytest.raises(FormatError, match=reason):
            commit_record_from_payload(payload)

    @pytest.mark.parametrize("sources", [(), (0, 0), (2,), (-1,)])
    def test_encoder_refuses_what_the_decoder_would(self, sources):
        record = CommitRecord("t2", "s", 2, (read_op("x", 5),), 1,
                              sources=sources)
        with pytest.raises(ValueError, match="sources"):
            commit_record_to_payload(record)


PINNED_COMMIT_SIZE = 84
PINNED_COMMIT_DIGEST = (
    "46021708d072afe0f54bd41826786c23ac53fb31bfeffe181df2ddc83ce09061"
)
"""The frame of ``TestMetaPayloads.test_commit_frame_bytes_are_pinned``'s
record: a changed commit encoding needs a new segment magic."""


class TestMetaPayloads:
    def test_round_trip(self):
        log = {"engine": "PSI", "init": {"x": (0, 0), "y": 1},
               "init_tid": "t_zero", "model": "PSI", "note": "hi"}
        doc = payload_to_doc(meta_to_payload(log, segment=3, first_ts=17))
        assert "init" not in doc  # the state frame carries it
        meta = meta_from_doc(doc)
        assert meta == LogMeta(
            engine="PSI", init={}, init_tid="t_zero", model="PSI",
            segment=3, first_ts=17,
        )
        assert "note" not in doc  # free-form keys are not written
        state = state_from_payload(state_to_payload(log["init"]))
        assert state == {"x": (0, 0), "y": 1}
        assert isinstance(state["x"], tuple)

    def test_defaults(self):
        meta = meta_from_doc(payload_to_doc(
            meta_to_payload({"init": {"x": 0}}, 1, 1)
        ))
        assert meta.engine is None
        assert meta.model is None
        assert meta.init_tid == "t_init"
        assert meta.init == {}  # no state frame decoded

    # sha256 of the meta and state frame payloads of a log's first
    # segment.  The meta frame is ``json.dumps(doc, sort_keys=True)``
    # of the engine, init tid, model, segment and first commit (no
    # ``init``, no other key); a changed encoding of either needs a new
    # segment magic.
    PINNED = [
        pytest.param(
            {"engine": "SI", "init_tid": "t_init", "model": "SI",
             "init": {f"{kind}{n}": 100 for n in range(1000)
                      for kind in ("savings", "checking")}},
            1, 1,
            87,
            "a85ff2b0093391d2f0f6389b054298ba1abeffa626ff364cbb3a4c20f1273ac3",
            24805,
            "259c4b29b7c9ede5ae720dd81b4eda335f9d4326b0b272b7fa59ee3dccf673d3",
            id="smallbank",
        ),
        pytest.param(
            {"engine": "PSI", "init_tid": "t0", "model": None,
             "init": {"x": (0, "a"), "y": [1, (2, 3)], "z": {"k": (1,)},
                      "\u00e9": "\u00fc", "n": None, "f": 1.5, "b": True},
             "note": "hi", "zeta": [1, 2], "aardvark": {"q": 1},
             "segment": 99},
            7, 123,
            86,
            "215b36383b13452e8dd3227b1b202c1be7379930a2b03cbca85899bdaab07dbc",
            81,
            "d5a02c42463abd3c2e66ec86b19c7ae6c8fb76056c1e423edd36f5dba31ca149",
            id="mixed",
        ),
    ]

    @pytest.mark.parametrize(
        "meta, segment, first_ts, meta_size, meta_digest, state_size, "
        "state_digest", PINNED,
    )
    def test_meta_frame_bytes_are_pinned(self, meta, segment, first_ts,
                                         meta_size, meta_digest, state_size,
                                         state_digest):
        for payload, size, digest in (
            (meta_to_payload(meta, segment, first_ts), meta_size,
             meta_digest),
            (state_to_payload(meta["init"]), state_size, state_digest),
        ):
            assert len(payload) == size
            assert hashlib.sha256(payload).hexdigest() == digest

    def test_commit_frame_bytes_are_pinned(self):
        # A commit frame holds exactly the record's seven fields; a
        # field added back (or a changed encoding) needs a new segment
        # magic.
        record = CommitRecord(
            tid="t7", session="client-2", commit_ts=7,
            events=(read_op("x", (5, 2)), write_op("x", (6, 3)),
                    write_op("y", 1), write_op("x", 9), read_op("x", 9),
                    read_op("y", 1), read_op("z", 0)),
            snapshot=4, extra=frozenset({"t6", "t5"}), sources=(3, 0),
        )
        frame = encode_frame(commit_record_to_payload(record))
        assert len(frame) == PINNED_COMMIT_SIZE
        assert hashlib.sha256(frame).hexdigest() == PINNED_COMMIT_DIGEST

    def test_decoded_init_is_read_only(self):
        for init in ({"x": 0}, {"x": (0, 1), "y": None}):
            assert isinstance(state_from_payload(state_to_payload(init)),
                              MappingProxyType)

    def test_deeply_nested_meta_frame_is_format_error(self):
        # The meta frame is JSON; a CRC-valid one nested past the
        # parser's recursion limit is damage, not a RecursionError.
        depth = 100_000
        payload = (b'{"kind":"meta","model":' + b"[" * depth
                   + b"]" * depth + b',"init_tid":"t","segment":1,'
                   b'"first_ts":1}')
        with pytest.raises(FormatError):
            meta_from_doc(payload_to_doc(payload))

    def test_missing_init_rejected(self):
        # The meta frame carries no initial state, and a payload that
        # is not a state frame is damage where one must be.
        meta_payload = meta_to_payload({"init": {"x": 0}}, 1, 1)
        assert "init" not in payload_to_doc(meta_payload)
        for payload in (b"", meta_payload,
                        commit_record_to_payload(make_record())):
            with pytest.raises(FormatError, match="malformed state frame"):
                state_from_payload(payload)


def state_items(state):
    """A state's items in order, each value spelled out by
    :func:`canonical`."""
    return [(name, canonical(value)) for name, value in state.items()]


state_names = st.text(max_size=8) | st.sampled_from(
    ["\0", "a\0b", "\ud800x", "\U0001f600", "kéy"]
)
int64s = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


class TestStatePayloads:
    """The state payload carries a log's initial values in order,
    bit-exactly, and decodes damage only ever to :class:`FormatError`."""

    @settings(max_examples=300, deadline=None)
    @given(init=st.dictionaries(state_names, any_values, max_size=8)
           | st.dictionaries(state_names, int64s, max_size=8))
    def test_round_trip_bit_exact(self, init):
        back = state_from_payload(state_to_payload(init))
        assert isinstance(back, MappingProxyType)
        assert state_items(back) == state_items(init)

    def test_an_int_map_is_one_int_column(self):
        # Names NUL-joined, then one int per value at the narrowest
        # width (here one byte), and no shape.
        init = {f"savings{n}": 100 for n in range(1000)}
        payload = state_to_payload(init)
        names = sum(len(name) + 1 for name in init) - 1
        assert len(payload) == 26 + names + len(init)
        assert state_from_payload(payload) == init

    @pytest.mark.parametrize("init", [
        {"x": {1: "a"}, "y": 0},
        {"t": True, "one": 1, "f": False, "zero": 0},
        {"z": -0.0, "p": 0.0, "n": math.nan, "i": math.inf},
        {"b": b"\x00\xff", "s": "\x00\xff"},
        {"big": 1 << 63, "small": -(1 << 63) - 1, "max": (1 << 63) - 1},
        {"t": (1, 2), "l": [1, 2], "nested": ([1], (2,), {3: (4,)})},
        {"été": "\U0001f600", "nul\0name": 1, "": None},
    ])
    def test_value_types_survive(self, init):
        assert state_items(state_from_payload(state_to_payload(init))) == (
            state_items(init)
        )

    def test_forged_layout_reads_as_documented(self):
        assert state_from_payload(
            forge_state_payload(["x", "yé"], [5, -7])
        ) == {"x": 5, "yé": -7}
        forged = forge_state_payload(["x", "y", "z"], [2, 1], strs=["a"],
                                     shape=b"tisFN")
        assert state_items(state_from_payload(forged)) == state_items(
            {"x": (1, "a"), "y": False, "z": None}
        )
        assert len(state_to_payload({"x": 5, "yé": -7})) < len(
            forge_state_payload(["x", "yé"], [5, -7])
        )

    @pytest.mark.parametrize("names, ints, shape, objects, reason", [
        (["x", "x"], [1, 2], b"", None, "given twice"),
        (["x", "y"], [1, 2], b"", 3, "2 names for 3 objects"),
        (["x", "y"], [1, 2, 3], b"", None, "int-only"),
        (["x", "y"], [1], b"", None, "int-only"),
        (["x"], [1], b"ii", None, "unused"),
        (["x", "y"], [1], b"i", None, "index out of range"),
        (["x"], [], b"q", None, "unknown value tag"),
        (["x"], [1 << 40], b"", 1 << 30, "counts exceed"),
    ])
    def test_malformed_tables_rejected(self, names, ints, shape, objects,
                                      reason):
        with pytest.raises(FormatError, match=reason):
            state_from_payload(forge_state_payload(
                names, ints, shape=shape, objects=objects
            ))

    def test_unknown_layout_rejected(self):
        payload = forge_state_payload(["x"], [1])
        for layout in (0x40, 0x80, 0x0C):
            with pytest.raises(FormatError, match="layout"):
                state_from_payload(payload[:1] + bytes([layout])
                                   + payload[2:])

    PAYLOADS = [
        {f"obj{n}": n * 1000 for n in range(20)},
        {"x": {1: "a", (2, "k"): b"\xff"}, "nul\0": [1.5, None, True],
         "é": (1 << 70, -3), "y": "\ud800"},
    ]

    @pytest.mark.parametrize("init", PAYLOADS)
    def test_truncated_payload_is_format_error(self, init):
        payload = state_to_payload(init)
        for end in range(len(payload)):
            with pytest.raises(FormatError):
                state_from_payload(payload[:end])

    @pytest.mark.parametrize("init", PAYLOADS)
    def test_flipped_byte_is_format_error_or_decodes(self, init):
        payload = state_to_payload(init)
        for at in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(payload)
                damaged[at] ^= mask
                try:
                    state_from_payload(bytes(damaged))
                except FormatError:
                    pass

    def test_unloggable_state_refused(self):
        with pytest.raises(TypeError):
            state_to_payload({1: 0})  # names are strings
        with pytest.raises(TypeError, match="cannot log"):
            state_to_payload({"x": object()})


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
        assert payload.endswith(b"t5st3t4x")  # sorted, after the session
        assert commit_record_from_payload(payload) == record

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
        # The writer refuses every malformed descriptor, so no frame it
        # writes is one recovery cannot read back.
        base = make_record(ts=1)
        descriptor = {"snapshot": base.snapshot, "extra": base.extra}
        descriptor[field] = (
            frozenset(value) if isinstance(value, list) else value
        )
        record = CommitRecord(base.tid, base.session, base.commit_ts,
                              base.events, sources=base.sources, **descriptor)
        with pytest.raises((TypeError, ValueError)):
            commit_record_to_payload(record)
        # The layout holds the frontier in the int table and extra tids
        # in the string table; a forged frame with a bad one is damage.
        if field == "snapshot" and type(value) is int:
            forged = forge_commit_payload([1, value, 0], ["t1", "s"], b"")
        elif field == "extra" and isinstance(value, list) and all(
            isinstance(tid, str) for tid in value
        ):
            forged = forge_commit_payload(
                [1, 0, len(value)], ["t1", "s", *value], b""
            )
        else:
            return  # not expressible in the binary layout
        with pytest.raises(FormatError):
            commit_record_from_payload(forged)

    @pytest.mark.parametrize("field", ["snapshot", "extra"])
    def test_missing_descriptor_rejected(self, field):
        # The int table stops before the frontier, or before the count
        # of extra tids.
        ints = [1] if field == "snapshot" else [1, 0]
        assert commit_record_from_payload(
            forge_commit_payload([1, 0, 0], ["t1", "s"], b"")
        ) == CommitRecord("t1", "s", 1, (), 0)
        with pytest.raises(FormatError):
            commit_record_from_payload(
                forge_commit_payload(ints, ["t1", "s"], b"")
            )
