"""Binary framing for the write-ahead commit log.

A log is a directory of *segments* (``wal-00000001.seg``,
``wal-00000002.seg``, ...).  Each segment is::

    SIWAL006                                  8-byte magic
    frame*                                    zero or more frames

and each frame is::

    <u32 payload-length> <u32 crc32(payload)> <payload bytes>

with little-endian header fields.  The first frame of every segment
carries a JSON **meta** payload describing the log (engine key, init
tid, model, segment index, first expected commit sequence number).
The first segment then carries the log's one binary **state**
payload: the initial value of every object, the paper's
initialisation transaction.  Every later frame is one **commit**
payload: a :class:`~repro.mvcc.engine.CommitRecord` in a
``struct``-packed binary layout.  It carries exactly the record's fields: ``tid``,
``session``, ``commit_ts``, the op list ``events`` (the record's
writes are derived from it, so no second copy can disagree), the
constant-size snapshot descriptor ``snapshot`` (the frontier) and
``extra`` (the tids visible above it), so frames stay the same size
however long the log grows, and the ``sources`` of its reads.

A commit payload is a header and four tables (``docs/WAL.md`` has the
byte layout)::

    "C" <layout byte> <counts: ints, strings, floats, shape bytes>
    <one struct: the int table, the string lengths, the float table>
    <shape: one tag byte per op and per value, in pre-order>
    <text: every string, concatenated, UTF-8>

The int table starts with ``commit_ts``, ``snapshot`` and the number of
``extra`` tids, then holds every int value and container length, and
ends with the sources; the string table starts with the tid, the
session and the sorted ``extra`` tids, then holds every object name
and string value.  Values are
tagged, so a decoded value has its original type: int (``i``), int
beyond int64 (``I``), bool (``T``/``F``), float (``f``, bit-exact),
str (``s``), bytes (``b``), None (``N``), tuple (``t``), list (``l``)
and dict (``d``, keys keep their type).  Each table uses the narrowest
width that holds its entries, named by the layout byte.  Decoding is
one ``unpack_from``, one UTF-8 decode, and a walk of the shape that
takes a run of ints as one slice of the int table.

A state payload holds two columns (``docs/WAL.md`` has the byte
layout)::

    "S" <layout byte> <counts: objects, name bytes, ints, strings,
                       floats, shape bytes>
    <names: NUL-joined, UTF-8>
    <the value tables of a commit payload: one struct, shape, text>

The names decode with one ``split``.  When every value is an int64
int, as in a freshly loaded table, the value column is one ``struct``
slice with no shape and the map is ``dict(zip(names, values))``;
otherwise each value is tagged exactly as in a commit payload, so it
keeps its type (dict keys included).  A name containing ``"\0"``
switches the names to a length table.

The magic names the format version.  Segments of an earlier version —
``SIWAL001`` (which listed every visible tid in each frame),
``SIWAL002`` (which also stored a ``writes`` map and a ``start_ts``),
``SIWAL003`` (whose commit frames were JSON), ``SIWAL004`` (whose
meta frame repeated every initial value as JSON in every segment) and
``SIWAL005`` (whose reads had no sources) — are not read: the scanner
reports such a segment as damage naming both versions rather than
misdecode it.  Frames are input from outside the program, so
:func:`commit_record_from_payload` and :func:`state_from_payload`
raise nothing but :class:`FormatError`: they check truncation, unknown
tags, bad UTF-8, unused table entries, nesting deeper than
:data:`MAX_VALUE_DEPTH`, the descriptor, the sources, and (for a
state) duplicate names.  The encoders refuse what the decoders would
reject, so every frame the log writes reads back.

The framing is what makes recovery torn-tail tolerant: a crash mid
``write`` leaves a frame whose header promises more bytes than exist or
whose CRC does not match, and the scanner stops cleanly at the first
such frame instead of propagating garbage.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.events import Obj, Op, OpKind, Value
from ..io.json_format import FormatError
from ..mvcc.engine import CommitRecord

SEGMENT_MAGIC = b"SIWAL006"
"""Leading bytes of every segment file (8 bytes, version included)."""

FRAME_HEADER = struct.Struct("<II")
"""Frame header: payload length, then CRC32 of the payload."""

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Sanity bound on one frame — a length field beyond this is corruption,
not a gigantic record."""

SEGMENT_SUFFIX = ".seg"
SEGMENT_PREFIX = "wal-"


def segment_name(index: int) -> str:
    """The file name of segment ``index`` (1-based, zero-padded so
    lexicographic order is numeric order)."""
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def segment_index(name: str) -> Optional[int]:
    """Inverse of :func:`segment_name`; ``None`` for foreign files."""
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def segment_magic_damage(data: bytes) -> Optional[str]:
    """Why a segment's leading bytes are not :data:`SEGMENT_MAGIC`, or
    ``None`` when they are.  A segment of another format version is
    named as such, so an old log is never mistaken for a torn one."""
    head = data[:len(SEGMENT_MAGIC)]
    if head == SEGMENT_MAGIC:
        return None
    if (
        len(head) == len(SEGMENT_MAGIC)
        and head[:5] == SEGMENT_MAGIC[:5]
        and head[5:].isdigit()
    ):
        return (
            f"bad segment magic: format {head.decode()} "
            f"is not supported (this build reads {SEGMENT_MAGIC.decode()})"
        )
    return "bad segment magic"


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def encode_frame(payload: bytes) -> bytes:
    """One frame: header (length + CRC32) followed by the payload."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(
    data: bytes, offset: int = 0
) -> Tuple[List[bytes], Optional[str], int]:
    """Decode consecutive frames from ``data`` starting at ``offset``.

    Returns ``(payloads, damage, damage_offset)``.  ``damage`` is
    ``None`` when the data ends exactly on a frame boundary; otherwise
    it describes the first bad frame (torn header, truncated payload,
    CRC mismatch) and ``damage_offset`` is where it starts.  Decoding
    never raises — damage is data, not an error.
    """
    payloads: List[bytes] = []
    size = len(data)
    while offset < size:
        if size - offset < FRAME_HEADER.size:
            return payloads, (
                f"torn frame header ({size - offset} byte(s), "
                f"need {FRAME_HEADER.size})"
            ), offset
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return payloads, (
                f"implausible frame length {length} (corrupt header)"
            ), offset
        start = offset + FRAME_HEADER.size
        if size - start < length:
            return payloads, (
                f"truncated frame payload ({size - start} of "
                f"{length} byte(s))"
            ), offset
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return payloads, "frame CRC mismatch", offset
        payloads.append(payload)
        offset = start + length
    return payloads, None, offset


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LogMeta:
    """The log description: a segment's meta frame, plus the initial
    state from the log's state frame.

    Attributes:
        engine: engine key the log was produced under (``"SI"``,
            ``"SER"``, ``"PSI"``, ``"2PL"``, or ``None`` when unknown).
        init: initial object values (the recovered engine's seed), a
            read-only mapping that a recovered engine, its store and an
            audit monitor share without copying.  It comes from the
            state frame of the log's first segment; a meta decoded
            without one has an empty ``init``.
        init_tid: tid of the implied initialisation transaction.
        model: consistency model the producer certified against, if any.
        segment: the segment's index.
        first_ts: the first commit sequence number expected in this
            segment (recovery uses it to detect a missing predecessor).
    """

    engine: Optional[str]
    init: Mapping[Obj, Value]
    init_tid: str
    model: Optional[str]
    segment: int
    first_ts: int


_NO_STATE: Mapping[Obj, Value] = MappingProxyType({})


def meta_to_payload(
    meta: Mapping[str, Any], segment: int, first_ts: int
) -> bytes:
    """Serialise a segment meta frame: one JSON object with sorted keys.

    ``meta`` carries the log-level description (``engine``,
    ``init_tid``, ``model``); the per-segment fields are supplied by
    the writer.  Its ``init`` is not part of the meta frame:
    :func:`state_to_payload` writes it once per log.  Any other key is
    not written.
    """
    doc = {
        "kind": "meta",
        "engine": meta.get("engine"),
        "init_tid": meta.get("init_tid", "t_init"),
        "model": meta.get("model"),
        "segment": segment,
        "first_ts": first_ts,
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def payload_to_doc(payload: bytes) -> Dict[str, Any]:
    """Parse a meta frame payload into its JSON document.

    Raises:
        FormatError: when the payload is not a JSON object with a
            ``kind`` field (scanners treat this as damage).
    """
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"undecodable frame payload: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("frame payload is not a tagged JSON object")
    return doc


def meta_from_doc(doc: Mapping[str, Any]) -> LogMeta:
    """Deserialise a meta frame document (with an empty ``init``: the
    initial state is the state frame's, :func:`state_from_payload`)."""
    if doc.get("kind") != "meta":
        raise FormatError(f"expected a meta frame, got {doc.get('kind')!r}")
    try:
        return LogMeta(
            engine=doc.get("engine"),
            init=_NO_STATE,
            init_tid=doc["init_tid"],
            model=doc.get("model"),
            segment=int(doc["segment"]),
            first_ts=int(doc["first_ts"]),
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"malformed meta frame: {exc!r}")


# ----------------------------------------------------------------------
# Commit payloads (binary)
# ----------------------------------------------------------------------

COMMIT_KIND = b"C"
"""Leading byte of a commit payload (a meta payload starts with ``{``,
a state payload with :data:`STATE_KIND`)."""

MAX_VALUE_DEPTH = 64
"""Deepest container nesting a committed value may have.  The encoder
refuses a deeper value (which poisons the log) and the decoder reports
one as damage, so decoding is bounded and every frame the writer
accepts reads back."""

# Shape tags: one byte per op and per value, in pre-order.
_READ = ord("r")
_WRITE = ord("w")
_INT = ord("i")
_BIGINT = ord("I")
_FLOAT = ord("f")
_TRUE = ord("T")
_FALSE = ord("F")
_NONE = ord("N")
_STR = ord("s")
_BYTES = ord("b")
_TUPLE = ord("t")
_LIST = ord("l")
_DICT = ord("d")
_READ_KIND = OpKind.READ
_OP_KINDS = {_READ: _READ_KIND, _WRITE: OpKind.WRITE}

_INT_MIN, _INT_MAX = -(1 << 63), (1 << 63) - 1

# The layout byte: bits 0-1 pick the int table's entry format, bits 2-3
# the string-length table's, bit 4 the header's count format.  Each is
# the narrowest that holds every entry, chosen by bit length.
_INT_CODES = "bhiq"
_INT_CODE_BY_BITS = [0] * 8 + [1] * 8 + [2] * 16 + [3] * 32
_LEN_CODES = "BHI"
_LEN_CODE_BY_BITS = [0] * 9 + [1] * 8 + [2] * 16
_HEADERS = (struct.Struct("<cBHHHH"), struct.Struct("<cBIIII"))
_HEADER_SIZES = tuple(head.size for head in _HEADERS)
_LAYOUTS = {
    i | (n << 2) | (c << 4): (_INT_CODES[i], _LEN_CODES[n])
    for i in range(len(_INT_CODES))
    for n in range(len(_LEN_CODES))
    for c in range(len(_HEADERS))
}

_Plan = Tuple[struct.Struct, int, int, int, int, int, int]
_PLANS: Dict[bytes, _Plan] = {}
_MAX_PLANS = 4096


def _plan(header: bytes) -> _Plan:
    """Check a commit payload header and compile the struct of its
    scalar tables.  Returns ``(scalars, n_ints, n_strs, n_floats,
    table_at, shape_at, text_at)``; cached per distinct header."""
    plan = _PLANS.get(header)
    if plan is not None:
        return plan
    if header[:1] != COMMIT_KIND:
        raise FormatError(
            f"expected a commit frame, got kind byte {header[:1]!r}"
        )
    layout = header[1]
    if layout not in _LAYOUTS:
        raise FormatError(f"malformed commit frame: layout byte {layout}")
    int_code, len_code = _LAYOUTS[layout]
    head = _HEADERS[layout >> 4]
    _, _, n_ints, n_strs, n_floats, n_shape = head.unpack(header)
    scalars = struct.Struct(
        f"<{n_ints}{int_code}{n_strs}{len_code}{n_floats}d"
    )
    shape_at = head.size + scalars.size
    plan = (scalars, n_ints, n_strs, n_floats, head.size, shape_at,
            shape_at + n_shape)
    if len(_PLANS) >= _MAX_PLANS:
        _PLANS.clear()
    _PLANS[header] = plan
    return plan


def commit_record_to_payload(record: CommitRecord) -> bytes:
    """Serialise one commit record frame payload.

    Raises:
        ValueError / TypeError: when the record is one
            :func:`commit_record_from_payload` would refuse (a snapshot
            frontier outside ``[0, commit_ts)``, an ``extra`` that is
            not a frozenset of other tids, sources that are not one int
            in ``[0, commit_ts)`` per read served from the store), or a
            value nests deeper than :data:`MAX_VALUE_DEPTH` or is of a
            type the codec does not carry.  The log poisons itself on
            any of them, so every frame it writes reads back.
    """
    snapshot = record.snapshot
    if type(snapshot) is not int or not 0 <= snapshot < record.commit_ts:
        raise ValueError(
            f"snapshot {snapshot!r} is not an int in "
            f"[0, {record.commit_ts!r})"
        )
    if not isinstance(record.extra, frozenset) or record.tid in record.extra:
        raise ValueError(
            f"extra {record.extra!r} is not a frozenset of other tids"
        )
    extra = sorted(record.extra)
    ints = [record.commit_ts, snapshot, len(extra)]
    strs = [record.tid, record.session, *extra]
    floats: List[float] = []
    shape = bytearray()
    written = set()  # store_reads' rule, inlined for speed
    served = 0
    for op in record.events:
        obj = op.obj
        if op.kind is _READ_KIND:
            shape.append(_READ)
            served += obj not in written
        else:
            shape.append(_WRITE)
            written.add(obj)
        strs.append(obj)
        _put_value(op.value, shape, ints, strs, floats, 0)
    sources = record.sources
    commit_ts = record.commit_ts
    if len(sources) != served or not all(
        0 <= source < commit_ts for source in sources
    ):
        raise ValueError(
            f"sources {sources!r} are not one int in [0, {commit_ts}) "
            f"for each of the {served} read(s) served from the store"
        )
    ints.extend(sources)
    lengths = [len(s) for s in strs]
    counts = (len(ints), len(strs), len(floats), len(shape))
    wide = max(counts) > 0xFFFF
    layout = (
        _INT_CODE_BY_BITS[max(max(ints), ~min(ints)).bit_length()]
        | _LEN_CODE_BY_BITS[max(lengths).bit_length()] << 2
        | wide << 4
    )
    header = _HEADERS[wide].pack(COMMIT_KIND, layout, *counts)
    return b"".join((
        header,
        _plan(header)[0].pack(*ints, *lengths, *floats),
        shape,
        "".join(strs).encode("utf-8", "surrogatepass"),
    ))


def _put_value(
    value: Any,
    shape: bytearray,
    ints: List[int],
    strs: List[str],
    floats: List[float],
    depth: int,
) -> None:
    """Append ``value``'s tags to ``shape`` and its scalars to the
    tables, in pre-order."""
    if type(value) is int and _INT_MIN <= value <= _INT_MAX:
        shape.append(_INT)
        ints.append(value)
    elif isinstance(value, str):
        shape.append(_STR)
        strs.append(value)
    elif isinstance(value, (tuple, list, dict)):
        if depth >= MAX_VALUE_DEPTH:
            raise ValueError(
                f"value nests deeper than {MAX_VALUE_DEPTH} containers"
            )
        ints.append(len(value))
        if isinstance(value, dict):
            shape.append(_DICT)
            for key, item in value.items():
                _put_value(key, shape, ints, strs, floats, depth + 1)
                _put_value(item, shape, ints, strs, floats, depth + 1)
            return
        shape.append(_TUPLE if isinstance(value, tuple) else _LIST)
        for item in value:
            if type(item) is int and _INT_MIN <= item <= _INT_MAX:
                shape.append(_INT)
                ints.append(item)
            else:
                _put_value(item, shape, ints, strs, floats, depth + 1)
    elif isinstance(value, bool):
        shape.append(_TRUE if value else _FALSE)
    elif isinstance(value, int):
        if _INT_MIN <= value <= _INT_MAX:
            shape.append(_INT)
            ints.append(int(value))
        else:
            # Two's complement, little-endian, one char per byte.
            shape.append(_BIGINT)
            size = (value.bit_length() + 8) // 8
            strs.append(
                value.to_bytes(size, "little", signed=True).decode("latin-1")
            )
    elif isinstance(value, float):
        shape.append(_FLOAT)
        floats.append(value)
    elif isinstance(value, bytes):
        shape.append(_BYTES)
        strs.append(value.decode("latin-1"))
    elif value is None:
        shape.append(_NONE)
    else:
        raise TypeError(
            f"cannot log a value of type {type(value).__name__}"
        )


def commit_record_from_payload(payload: bytes) -> CommitRecord:
    """Deserialise a commit frame payload, inverse of
    :func:`commit_record_to_payload` (bit-identical round trip).

    Raises:
        FormatError: on anything but a well-formed payload: a wrong
            kind byte, unknown layout or tag, truncated or unused table
            entries, bad UTF-8, a value nested deeper than
            :data:`MAX_VALUE_DEPTH`, a snapshot frontier outside
            ``[0, commit_ts)``, an ``extra`` naming the record's own
            tid, or sources that are not one int in ``[0, commit_ts)``
            per read served from the store.  Nothing else is raised.
    """
    try:
        return _decode_commit(payload)
    except FormatError:
        raise
    except (IndexError, TypeError, ValueError, struct.error) as exc:
        raise FormatError(f"malformed commit frame: {exc!r}") from None


def _decode_commit(payload: bytes) -> CommitRecord:
    scalars, n_ints, n_strs, n_floats, table_at, shape_at, text_at = _plan(
        payload[:_HEADER_SIZES[payload[1] >> 4 & 1]]
    )
    # One table of scalars: ints, then string lengths, then floats.
    table = scalars.unpack_from(payload, table_at)
    shape = payload[shape_at:text_at]
    if len(shape) != text_at - shape_at:
        raise FormatError("malformed commit frame: truncated shape")
    text = payload[text_at:].decode("utf-8", "surrogatepass")
    strs = _cut(text, table[n_ints:n_ints + n_strs])
    commit_ts, snapshot, n_extra = table[:3]
    if not 0 <= snapshot < commit_ts:
        raise FormatError(
            f"malformed commit frame: snapshot {snapshot!r} is not an "
            f"int in [0, {commit_ts})"
        )
    if not 0 <= n_extra <= n_strs - 2 or n_ints < 3:
        raise FormatError(f"malformed commit frame: {n_extra} extra tids")
    tid, session = strs[0], strs[1]
    extra = frozenset(strs[2:2 + n_extra])
    if tid in extra:
        raise FormatError(
            f"malformed commit frame: {tid!r} lists itself in extra"
        )
    # Cursors into the table's ints and the strings, advanced in shape
    # order; an entry read past a table's end shows in the final check.
    i, s = 3, 2 + n_extra
    cursor = [i, s, n_ints + n_strs]
    events = []
    written = set()  # store_reads' rule, inlined for speed
    served = 0
    pos = 0
    end = len(shape)
    while pos < end:
        kind = _OP_KINDS.get(shape[pos])
        if kind is None:
            raise FormatError(
                f"malformed commit frame: unknown op tag {shape[pos]}"
            )
        obj = strs[s]
        s += 1
        if kind is _READ_KIND:
            served += obj not in written
        else:
            written.add(obj)
        if shape[pos + 1] == _INT:
            events.append(Op(kind, obj, table[i]))
            i += 1
            pos += 2
            continue
        cursor[0], cursor[1] = i, s
        value, pos = _read_value(shape, pos + 1, table, strs, cursor, 0)
        i, s = cursor[0], cursor[1]
        events.append(Op(kind, obj, value))
    # The sources are the rest of the int table.
    if (s, cursor[2], i + served) != (n_strs, len(table), n_ints):
        raise FormatError(
            "malformed commit frame: unused or missing table entries"
        )
    sources = table[i:n_ints]
    for source in sources:
        if not 0 <= source < commit_ts:
            raise FormatError(
                f"malformed commit frame: source {source} outside "
                f"[0, {commit_ts})"
            )
    return CommitRecord(tid, session, commit_ts, tuple(events), snapshot,
                        extra, sources)


def _read_value(
    shape: bytes,
    pos: int,
    table: Tuple[Any, ...],
    strs: List[str],
    cursor: List[int],
    depth: int,
) -> Tuple[Any, int]:
    """The value whose tags start at ``shape[pos]``, and the position
    after its last tag.  ``cursor`` holds the next int, string and
    float to read (indexes into ``table``, ``strs`` and ``table``) and
    is advanced past the value's entries."""
    tag = shape[pos]
    pos += 1
    if tag == _INT:
        cursor[0] += 1
        return table[cursor[0] - 1], pos
    if tag == _STR:
        cursor[1] += 1
        return strs[cursor[1] - 1], pos
    if tag == _TUPLE or tag == _LIST or tag == _DICT:
        if depth >= MAX_VALUE_DEPTH:
            raise FormatError(
                f"malformed frame: value nests deeper than "
                f"{MAX_VALUE_DEPTH} containers"
            )
        size = table[cursor[0]]
        cursor[0] += 1
        # Every item takes at least one tag byte.
        if not 0 <= size <= len(shape) - pos:
            raise FormatError(
                f"malformed frame: container of {size} items"
            )
        if tag == _DICT:
            items: Any = {}
            for _ in range(size):
                key, pos = _read_value(
                    shape, pos, table, strs, cursor, depth + 1
                )
                items[key], pos = _read_value(
                    shape, pos, table, strs, cursor, depth + 1
                )
            return items, pos
        if shape.count(_INT, pos, pos + size) == size:
            # A run of ints is one slice of the table.
            items = table[cursor[0]:cursor[0] + size]
            cursor[0] += size
            pos += size
        else:
            items = []
            for _ in range(size):
                item, pos = _read_value(
                    shape, pos, table, strs, cursor, depth + 1
                )
                items.append(item)
        return (tuple(items) if tag == _TUPLE else list(items)), pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _NONE:
        return None, pos
    if tag == _FLOAT:
        cursor[2] += 1
        return table[cursor[2] - 1], pos
    if tag == _BYTES:
        cursor[1] += 1
        return strs[cursor[1] - 1].encode("latin-1"), pos
    if tag == _BIGINT:
        cursor[1] += 1
        big = int.from_bytes(
            strs[cursor[1] - 1].encode("latin-1"), "little", signed=True
        )
        if _INT_MIN <= big <= _INT_MAX:
            raise FormatError(
                f"malformed frame: big int {big} fits the int table"
            )
        return big, pos
    raise FormatError(f"malformed frame: unknown value tag {tag}")


def _cut(text: str, lengths: Tuple[int, ...]) -> List[str]:
    """``text`` cut into consecutive strings of ``lengths`` characters,
    which must cover it exactly."""
    strs = []
    at = 0
    for size in lengths:
        strs.append(text[at:at + size])
        at += size
    if at != len(text):
        raise FormatError(
            f"malformed frame: string table holds {at} characters, the "
            f"text {len(text)}"
        )
    return strs


# ----------------------------------------------------------------------
# State payloads (binary)
# ----------------------------------------------------------------------

STATE_KIND = b"S"
"""Leading byte of a state payload: the log's initial state, written
once per log, right after the meta frame of its first segment."""

_STATE_HEADER = struct.Struct("<cB6I")
"""Kind, layout, then the counts: objects, name bytes, ints, string
lengths, floats, shape bytes."""

# State layout bits beside a commit layout's int and length widths
# (bits 0-3).
_NAME_LENGTHS = 1 << 4  # names are cut by a length table, not by NULs
_ALL_INTS = 1 << 5      # every value is an int64 int: no shape


def state_to_payload(init: Mapping[Obj, Value]) -> bytes:
    """Serialise a log's initial state, every object's name and initial
    value, in ``init``'s order.

    Raises:
        TypeError: an object name is not a str, or a value is of a
            type the codec does not carry.
        ValueError: a value nests deeper than :data:`MAX_VALUE_DEPTH`,
            or the payload would exceed :data:`MAX_FRAME_BYTES` (which
            the scanner would read as a corrupt frame).
    """
    names = list(init)
    values = list(init.values())
    joined = "\0".join(names)
    strs: List[str] = []
    floats: List[float] = []
    shape = bytearray()
    if all(type(value) is int for value in values) and (
        not values or _INT_MIN <= min(values) and max(values) <= _INT_MAX
    ):
        ints = values
        layout = _ALL_INTS
    else:
        ints = []
        for value in values:
            _put_value(value, shape, ints, strs, floats, 0)
        layout = 0
    lengths = [len(s) for s in strs]
    if joined.count("\0") != max(len(names) - 1, 0):
        # A name holds a NUL, so NULs cannot separate the names.
        layout |= _NAME_LENGTHS
        lengths[:0] = [len(name) for name in names]
        joined = "".join(names)
    if ints:
        layout |= _INT_CODE_BY_BITS[max(max(ints), ~min(ints)).bit_length()]
    if lengths:
        layout |= _LEN_CODE_BY_BITS[max(lengths).bit_length()] << 2
    int_code, len_code = _LAYOUTS[layout & 0xF]
    name_bytes = joined.encode("utf-8", "surrogatepass")
    payload = b"".join((
        _STATE_HEADER.pack(STATE_KIND, layout, len(names), len(name_bytes),
                           len(ints), len(lengths), len(floats), len(shape)),
        name_bytes,
        struct.pack(f"<{len(ints)}{int_code}{len(lengths)}{len_code}"
                    f"{len(floats)}d", *ints, *lengths, *floats),
        shape,
        "".join(strs).encode("utf-8", "surrogatepass"),
    ))
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"initial state of {len(names)} objects takes {len(payload)} "
            f"bytes, over the {MAX_FRAME_BYTES}-byte frame bound"
        )
    return payload


def state_from_payload(payload: bytes) -> Mapping[Obj, Value]:
    """Deserialise a state payload into a read-only map, inverse of
    :func:`state_to_payload` (bit-identical round trip, in order).

    Raises:
        FormatError: on anything but a well-formed payload: a wrong
            kind byte, unknown layout or tag, truncated or unused
            entries, bad UTF-8, a name count that does not match the
            names, or a name given twice.  Nothing else is raised.
    """
    try:
        return _decode_state(payload)
    except FormatError:
        raise
    except (IndexError, KeyError, TypeError, ValueError,
            struct.error) as exc:
        raise FormatError(f"malformed state frame: {exc!r}") from None


def _decode_state(payload: bytes) -> Mapping[Obj, Value]:
    if payload[:1] != STATE_KIND:
        raise FormatError(
            f"malformed state frame: kind byte {payload[:1]!r}, not "
            f"{STATE_KIND!r}"
        )
    (_, layout, n_objects, n_name_bytes, n_ints, n_strs, n_floats,
     n_shape) = _STATE_HEADER.unpack_from(payload)
    if layout >> 6 or layout & 0xF not in _LAYOUTS:
        raise FormatError(f"malformed state frame: layout byte {layout}")
    # Every entry takes at least one byte, and so does every object:
    # counts beyond the payload are truncation, not a huge table.
    if max(n_objects, n_name_bytes + n_ints + n_strs + n_floats
           + n_shape) > len(payload):
        raise FormatError("malformed state frame: counts exceed the payload")
    int_code, len_code = _LAYOUTS[layout & 0xF]
    names_at = _STATE_HEADER.size
    table_at = names_at + n_name_bytes
    names_text = payload[names_at:table_at].decode("utf-8", "surrogatepass")
    scalars = struct.Struct(
        f"<{n_ints}{int_code}{n_strs}{len_code}{n_floats}d"
    )
    table = scalars.unpack_from(payload, table_at)
    shape_at = table_at + scalars.size
    text_at = shape_at + n_shape
    if text_at > len(payload):
        raise FormatError("malformed state frame: truncated shape")
    lengths = table[n_ints:n_ints + n_strs]
    if layout & _NAME_LENGTHS:
        names = _cut(names_text, lengths[:n_objects])
        lengths = lengths[n_objects:]
    else:
        names = names_text.split("\0") if n_objects else []
    if len(names) != n_objects:
        raise FormatError(
            f"malformed state frame: {len(names)} names for {n_objects} "
            f"objects"
        )
    strs = _cut(payload[text_at:].decode("utf-8", "surrogatepass"),
                lengths)
    if layout & _ALL_INTS:
        if (n_ints, len(strs), n_floats, n_shape) != (n_objects, 0, 0, 0):
            raise FormatError(
                "malformed state frame: an int-only state holds other "
                "entries"
            )
        values: Any = table[:n_ints]
    else:
        shape = payload[shape_at:text_at]
        cursor = [0, 0, n_ints + n_strs]
        values = []
        pos = 0
        for _ in range(n_objects):
            value, pos = _read_value(shape, pos, table, strs, cursor, 0)
            values.append(value)
        if (pos, cursor[0], cursor[1], cursor[2]) != (
            n_shape, n_ints, len(strs), len(table)
        ):
            raise FormatError("malformed state frame: unused table entries")
    state = dict(zip(names, values))
    if len(state) != n_objects:
        raise FormatError(
            f"malformed state frame: {n_objects - len(state)} object "
            f"name(s) given twice"
        )
    return MappingProxyType(state)

