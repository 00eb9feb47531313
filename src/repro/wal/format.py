"""Binary framing for the write-ahead commit log.

A log is a directory of *segments* (``wal-00000001.seg``,
``wal-00000002.seg``, ...).  Each segment is::

    SIWAL003                                  8-byte magic
    frame*                                    zero or more frames

and each frame is::

    <u32 payload-length> <u32 crc32(payload)> <payload bytes>

with little-endian header fields.  The first frame of every segment
carries a JSON **meta** payload describing the log (engine key, initial
object values, init tid, segment index, first expected commit sequence
number), so every segment is self-describing.  Every later frame is
one **commit** payload: a :class:`~repro.mvcc.engine.CommitRecord`
serialised with the type-preserving value codecs of
:mod:`repro.io.json_format` (tuples — the service's tagged values —
survive the round trip bit-identically).  A commit payload carries
exactly the record's fields: ``tid``, ``session``, ``commit_ts``, the
op list ``events`` (the record's writes are derived from it, so no
second copy can disagree), and the constant-size snapshot descriptor
as ``"snapshot"`` (the frontier) and ``"extra"`` (the tids visible
above it), never the set of every visible tid, so frames stay the
same size however long the log grows.

The magic names the format version.  Segments of an earlier version —
``SIWAL001`` (which listed every visible tid in each frame) and
``SIWAL002`` (which also stored a ``writes`` map and a ``start_ts``) —
are not read: the scanner reports such a segment as damage naming both
versions rather than misdecode it.  Frames are input from outside the
program, so :func:`commit_record_from_doc` validates the descriptor
too.

The framing is what makes recovery torn-tail tolerant: a crash mid
``write`` leaves a frame whose header promises more bytes than exist or
whose CRC does not match, and the scanner stops cleanly at the first
such frame instead of propagating garbage.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.events import Obj, Value
from ..io.json_format import (
    FormatError,
    op_from_wire,
    op_to_wire,
    value_from_wire,
    value_to_wire,
)
from ..mvcc.engine import CommitRecord

SEGMENT_MAGIC = b"SIWAL003"
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
    """The log description carried by every segment's first frame.

    Attributes:
        engine: engine key the log was produced under (``"SI"``,
            ``"SER"``, ``"PSI"``, ``"2PL"``, or ``None`` when unknown).
        init: initial object values (the recovered engine's seed), a
            read-only mapping that a recovered engine, its store and an
            audit monitor share without copying.
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
    extra: Mapping[str, Any] = field(default_factory=dict, compare=False)


_SEGMENT_FIELDS = ("segment", "first_ts")
"""The meta frame fields that differ from segment to segment."""

_CONTAINERS = (tuple, list, dict)
"""The value types :func:`value_to_wire` wraps; every other value is
its own wire form."""


class MetaEncoder:
    """Serialises the meta frames of one log.

    The log-level description — ``engine``, ``init``, ``init_tid``,
    ``model`` and any free-form keys — is the same in every segment, so
    each of its fields is serialised once, here; :meth:`payload` adds
    the per-segment fields and joins the pieces in sorted key order.
    The bytes are those of one ``json.dumps`` of the whole document
    with sorted keys, so a log's meta frames do not depend on how they
    were built.
    """

    def __init__(self, meta: Mapping[str, Any]):
        doc: Dict[str, Any] = {
            "kind": "meta",
            "engine": meta.get("engine"),
            "init_tid": meta.get("init_tid", "t_init"),
            "model": meta.get("model"),
            "init": {
                str(obj): (
                    value_to_wire(value)
                    if isinstance(value, _CONTAINERS) else value
                )
                for obj, value in (meta.get("init") or {}).items()
            },
        }
        for key, value in meta.items():
            if key not in doc and key not in _SEGMENT_FIELDS:
                doc[key] = value
        self._fields: Dict[str, bytes] = {
            key: _dump_field(key, value) for key, value in doc.items()
        }

    def payload(self, segment: int, first_ts: int) -> bytes:
        """The meta frame payload of segment ``segment``, whose first
        commit is ``first_ts``."""
        fields = dict(self._fields)
        fields["segment"] = _dump_field("segment", segment)
        fields["first_ts"] = _dump_field("first_ts", first_ts)
        return b"{" + b",".join(fields[key] for key in sorted(fields)) + b"}"


def meta_to_payload(
    meta: Mapping[str, Any], segment: int, first_ts: int
) -> bytes:
    """Serialise a segment meta frame.

    ``meta`` carries the log-level description (``engine``, ``init``,
    ``init_tid``, ``model``, plus free-form keys); the per-segment
    fields are supplied by the writer.  A writer of many segments
    keeps one :class:`MetaEncoder` instead.
    """
    return MetaEncoder(meta).payload(segment, first_ts)


def commit_record_to_payload(record: CommitRecord) -> bytes:
    """Serialise one commit record frame payload."""
    return _dump({
        "kind": "commit",
        "tid": record.tid,
        "session": record.session,
        "commit_ts": record.commit_ts,
        "events": [op_to_wire(op) for op in record.events],
        "snapshot": record.snapshot,
        "extra": sorted(record.extra),
    })


def _dump(doc: Any) -> bytes:
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _dump_field(key: str, value: Any) -> bytes:
    """One ``"key":value`` member of a document :func:`_dump` writes."""
    return _dump(key) + b":" + _dump(value)


def payload_to_doc(payload: bytes) -> Dict[str, Any]:
    """Parse a frame payload into its JSON document.

    Raises:
        FormatError: when the payload is not a JSON object with a
            ``kind`` field (scanners treat this as damage).
    """
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"undecodable frame payload: {exc}")
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("frame payload is not a tagged JSON object")
    return doc


def meta_from_doc(doc: Mapping[str, Any]) -> LogMeta:
    """Deserialise a meta frame document."""
    if doc.get("kind") != "meta":
        raise FormatError(f"expected a meta frame, got {doc.get('kind')!r}")
    try:
        init = doc["init"]
        if not isinstance(init, dict):
            raise TypeError(f"init is {type(init).__name__}, not an object")
        return LogMeta(
            engine=doc.get("engine"),
            init=MappingProxyType({
                obj: (
                    value_from_wire(value)
                    if type(value) is dict else value
                )
                for obj, value in init.items()
            }),
            init_tid=doc["init_tid"],
            model=doc.get("model"),
            segment=int(doc["segment"]),
            first_ts=int(doc["first_ts"]),
            extra={
                k: v
                for k, v in doc.items()
                if k not in (
                    "kind", "engine", "init", "init_tid", "model",
                    "segment", "first_ts",
                )
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed meta frame: {exc!r}")


def commit_record_from_doc(doc: Mapping[str, Any]) -> CommitRecord:
    """Deserialise a commit frame document, inverse of
    :func:`commit_record_to_payload` (bit-identical round trip).

    Raises:
        FormatError: when a field is missing or mistyped, the snapshot
            frontier is not an int in ``[0, commit_ts)``, or ``extra``
            is not a list of tid strings or names the record's own tid.
    """
    if doc.get("kind") != "commit":
        raise FormatError(
            f"expected a commit frame, got {doc.get('kind')!r}"
        )
    try:
        commit_ts = int(doc["commit_ts"])
        snapshot = doc["snapshot"]
        extra = doc["extra"]
        if type(snapshot) is not int or not 0 <= snapshot < commit_ts:
            raise FormatError(
                f"malformed commit frame: snapshot {snapshot!r} is not "
                f"an int in [0, {commit_ts})"
            )
        if not isinstance(extra, list) or not all(
            isinstance(tid, str) for tid in extra
        ):
            raise FormatError(
                f"malformed commit frame: extra {extra!r} is not a list "
                f"of tids"
            )
        if doc["tid"] in extra:
            raise FormatError(
                f"malformed commit frame: {doc['tid']!r} lists itself "
                f"in extra"
            )
        return CommitRecord(
            tid=doc["tid"],
            session=doc["session"],
            commit_ts=commit_ts,
            events=tuple(op_from_wire(op) for op in doc["events"]),
            snapshot=snapshot,
            extra=frozenset(extra),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed commit frame: {exc!r}")
