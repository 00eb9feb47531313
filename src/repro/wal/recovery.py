"""Crash recovery: scan a write-ahead log, replay it into a fresh engine.

The scanner walks segments in index order, decoding frames until the
first sign of damage — a torn frame header, a truncated payload, a CRC
mismatch, an undecodable document, or a commit-sequence gap (a deleted
or reordered segment).  Everything before the damage is the durable
**prefix**; everything after it is reported as dropped, never replayed,
and never raises: damage is data.

:func:`recover` feeds that prefix through
:meth:`~repro.mvcc.engine.BaseEngine.replay_commit`, which installs each
record without re-running validation (the log only ever contains
commits that already won their validation race).  The recovered engine
reproduces the original's committed state bit-identically — same
commit records, same history, same store contents — and can continue
serving new transactions.

Scanning is streaming: segments are read one at a time and records are
yielded as they decode, so auditing a multi-gigabyte log never
materialises the whole history (:mod:`repro.wal.audit` builds on this).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Tuple

from ..core.errors import StoreError
from ..io.json_format import FormatError
from ..mvcc import ENGINE_MODELS, build_engine
from ..mvcc.engine import BaseEngine, CommitRecord
from .format import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    SEGMENT_MAGIC,
    STATE_KIND,
    LogMeta,
    commit_record_from_payload,
    meta_from_doc,
    payload_to_doc,
    scan_frames,
    segment_index,
    segment_magic_damage,
    state_from_payload,
)


@dataclass(frozen=True)
class Damage:
    """One point at which scanning stopped.

    Attributes:
        segment: segment file name.
        offset: byte offset of the first bad byte within the segment
            (-1 when the whole segment is unusable).
        reason: human-readable description.
    """

    segment: str
    offset: int
    reason: str

    def __str__(self) -> str:
        where = f"@{self.offset}" if self.offset >= 0 else ""
        return f"{self.segment}{where}: {self.reason}"


class LogScan:
    """A streaming pass over the decodable prefix of a log directory.

    Iterate it to receive :class:`CommitRecord`s in commit order; after
    (or during) iteration the summary attributes describe what was seen.
    Each ``iter()`` call rescans from the start.

    Construction reads only the first segment's meta and state frames,
    so callers can configure themselves (seed an engine or a monitor)
    before streaming; iteration reuses what they decoded to when the
    first segment still holds the same frames, so a meta frame is
    decoded once per segment and the state frame once per scan.  A log
    holds one state frame, the second frame of its first segment; a
    state frame anywhere else is damage.

    Attributes:
        meta: the log description (from the first segment's meta and
            state frames; ``None`` when they do not decode, or the
            first segment has no state frame).
        damage: where scanning stopped, if anywhere.
        records_scanned: commit records yielded.
        segments_scanned: segments fully or partially read.
        segments_dropped: segments unreachable past the damage point.
        bytes_scanned: total bytes consumed.
        first_ts / last_ts: commit-sequence range recovered (0/0 when
            empty).
    """

    def __init__(self, directory: str):
        if not os.path.isdir(directory):
            raise StoreError(f"no such log directory: {directory!r}")
        self.directory = directory
        self.meta: Optional[LogMeta] = None
        self.damage: List[Damage] = []
        self.records_scanned = 0
        self.segments_scanned = 0
        self.segments_dropped = 0
        self.bytes_scanned = 0
        self.first_ts = 0
        self.last_ts = 0
        # The first segment's name, meta and state payloads, and the
        # meta they decode to.
        self._head: Optional[Tuple[str, List[bytes], LogMeta]] = None
        names = self._segments()
        if names:
            data = self._read_head(names)
            found = None if data is None else self._segment_head(
                names, 0, data
            )
            if found is not None:
                self.meta = found[0]
                self._head = (names[0], found[1], found[0])

    @property
    def truncated(self) -> bool:
        """Whether scanning stopped at damage."""
        return bool(self.damage)

    def _segments(self) -> List[str]:
        names = sorted(
            name for name in os.listdir(self.directory)
            if segment_index(name) is not None
        )
        return names

    def _read_head(self, names: List[str]) -> Optional[bytes]:
        """The magic and first two frames (meta and state) of segment
        ``names[0]`` — only as many bytes as their frame headers
        promise — or ``None`` (with the damage recorded) when the file
        cannot be read."""
        try:
            with open(os.path.join(self.directory, names[0]), "rb") as f:
                data = f.read(len(SEGMENT_MAGIC))
                for _ in range(2):
                    header = f.read(FRAME_HEADER.size)
                    data += header
                    if len(header) < FRAME_HEADER.size:
                        break
                    length, _ = FRAME_HEADER.unpack(header)
                    if length > MAX_FRAME_BYTES:
                        break
                    data += f.read(length)
        except OSError as exc:
            self._stop(names, 0, names[0], -1, f"unreadable segment: {exc}")
            return None
        return data

    def _segment_head(
        self, names: List[str], position: int, data: bytes
    ) -> Optional[
        Tuple[LogMeta, List[bytes], List[bytes], Optional[str], int]
    ]:
        """Check segment ``names[position]``'s magic and frames and
        decode its meta frame, and for the log's first segment its
        state frame.  Returns ``(meta, header, commits, frame_damage,
        damage_offset)``: the header payloads (meta, then state if
        present), the commit payloads after them, and the damage as
        :func:`scan_frames` reports it; or ``None`` with the damage
        recorded."""
        name = names[position]
        bad_magic = segment_magic_damage(data)
        if bad_magic is not None:
            self._stop(names, position, name, 0, bad_magic)
            return None
        payloads, frame_damage, damage_offset = scan_frames(
            data, len(SEGMENT_MAGIC)
        )
        if not payloads:
            self._stop(names, position, name,
                       damage_offset if frame_damage else len(data),
                       frame_damage or "segment has no meta frame")
            return None
        stated = len(payloads) > 1 and payloads[1][:1] == STATE_KIND
        # A state frame after the first segment's is damage: it is not
        # a commit frame.
        header = 2 if stated and position == 0 else 1
        if (
            self._head is not None
            and self._head[0] == name
            and self._head[1] == payloads[:2]
        ):
            return (self._head[2], payloads[:header], payloads[header:],
                    frame_damage, damage_offset)
        state_at = len(SEGMENT_MAGIC) + FRAME_HEADER.size + len(payloads[0])
        if position == 0 and not stated:
            torn = frame_damage is not None and len(payloads) == 1
            self._stop(names, position, name,
                       damage_offset if torn else state_at,
                       "first segment has no state frame"
                       + (f" ({frame_damage})" if torn else ""))
            return None
        try:
            meta = meta_from_doc(payload_to_doc(payloads[0]))
        except FormatError as exc:
            self._stop(names, position, name, len(SEGMENT_MAGIC),
                       f"bad meta frame: {exc}")
            return None
        if position == 0:
            # The log's one state frame: its initial state.
            try:
                meta = replace(meta, init=state_from_payload(payloads[1]))
            except FormatError as exc:
                self._stop(names, position, name, state_at,
                           f"bad state frame: {exc}")
                return None
        return (meta, payloads[:header], payloads[header:], frame_damage,
                damage_offset)

    def __iter__(self) -> Iterator[CommitRecord]:
        self.damage = []
        self.records_scanned = 0
        self.segments_scanned = 0
        self.segments_dropped = 0
        self.bytes_scanned = 0
        self.first_ts = 0
        self.last_ts = 0
        names = self._segments()
        expected_ts: Optional[int] = None
        for position, name in enumerate(names):
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except OSError as exc:
                self._stop(names, position, name, -1,
                           f"unreadable segment: {exc}")
                return
            self.segments_scanned += 1
            self.bytes_scanned += len(data)
            found = self._segment_head(names, position, data)
            if found is None:
                return
            meta, _, payloads, frame_damage, damage_offset = found
            if expected_ts is None:
                # The first segment fixes where the log starts.
                self.meta = meta
                expected_ts = meta.first_ts
            if meta.first_ts != expected_ts:
                self._stop(
                    names, position, name, len(SEGMENT_MAGIC),
                    f"segment expects commit #{meta.first_ts} but the "
                    f"log's next is #{expected_ts} (missing segment?)",
                )
                return
            for payload in payloads:
                try:
                    record = commit_record_from_payload(payload)
                except FormatError as exc:
                    self._stop(names, position, name, -1,
                               f"undecodable commit frame: {exc}")
                    return
                if record.commit_ts != expected_ts:
                    self._stop(
                        names, position, name, -1,
                        f"commit sequence gap: got #{record.commit_ts}, "
                        f"expected #{expected_ts}",
                    )
                    return
                if self.first_ts == 0:
                    self.first_ts = record.commit_ts
                self.last_ts = record.commit_ts
                expected_ts += 1
                self.records_scanned += 1
                yield record
            if frame_damage is not None:
                self._stop(names, position + 1, name, damage_offset,
                           frame_damage)
                return

    def _stop(
        self,
        names: List[str],
        drop_from: int,
        segment: str,
        offset: int,
        reason: str,
    ) -> None:
        """Record the damage point; everything from ``drop_from`` on is
        unreachable (a prefix-consistent recovery must not skip over a
        hole)."""
        self.damage.append(Damage(segment=segment, offset=offset,
                                  reason=reason))
        dropped = len(names) - drop_from
        # The damaged segment itself counts as dropped only when nothing
        # of it was consumed (drop_from points past it otherwise).
        self.segments_dropped = max(dropped, 0)


def scan(directory: str) -> LogScan:
    """A :class:`LogScan` over ``directory`` (meta read eagerly)."""
    return LogScan(directory)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


@dataclass
class RecoveryResult:
    """What :func:`recover` reproduced.

    Attributes:
        engine: the replayed engine (ready to serve new transactions).
        meta: the log description.
        records_recovered: commits replayed.
        damage: where scanning stopped (empty for a clean log).
        segments_scanned / segments_dropped / bytes_scanned: scan stats.
        first_ts / last_ts: recovered commit-sequence range.
        elapsed_seconds: wall-clock recovery time (scan + replay).
    """

    engine: BaseEngine
    meta: Optional[LogMeta]
    records_recovered: int = 0
    damage: List[Damage] = field(default_factory=list)
    segments_scanned: int = 0
    segments_dropped: int = 0
    bytes_scanned: int = 0
    first_ts: int = 0
    last_ts: int = 0
    elapsed_seconds: float = 0.0

    @property
    def truncated(self) -> bool:
        """Whether the log had a damaged / missing tail."""
        return bool(self.damage)

    def describe(self) -> str:
        """A short human-readable summary."""
        lines = [
            f"recovered {self.records_recovered} commit(s) "
            f"(#{self.first_ts}..#{self.last_ts}) from "
            f"{self.segments_scanned} segment(s), "
            f"{self.bytes_scanned} byte(s) "
            f"in {self.elapsed_seconds * 1000:.1f} ms"
        ]
        for d in self.damage:
            lines.append(f"stopped at damage: {d}")
        if self.segments_dropped:
            lines.append(
                f"{self.segments_dropped} segment(s) unreachable past "
                f"the damage were dropped"
            )
        return "\n".join(lines)


def recover(
    directory: str,
    engine: Optional[BaseEngine] = None,
    engine_key: Optional[str] = None,
) -> RecoveryResult:
    """Replay the decodable prefix of a log into a fresh engine.

    Args:
        directory: the log directory.
        engine: replay into this engine instead of building one (its
            initial state must match the log's; it must be fresh).
        engine_key: override the engine key recorded in the log meta.
            An unknown or missing key falls back to SI: replay bypasses
            validation, so any engine can host any log's history.

    Raises:
        StoreError: when no usable segment meta exists (nothing to
            seed an engine from) and no ``engine`` was supplied.
    """
    started = time.perf_counter()
    log_scan = scan(directory)
    if engine is None:
        if log_scan.meta is None:
            raise StoreError(
                f"cannot recover {directory!r}: no readable segment "
                f"meta" + (
                    f" ({log_scan.damage[0]})" if log_scan.damage else ""
                )
            )
        key = engine_key or log_scan.meta.engine
        engine, _ = build_engine(
            key if key in ENGINE_MODELS else "SI",
            log_scan.meta.init,
            init_tid=log_scan.meta.init_tid,
        )
    count = 0
    for record in log_scan:
        engine.replay_commit(record)
        count += 1
    return RecoveryResult(
        engine=engine,
        meta=log_scan.meta,
        records_recovered=count,
        damage=list(log_scan.damage),
        segments_scanned=log_scan.segments_scanned,
        segments_dropped=log_scan.segments_dropped,
        bytes_scanned=log_scan.bytes_scanned,
        first_ts=log_scan.first_ts,
        last_ts=log_scan.last_ts,
        elapsed_seconds=time.perf_counter() - started,
    )
