"""The durable, segmented, group-commit write-ahead log.

:class:`WriteAheadLog` turns the in-memory commit stream of the engines
into a crash-survivable artifact: every
:class:`~repro.mvcc.engine.CommitRecord` is appended as a
CRC32-checksummed frame (:mod:`repro.wal.format`), in **exact commit
order**, to an append-only segment file that rotates at a size bound.

Ordering.  The log has no sequencer of its own: the caller's commit
mutex is it.  A committer calls :meth:`~WriteAheadLog.write` while it
still holds the mutex under which its commit timestamp was allocated,
so frames reach the segment in commit order, and a frame whose commit
timestamp is not the next one expected is refused.  The on-disk log is
therefore always a *prefix* of the true commit order: recovery after a
crash at any point yields a prefix-consistent history.

Group commit.  After releasing the mutex the committer calls
:meth:`~WriteAheadLog.sync` with its commit timestamp.  A committer
whose frame is not yet durable takes the sync lock, flushes and syncs
everything written so far, and publishes the new :attr:`durable_ts`.
While it syncs, other committers write their frames under the mutex
and queue on the sync lock; the first of them to get it syncs all of
those frames at once, and the rest find theirs already durable.  So N
concurrent committers share one ``fsync`` without any timer:

* ``fsync_policy="always"`` — one ``fsync`` per record, deliberately
  unbatched: :meth:`~WriteAheadLog.write` syncs each frame right after
  writing it, still under the caller's mutex, so every sync covers
  exactly one new record and ``fsyncs == appends``.  This is the
  classic durable-commit cost every commit pays individually;
* ``fsync_policy="group"`` (default) — one ``fsync`` per *batch*: every
  frame written before the sync started;
* ``fsync_policy="none"`` — :meth:`~WriteAheadLog.sync` only flushes
  the frames to the OS; a crash may lose the tail beyond the last OS
  write-back.

:meth:`~WriteAheadLog.append` is ``write`` then ``sync``, for callers
with no mutex of their own; it returns once the record is durable per
the policy.

Under ``"always"`` and ``"group"`` the log also syncs its directory
whenever it creates a segment, so that the new file's directory entry,
and with it every acknowledged commit in the segment, survives a power
loss.  A segment rotates under the sync lock, so it never closes a file
that a syncer is syncing.

Failure model.  An I/O error at a write or a sync, or a record that
does not encode, poisons the log: nothing more is written or synced,
``durable_ts`` never passes the first failure, and the call that hit it
and every later ``write``/``sync``/``append``/``flush``/``close``
raises a fresh :class:`WalPoisoned` chained to the original cause and
carrying the first failed sequence number.  The in-memory commit
stands: the service layer surfaces the error without undoing the
commit, the same contract as a monitor failure, or degrades to
read-only, per its ``on_wal_failure`` policy.  The ``wal.write`` and
``wal.fsync`` failpoints (:mod:`repro.faults`) sit in front of the
frame write and the sync so fault plans can inject exactly these
failures deterministically.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..core.errors import StoreError
from ..faults import FAULTS
from ..mvcc.engine import CommitRecord
from .format import (
    SEGMENT_MAGIC,
    commit_record_to_payload,
    encode_frame,
    meta_to_payload,
    segment_index,
    segment_name,
    state_to_payload,
)

FSYNC_POLICIES = ("always", "group", "none")
"""How appends reach the disk (see the module docstring)."""

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
"""Default segment rotation bound."""


class WalError(StoreError):
    """The log failed (I/O error, unencodable record, ordering bug).
    An I/O error or an unencodable record poisons the log: it can no
    longer guarantee a gap-free prefix."""


class WalClosed(WalError):
    """Write to a closed log."""


class WalPoisoned(WalError):
    """The log is poisoned and the original cause travels with every
    raise.

    The first failure (an I/O error in a write or a sync, an
    unencodable record) poisons the log; every *subsequent* call
    re-raises a fresh :class:`WalPoisoned` chained (via ``__cause__``)
    to the root failure, so a committer that hits the poisoned log
    minutes later still sees *why* and *where* it died — not just "log
    is broken".

    Attributes:
        first_failed_seq: the commit sequence number whose durability
            failed first (everything below it is on disk and
            recoverable; it and everything after are not).
        root: the original exception that poisoned the log.
    """

    def __init__(
        self,
        detail: str,
        first_failed_seq: int,
        root: Optional[BaseException],
    ):
        super().__init__(detail)
        self.first_failed_seq = first_failed_seq
        self.root = root
        # Chain explicitly so even a bare `raise` (no `from`) of this
        # instance renders the root failure in the traceback.
        self.__cause__ = root


@dataclass
class WalStats:
    """Counters for one log's lifetime (an attached
    :class:`~repro.service.metrics.ServiceMetrics` reads them when it
    takes a snapshot).

    ``bytes_written`` counts everything written, segment headers
    included; ``commit_bytes`` only the commit frames.  ``batches``
    maps the number of records one sync made durable to the number of
    syncs that did so."""

    appends: int = 0
    flushes: int = 0
    fsyncs: int = 0
    bytes_written: int = 0
    commit_bytes: int = 0
    segments_created: int = 0
    records_flushed: int = 0
    batches: Dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch(self) -> float:
        """Mean group-commit batch size."""
        if not self.flushes:
            return 0.0
        return self.records_flushed / self.flushes


class WriteAheadLog:
    """Append-only, segmented, commit-ordered durable log.

    Args:
        directory: where segments live (created if missing; existing
            segments are never touched — a new segment is opened after
            the highest existing index, so a recovered directory can be
            inspected while a fresh service logs elsewhere).
        fsync_policy: one of :data:`FSYNC_POLICIES`.
        segment_max_bytes: rotate to a new segment once the commit
            frames in the current one would exceed this (every segment
            keeps at least one record).  Only commit frames count: the
            segment's magic, meta frame and (in segment 1) state frame
            are a fixed header, however large the initial state makes
            it.
        start_seq: first commit sequence number expected (one past the
            engine's last commit at attach time; 1 for a fresh engine).
        meta: log description — ``engine`` key, ``init`` values,
            ``init_tid``, ``model`` (see
            :class:`~repro.wal.format.LogMeta`).  Every segment's meta
            frame carries all of it but ``init``, which is written once
            per log, as the state frame of segment 1: only a log that
            opens a directory holding no segment writes it.

    Raises:
        TypeError / ValueError: ``init`` holds a value the state frame
            cannot carry, or a name that is not a str.
    """

    def __init__(
        self,
        directory: str,
        fsync_policy: str = "group",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_seq: int = 1,
        meta: Optional[Mapping[str, Any]] = None,
    ):
        if fsync_policy not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync_policy {fsync_policy!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if segment_max_bytes < 1:
            raise WalError(
                f"segment_max_bytes must be positive, got {segment_max_bytes}"
            )
        self.directory = directory
        self.fsync_policy = fsync_policy
        self.segment_max_bytes = segment_max_bytes
        self.meta: Dict[str, Any] = dict(meta or {})
        self.stats = WalStats()

        # `_lock` guards the write side (the caller's commit mutex
        # already serialises it, so it is uncontended when served);
        # `_sync_lock` is held across every flush/fsync, rotation and
        # poisoning.  Lock order: `_lock` before `_sync_lock`.
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._next_seq = start_seq             # next ts to write
        self._durable_ts = start_seq - 1       # last ts synced per policy
        self._error: Optional[BaseException] = None
        self._closed = False

        existing = [
            i for i in (
                segment_index(name) for name in os.listdir(directory)
            ) if i is not None
        ] if os.path.isdir(directory) else []
        self._segment = max(existing, default=0)
        # Segment 1's state frame, dropped once written; a reopened
        # log's directory has it already.  Encoded before the directory
        # is made, so an init it cannot carry leaves nothing behind.
        self._state_frame: Optional[bytes] = None if existing else (
            encode_frame(state_to_payload(self.meta.get("init") or {}))
        )
        os.makedirs(directory, exist_ok=True)
        self._file = None  # type: Optional[Any]
        self._segment_commit_bytes = 0  # commit frames in this segment
        self._segment_records = 0
        self._open_segment(first_ts=start_seq)

    # ------------------------------------------------------------------
    # Committers
    # ------------------------------------------------------------------

    def write(
        self, record: CommitRecord, payload: Optional[bytes] = None
    ) -> None:
        """Write one committed transaction's frame to the segment.

        Call it in commit order, under the mutex that allocated the
        commit timestamps: ``record.commit_ts`` must be the next
        sequence number.  ``payload`` is the record's commit payload
        when the caller has already encoded it (a certified service
        encodes each commit once, for its certifier and this log); it
        is encoded here when None.  The frame is not durable until
        :meth:`sync` covers it, except under ``"always"``, where this
        call syncs it before returning.

        Raises:
            WalClosed: after :meth:`close`.
            WalError: the sequence number is not the next one expected
                (nothing is written and the log is not poisoned).
            WalPoisoned: the log is poisoned, or the record does not
                encode or its write fails (which poisons it).
        """
        ts = record.commit_ts
        with self._lock:
            self._check_open()
            if ts != self._next_seq:
                raise WalError(
                    f"write out of sequence: commit #{ts} "
                    f"(next expected #{self._next_seq})"
                )
            try:
                if payload is None:
                    payload = commit_record_to_payload(record)
                frame = encode_frame(payload)
            except Exception as exc:
                # An unencodable record would leave a permanent gap at
                # its sequence number, so the whole log is poisoned.
                self._poison(ts, exc, f"cannot encode commit {record.tid}")
            try:
                if FAULTS.armed:
                    # A dead disk: an io_error rule here poisons the
                    # log exactly like a failed write(2).
                    FAULTS.fire("wal.write", seq=ts)
                if (
                    self._segment_records > 0
                    and self._segment_commit_bytes + len(frame)
                    > self.segment_max_bytes
                ):
                    self._rotate(next_ts=ts)
                self._file.write(frame)
            except BaseException as exc:
                self._poison(ts, exc, "write-ahead log I/O failure")
            self._segment_commit_bytes += len(frame)
            self._segment_records += 1
            self.stats.appends += 1
            self.stats.bytes_written += len(frame)
            self.stats.commit_bytes += len(frame)
            # Published last: a syncer reading it covers this frame.
            self._next_seq = ts + 1
            if self.fsync_policy == "always":
                # Unbatched on purpose: this frame is synced alone.
                with self._sync_lock:
                    self._sync_locked(ts)

    def sync(self, ts: int) -> None:
        """Block until commit ``ts`` (already written) is durable per
        the policy, syncing every frame written so far if no other
        committer's sync covers it.

        Raises:
            WalPoisoned: the log is poisoned, or this sync fails (which
                poisons it).
            WalError: commit ``ts`` was never written.
        """
        if self._error is None and self._durable_ts >= ts:
            return
        with self._sync_lock:
            self._sync_locked(ts)

    def append(
        self, record: CommitRecord, payload: Optional[bytes] = None
    ) -> None:
        """:meth:`write` then :meth:`sync`: append one committed
        transaction and return once it is durable per the policy.
        Concurrent callers must serialise it themselves and call it in
        commit order."""
        self.write(record, payload)
        self.sync(record.commit_ts)

    def _sync_locked(self, ts: int) -> None:
        """Sync every frame written so far unless ``ts`` is already
        durable (caller holds ``_sync_lock``)."""
        if self._error is not None:
            self._reraise_error()
        durable = self._durable_ts
        if durable >= ts:
            return
        written = self._next_seq - 1
        if ts > written:
            raise WalError(
                f"sync of commit #{ts}, which was never written "
                f"(last written #{written})"
            )
        try:
            if self.fsync_policy == "none":
                self._file.flush()
            else:
                self._fsync()
        except BaseException as exc:
            # Every frame past `durable` was written but none of it is
            # known durable: the first of them is the failure.
            self._poison_locked(
                durable + 1, exc, "write-ahead log I/O failure"
            )
            self._raise_poison(exc)
        self._durable_ts = written
        batch = written - durable
        stats = self.stats
        stats.flushes += 1
        if self.fsync_policy != "none":
            stats.fsyncs += 1
        stats.records_flushed += batch
        stats.batches[batch] = stats.batches.get(batch, 0) + 1

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._error is not None:
            self._reraise_error()
        if self._closed:
            raise WalClosed(f"write-ahead log {self.directory!r} is closed")

    def _poison(self, seq: int, exc: BaseException, what: str) -> None:
        """Poison the log at ``seq`` (first failure wins) and raise."""
        with self._sync_lock:
            self._poison_locked(seq, exc, what)
        self._raise_poison(exc)

    def _poison_locked(
        self, seq: int, exc: BaseException, what: str
    ) -> None:
        if self._error is None:
            self._error = WalPoisoned(
                f"{what} at commit #{seq}: {exc}",
                first_failed_seq=seq,
                root=exc,
            )

    def _raise_poison(self, exc: BaseException) -> None:
        if not isinstance(exc, Exception):
            raise exc  # KeyboardInterrupt, SystemExit
        self._reraise_error()

    def _reraise_error(self) -> None:
        """Raise the captured failure.  A poisoned log raises a *fresh*
        :class:`WalPoisoned` every time, chained to the root cause and
        carrying the first failed sequence number — so concurrent
        raisers never share one exception's traceback and every caller
        sees the original failure, however late it arrives."""
        error = self._error
        raise WalPoisoned(
            str(error),
            first_failed_seq=error.first_failed_seq,
            root=error.root,
        )

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------

    def _fsync(self) -> None:
        """Flush and sync the current segment (``_sync_lock`` held).
        The ``wal.fsync`` failpoint sits in front so fault plans can
        model a congested device — the stall is visible to every
        committer waiting on this sync."""
        if FAULTS.armed:
            FAULTS.fire("wal.fsync", segment=self._segment)
        self._file.flush()
        os.fsync(self._file.fileno())

    def _sync_directory(self) -> None:
        """Sync the log directory (not counted in ``WalStats.fsyncs``,
        which counts syncs of commit frames)."""
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _rotate(self, next_ts: int) -> None:
        """Close the current segment and open the next (``_lock``
        held).  Waits out a sync in flight: the syncer holds
        ``_sync_lock`` for as long as it uses the file."""
        with self._sync_lock:
            self._file.flush()
            if self.fsync_policy != "none":
                os.fsync(self._file.fileno())
            self._file.close()
            self._open_segment(first_ts=next_ts)

    def _open_segment(self, first_ts: int) -> None:
        self._segment += 1
        path = os.path.join(self.directory, segment_name(self._segment))
        self._file = open(path, "wb")
        header = SEGMENT_MAGIC + encode_frame(
            meta_to_payload(self.meta, self._segment, first_ts)
        )
        if self._state_frame is not None:
            header += self._state_frame
            self._state_frame = None
        self._file.write(header)
        if self.fsync_policy != "none":
            # A new file's directory entry is durable only once the
            # directory is synced; without it a power loss can drop the
            # segment, and the acknowledged commits in it, whole.
            self._sync_directory()
        self._segment_commit_bytes = 0
        self._segment_records = 0
        self.stats.segments_created += 1
        self.stats.bytes_written += len(header)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def durable_ts(self) -> int:
        """The highest commit sequence number synced per the policy."""
        return self._durable_ts

    def segments(self) -> List[str]:
        """Current segment file paths, oldest first."""
        names = sorted(
            name for name in os.listdir(self.directory)
            if segment_index(name) is not None
        )
        return [os.path.join(self.directory, name) for name in names]

    # ------------------------------------------------------------------
    # Flushing and shutdown
    # ------------------------------------------------------------------

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every frame written so far is durable per the
        policy (re-raising a captured error).  ``timeout`` bounds the
        wait for a sync already in flight."""
        if not self._sync_lock.acquire(
            timeout=-1 if timeout is None else timeout
        ):
            raise WalError("log flush timed out behind a sync in flight")
        try:
            self._sync_locked(self._next_seq - 1)
        finally:
            self._sync_lock.release()

    def close(self, timeout: Optional[float] = None) -> None:
        """Refuse further writes, sync every frame written, close the
        file.  Idempotent.  Raises :class:`WalPoisoned` if the log is
        poisoned (the frames written below the failure are still handed
        to the OS, so recovery reads them back)."""
        with self._lock:
            already = self._closed
            self._closed = True
        if already:
            if self._error is not None:
                self._reraise_error()
            return
        if not self._sync_lock.acquire(
            timeout=-1 if timeout is None else timeout
        ):
            raise WalError("log close timed out behind a sync in flight")
        try:
            if self._error is None:
                self._sync_locked(self._next_seq - 1)
        finally:
            file, self._file = self._file, None
            self._sync_lock.release()
            try:
                file.close()  # flushes what a poisoned log left buffered
            except Exception:
                if self._error is None:
                    raise
        if self._error is not None:
            self._reraise_error()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            try:
                self.close()
            except Exception:
                pass
