"""The durable, segmented, group-commit write-ahead log.

:class:`WriteAheadLog` turns the in-memory commit stream of the engines
into a crash-survivable artifact: every
:class:`~repro.mvcc.engine.CommitRecord` is appended as a
CRC32-checksummed frame (:mod:`repro.wal.format`), in **exact commit
order**, to an append-only segment file that rotates at a size bound.

Ordering.  Committers call :meth:`append` concurrently, right after the
engine releases its commit mutex — so records arrive scrambled.  The
log holds a record back in a reorder buffer until every earlier commit
sequence number (the engines allocate commit timestamps gaplessly) has
arrived, and writes frames strictly in sequence.  The on-disk log is therefore always a *prefix* of the true
commit order: recovery after a crash at any point yields a
prefix-consistent history.

Group commit.  A dedicated flusher thread owns the file.  Appenders
deposit their encoded frame and (depending on the policy) wait for
durability; the flusher grabs everything writable in one batch, writes
it, and syncs once — so N concurrent committers share one ``fsync``:

* ``fsync_policy="always"`` — no batching at all: the flusher writes
  and syncs one frame per cycle (batching concurrent committers *is*
  group commit, so the per-record policy gets none of it).  This is the
  classic durable-commit cost every commit pays individually;
* ``fsync_policy="group"`` (default) — one ``fsync`` per *batch*;
  appenders wait for the batch sync covering their record.  Batch size
  grows naturally under load: while the flusher syncs, every other
  committer deposits.  Before syncing, the flusher additionally waits —
  up to :data:`DEFAULT_GROUP_WINDOW` (0.5 ms) — while committers it
  *knows* are in flight (threads currently inside :meth:`append`) have
  not deposited yet, so a round of N concurrent committers shares one
  ``fsync`` instead of being split across two;
* ``fsync_policy="none"`` — frames are written to the OS (no sync) and
  :meth:`append` returns without waiting; a crash may lose the tail
  beyond the last OS write-back.

``flush_interval`` bounds how long a deposited frame can sit unwritten
when no appender is pushing the flusher (relevant under ``"none"``,
where nobody waits): the flusher wakes at least that often.

Failure model.  An I/O error poisons the log: the flusher writes
nothing more (frames queued behind the failed one are dropped, and
``durable_ts`` stays below the first failure), and every waiting and
subsequent ``append``/``flush``/``close`` raises a fresh
:class:`WalPoisoned` chained to the original cause and carrying the
first failed sequence number (the in-memory commit stands — the service
layer surfaces the error without undoing the commit, the same contract
as a monitor failure; or degrades to read-only, per its
``on_wal_failure`` policy).  The ``wal.write`` and ``wal.fsync``
failpoints (:mod:`repro.faults`) sit in the flusher so fault plans can
inject exactly these failures deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Any

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
)

FSYNC_POLICIES = ("always", "group", "none")
"""How appends reach the disk (see the module docstring)."""

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
"""Default segment rotation bound."""

DEFAULT_FLUSH_INTERVAL = 0.05
"""Default bound on how long a writable frame may wait for the flusher."""

DEFAULT_GROUP_WINDOW = 0.0005
"""Bound on how long the ``"group"`` flusher waits for in-flight
committers (threads already inside :meth:`WriteAheadLog.append`) to
join a batch before syncing it."""


class WalError(StoreError):
    """The log failed (I/O error, unencodable record, ordering bug).
    Once raised from :meth:`WriteAheadLog.append`, the log is poisoned:
    it can no longer guarantee a gap-free prefix."""


class WalClosed(WalError):
    """Append to a closed log."""


class WalPoisoned(WalError):
    """The log is poisoned and the original cause travels with every
    raise.

    The first failure (an I/O error from the flusher, an unencodable
    record) poisons the log; every *subsequent* ``append``/``flush``/
    ``close`` re-raises a fresh :class:`WalPoisoned` chained (via
    ``__cause__``) to the root failure, so a committer that hits the
    poisoned log minutes later still sees *why* and *where* it died —
    not just "log is broken".

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


class _BatchFailure(Exception):
    """Internal: a write/fsync failed at ``seq`` for reason ``root``
    (lets the flusher poison the log with the exact failed frame)."""

    def __init__(self, seq: int, root: BaseException):
        super().__init__(f"batch failure at #{seq}: {root}")
        self.seq = seq
        self.root = root


@dataclass
class WalStats:
    """Counters for one log's lifetime (also mirrored into an attached
    :class:`~repro.service.metrics.ServiceMetrics`)."""

    appends: int = 0
    flushes: int = 0
    fsyncs: int = 0
    bytes_written: int = 0
    segments_created: int = 0
    segments_deleted: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def mean_batch(self) -> float:
        """Mean group-commit batch size."""
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)


class WriteAheadLog:
    """Append-only, segmented, commit-ordered durable log.

    Args:
        directory: where segments live (created if missing; existing
            segments are never touched — a new segment is opened after
            the highest existing index, so a recovered directory can be
            inspected while a fresh service logs elsewhere).
        fsync_policy: one of :data:`FSYNC_POLICIES`.
        segment_max_bytes: rotate to a new segment once the current one
            would exceed this (every segment keeps at least one record).
        retention_segments: keep at most this many segments, deleting
            the oldest after rotation (``None`` = keep everything).
            Recovery from a pruned log yields the surviving suffix.
        flush_interval: the flusher's wake-up bound in seconds.
        start_seq: first commit sequence number expected (one past the
            engine's last commit at attach time; 1 for a fresh engine).
        meta: log description written into every segment header —
            ``engine`` key, ``init`` values, ``init_tid``, ``model``
            (see :class:`~repro.wal.format.LogMeta`).
        metrics: optional :class:`~repro.service.metrics.ServiceMetrics`
            to mirror append/flush counters into (the service attaches
            its own when none is set).
    """

    def __init__(
        self,
        directory: str,
        fsync_policy: str = "group",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        retention_segments: Optional[int] = None,
        flush_interval: float = DEFAULT_FLUSH_INTERVAL,
        start_seq: int = 1,
        meta: Optional[Mapping[str, Any]] = None,
        metrics: Optional[Any] = None,
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
        if retention_segments is not None and retention_segments < 1:
            raise WalError(
                f"retention_segments must be positive, got "
                f"{retention_segments}"
            )
        if flush_interval <= 0:
            raise WalError(
                f"flush_interval must be positive, got {flush_interval}"
            )
        self.directory = directory
        self.fsync_policy = fsync_policy
        self.segment_max_bytes = segment_max_bytes
        self.retention_segments = retention_segments
        self.flush_interval = flush_interval
        self.meta: Dict[str, Any] = dict(meta or {})
        self.metrics = metrics
        self.stats = WalStats()

        # One lock, two wait-sets: the flusher sleeps on `_io_cond`
        # (woken per writable deposit), `flush()`/`close()` sleep on
        # `_durable_cond` (woken once per completed flush).  Committers
        # waiting for durability use `_durable_event` instead — an
        # eventcount the flusher rotates per flush — so a completed
        # batch wakes its whole round without funnelling every waiter
        # back through the lock one by one.
        self._lock = threading.Lock()
        self._io_cond = threading.Condition(self._lock)
        self._durable_cond = threading.Condition(self._lock)
        self._durable_event = threading.Event()
        self._pending: Dict[int, bytes] = {}   # reorder buffer: ts -> frame
        self._writable: List[Tuple[int, bytes]] = []  # in-sequence frames
        self._next_seq = start_seq             # next ts eligible to write
        self._durable_ts = start_seq - 1       # last ts flushed per policy
        self._appenders = 0                    # threads inside append()
        self._error: Optional[BaseException] = None
        self._closed = False

        os.makedirs(directory, exist_ok=True)
        existing = [
            i for i in (
                segment_index(name) for name in os.listdir(directory)
            ) if i is not None
        ]
        self._segment = max(existing, default=0)
        self._file = None  # type: Optional[Any]
        self._segment_bytes = 0
        self._segment_records = 0
        self._open_segment(first_ts=start_seq)

        self._flusher = threading.Thread(
            target=self._flush_loop, name="wal-flusher", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------
    # Producer side (committers)
    # ------------------------------------------------------------------

    def append(self, record: CommitRecord) -> None:
        """Append one committed transaction.

        Thread-safe; callers may arrive in any order — the record is
        held until every earlier commit sequence number has arrived.
        Under ``"always"``/``"group"`` the call returns once the record
        is durable per the policy; under ``"none"`` it returns as soon
        as the frame is deposited.

        Raises:
            WalClosed: after :meth:`close`.
            WalError: if the log is poisoned (I/O failure, unencodable
                record, duplicate/stale sequence number).
        """
        with self._lock:
            self._appenders += 1  # visible to the group-commit window
        try:
            try:
                frame = encode_frame(commit_record_to_payload(record))
            except Exception as exc:
                # An unencodable record would leave a permanent gap at
                # its sequence number, so the whole log is poisoned.
                with self._lock:
                    if self._error is None:
                        self._error = WalPoisoned(
                            f"cannot encode commit {record.tid}: {exc}",
                            first_failed_seq=record.commit_ts,
                            root=exc,
                        )
                    self._io_cond.notify()
                    self._durable_event.set()
                    self._durable_cond.notify_all()
                    self._reraise_error()
            ts = record.commit_ts
            with self._lock:
                self._check_open()
                if ts < self._next_seq or ts in self._pending:
                    raise WalError(
                        f"append out of sequence: commit #{ts} "
                        f"(next expected #{self._next_seq})"
                    )
                self._pending[ts] = frame
                self.stats.appends += 1
                self.stats.bytes_written += len(frame)
                if self.metrics is not None:
                    self.metrics.record_wal_append(len(frame))
                if self._promote_locked():
                    self._io_cond.notify()  # wake/feed the flusher
                if self.fsync_policy == "none":
                    return
            # Durability wait, outside the lock: grab the current epoch
            # event, re-check, sleep.  The flusher publishes
            # `_durable_ts` and sets the epoch's event under the lock,
            # so a wakeup can never be lost — and N acked committers
            # wake concurrently instead of re-queueing on the lock.
            while self._durable_ts < ts:
                if self._error is not None:
                    self._reraise_error()
                if self._closed:
                    raise WalClosed(
                        f"log closed before commit #{ts} became durable"
                    )
                event = self._durable_event
                if self._durable_ts >= ts:
                    break
                event.wait(self.flush_interval)
            if self._error is not None:
                self._reraise_error()
        finally:
            with self._lock:
                self._appenders -= 1

    def _promote_locked(self) -> bool:
        """Move the contiguous run of pending frames into write order.
        Returns whether anything became writable."""
        grew = False
        while self._next_seq in self._pending:
            self._writable.append(
                (self._next_seq, self._pending.pop(self._next_seq))
            )
            self._next_seq += 1
            grew = True
        return grew

    def _check_open(self) -> None:
        if self._error is not None:
            self._reraise_error()
        if self._closed:
            raise WalClosed(f"write-ahead log {self.directory!r} is closed")

    def _reraise_error(self) -> None:
        """Raise the captured failure.  A poisoned log raises a *fresh*
        :class:`WalPoisoned` every time, chained to the root cause and
        carrying the first failed sequence number — so concurrent
        raisers never share one exception's traceback and every caller
        sees the original failure, however late it arrives."""
        error = self._error
        if isinstance(error, WalPoisoned):
            raise WalPoisoned(
                str(error),
                first_failed_seq=error.first_failed_seq,
                root=error.root,
            )
        raise error

    # ------------------------------------------------------------------
    # Flusher thread
    # ------------------------------------------------------------------

    def _flush_loop(self) -> None:
        while True:
            with self._lock:
                while not self._writable and not self._closed:
                    self._io_cond.wait(self.flush_interval)
                if self._closed and not self._writable:
                    return
                if self.fsync_policy == "group" and not self._closed:
                    # Group-commit window: committers already inside
                    # append() will deposit momentarily — hold the batch
                    # open for them (bounded) so one fsync covers the
                    # whole concurrent round instead of half of it.
                    deadline = time.monotonic() + DEFAULT_GROUP_WINDOW
                    while (
                        len(self._writable) < self._appenders
                        and not self._closed
                    ):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._io_cond.wait(remaining)
                if self.fsync_policy == "always":
                    # Per-record durability: one frame per cycle, its
                    # own write + fsync.  The rest stays writable and
                    # the loop comes straight back for it.
                    batch = [self._writable.pop(0)]
                else:
                    batch = self._writable
                    self._writable = []
            # I/O outside the lock: committers keep depositing while we
            # write and sync — that's what grows the group-commit batch.
            error: Optional[BaseException] = None
            fsyncs = 0
            try:
                fsyncs = self._write_batch(batch)
            except BaseException as exc:
                error = exc
            with self._lock:
                if error is not None:
                    if self._error is None:
                        if isinstance(error, _BatchFailure):
                            seq, root = error.seq, error.root
                        else:
                            seq, root = batch[0][0], error
                        self._error = WalPoisoned(
                            f"write-ahead log I/O failure at commit "
                            f"#{seq}: {root}",
                            first_failed_seq=seq,
                            root=root,
                        )
                    # Every frame still queued is later than the failed
                    # one: writing it would leave a hole on disk, and
                    # `_durable_ts` must stay below the first failure.
                    self._writable = []
                else:
                    self._durable_ts = batch[-1][0]
                    self.stats.flushes += 1
                    self.stats.fsyncs += fsyncs
                    self.stats.batch_sizes.append(len(batch))
                    if self.metrics is not None:
                        self.metrics.record_wal_flush(len(batch), fsyncs)
                epoch = self._durable_event
                self._durable_event = threading.Event()
                epoch.set()  # wake this batch's committers
                self._durable_cond.notify_all()

    def _write_batch(self, batch: List[Tuple[int, bytes]]) -> int:
        """Write ``batch`` (rotating as needed) and sync per policy.
        Returns the number of fsyncs performed.  Flusher thread only."""
        fsyncs = 0
        for ts, frame in batch:
            try:
                if FAULTS.armed:
                    # A dead disk: an io_error rule here poisons the
                    # log exactly like a failed write(2).
                    FAULTS.fire("wal.write", seq=ts)
                if (
                    self._segment_records > 0
                    and self._segment_bytes + len(frame)
                    > self.segment_max_bytes
                ):
                    self._rotate(next_ts=ts)
                self._file.write(frame)
            except BaseException as exc:
                raise _BatchFailure(ts, exc) from exc
            self._segment_bytes += len(frame)
            self._segment_records += 1
            if self.fsync_policy == "always":
                try:
                    self._fsync()
                except BaseException as exc:
                    raise _BatchFailure(ts, exc) from exc
                fsyncs += 1
        if self.fsync_policy == "group":
            try:
                self._fsync()
            except BaseException as exc:
                # The whole batch was written but none of it is known
                # durable: the first frame is the first failure.
                raise _BatchFailure(batch[0][0], exc) from exc
            fsyncs += 1
        elif self.fsync_policy == "none":
            self._file.flush()
        return fsyncs

    def _fsync(self) -> None:
        """Flush and sync the current segment (flusher thread only).
        The ``wal.fsync`` failpoint sits in front so fault plans can
        model a congested device — the stall is visible to every
        committer waiting on this batch's durability."""
        if FAULTS.armed:
            FAULTS.fire("wal.fsync", segment=self._segment)
        self._file.flush()
        os.fsync(self._file.fileno())

    def _rotate(self, next_ts: int) -> None:
        """Close the current segment and open the next (flusher only)."""
        self._file.flush()
        if self.fsync_policy != "none":
            os.fsync(self._file.fileno())
        self._file.close()
        self._open_segment(first_ts=next_ts)
        self._apply_retention()

    def _open_segment(self, first_ts: int) -> None:
        self._segment += 1
        path = os.path.join(self.directory, segment_name(self._segment))
        self._file = open(path, "wb")
        header = SEGMENT_MAGIC + encode_frame(
            meta_to_payload(self.meta, self._segment, first_ts)
        )
        self._file.write(header)
        self._segment_bytes = len(header)
        self._segment_records = 0
        self.stats.segments_created += 1
        self.stats.bytes_written += len(header)

    def _apply_retention(self) -> None:
        if self.retention_segments is None:
            return
        indices = sorted(
            i for i in (
                segment_index(name) for name in os.listdir(self.directory)
            ) if i is not None
        )
        for index in indices[:-self.retention_segments]:
            os.unlink(os.path.join(self.directory, segment_name(index)))
            self.stats.segments_deleted += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def durable_ts(self) -> int:
        """The highest commit sequence number flushed per the policy."""
        with self._lock:
            return self._durable_ts

    @property
    def pending_gap(self) -> List[int]:
        """Sequence numbers deposited but blocked behind a gap."""
        with self._lock:
            return sorted(self._pending)

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
        """Block until every in-sequence deposited frame is flushed
        (re-raising a captured error).  Frames stuck behind a sequence
        gap stay pending — see :attr:`pending_gap`."""
        with self._lock:
            done = self._durable_cond.wait_for(
                lambda: (
                    self._error is not None
                    or (not self._writable
                        and self._durable_ts == self._next_seq - 1)
                ),
                timeout=timeout,
            )
            if self._error is not None:
                self._reraise_error()
            if not done:
                raise WalError(
                    f"log flush timed out with "
                    f"{len(self._writable)} frame(s) unwritten"
                )

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush everything in sequence, stop the flusher, close the
        file.  Idempotent.  Raises :class:`WalError` if frames remain
        stuck behind a sequence gap (a committer never arrived) or an
        I/O error was captured."""
        with self._lock:
            already = self._closed
            self._closed = True
            self._io_cond.notify()
            self._durable_event.set()
            self._durable_cond.notify_all()
        if already:
            if self._error is not None:
                self._reraise_error()
            return
        self._flusher.join(timeout)
        if self._flusher.is_alive():
            raise WalError("write-ahead log flusher failed to stop")
        with self._lock:
            if self._file is not None:
                try:
                    self._file.flush()
                    if self.fsync_policy != "none" and self._error is None:
                        os.fsync(self._file.fileno())
                finally:
                    self._file.close()
                    self._file = None
            if self._error is None and self._pending:
                self._error = WalError(
                    f"log closed with a sequence gap: expected commit "
                    f"#{self._next_seq}, holding {sorted(self._pending)}"
                )
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
