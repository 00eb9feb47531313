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

Group commit.  No thread owns the file: the committer whose deposit
makes a frame writable while nobody writes becomes the *leader* and
writes and syncs batches until the writable queue is empty; later
arrivals join its next batch — so N concurrent committers share one
``fsync``:

* ``fsync_policy="always"`` — no batching at all: the leader writes
  and syncs one frame per cycle (batching concurrent committers *is*
  group commit, so the per-record policy gets none of it).  This is the
  classic durable-commit cost every commit pays individually;
* ``fsync_policy="group"`` (default) — one ``fsync`` per *batch*;
  appenders wait for the batch sync covering their record.  Batch size
  grows naturally under load: while the leader syncs, every other
  committer deposits.  Before syncing, the leader additionally waits —
  up to :data:`DEFAULT_GROUP_WINDOW` (0.5 ms) — while committers it
  *knows* are in flight (threads currently inside :meth:`append`) have
  not deposited yet, so a round of N concurrent committers shares one
  ``fsync`` instead of being split across two;
* ``fsync_policy="none"`` — frames are written to the OS (no sync) and
  :meth:`append` returns once its frame is written or queued for the
  current leader; a crash may lose the tail beyond the last OS
  write-back.

Failure model.  An I/O error poisons the log: the leader writes
nothing more (frames queued behind the failed one are dropped, and
``durable_ts`` stays below the first failure), and the leader that hit
it, every waiting and every subsequent ``append``/``flush``/``close``
raises a fresh
:class:`WalPoisoned` chained to the original cause and carrying the
first failed sequence number (the in-memory commit stands — the service
layer surfaces the error without undoing the commit, the same contract
as a monitor failure; or degrades to read-only, per its
``on_wal_failure`` policy).  The ``wal.write`` and ``wal.fsync``
failpoints (:mod:`repro.faults`) sit in the leader's write path so
fault plans can inject exactly these failures deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Any

from ..core.errors import StoreError
from ..faults import FAULTS
from ..mvcc.engine import CommitRecord
from .format import (
    SEGMENT_MAGIC,
    MetaEncoder,
    commit_record_to_payload,
    encode_frame,
    segment_index,
    segment_name,
)

FSYNC_POLICIES = ("always", "group", "none")
"""How appends reach the disk (see the module docstring)."""

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
"""Default segment rotation bound."""

DEFAULT_GROUP_WINDOW = 0.0005
"""Bound on how long the ``"group"`` leader waits for in-flight
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

    The first failure (an I/O error in the leader's write, an unencodable
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
    (lets the leader poison the log with the exact failed frame)."""

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
    records_flushed: int = 0

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
            segment's magic and meta frame are a fixed header, however
            large the initial state makes it.
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
        self.directory = directory
        self.fsync_policy = fsync_policy
        self.segment_max_bytes = segment_max_bytes
        self.meta: Dict[str, Any] = dict(meta or {})
        # Every segment repeats the meta: serialise it once per log.
        self._meta_encoder = MetaEncoder(self.meta)
        self.metrics = metrics
        self.stats = WalStats()

        # One lock, two wait-sets: the leader's group window sleeps on
        # `_io_cond` (woken per writable deposit), `flush()`/`close()`
        # sleep on `_durable_cond` (woken per completed batch and when
        # the leader steps down).  Followers waiting for durability use
        # `_durable_event` instead — an eventcount rotated on every
        # state change they wait for — so a completed batch wakes its
        # whole round without funnelling every waiter back through the
        # lock one by one.
        self._lock = threading.Lock()
        self._io_cond = threading.Condition(self._lock)
        self._durable_cond = threading.Condition(self._lock)
        self._durable_event = threading.Event()
        self._pending: Dict[int, bytes] = {}   # reorder buffer: ts -> frame
        self._writable: List[Tuple[int, bytes]] = []  # in-sequence frames
        self._next_seq = start_seq             # next ts eligible to write
        self._durable_ts = start_seq - 1       # last ts flushed per policy
        self._appenders = 0                    # threads inside append()
        self._leading = False                  # a committer is writing
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
        self._segment_commit_bytes = 0  # commit frames in this segment
        self._segment_records = 0
        self._open_segment(first_ts=start_seq)

    # ------------------------------------------------------------------
    # Producer side (committers)
    # ------------------------------------------------------------------

    def append(self, record: CommitRecord) -> None:
        """Append one committed transaction.

        Thread-safe; callers may arrive in any order — the record is
        held until every earlier commit sequence number has arrived.
        Under ``"always"``/``"group"`` the call returns once the record
        is durable per the policy; under ``"none"`` it returns as soon
        as the frame is deposited, or written if this call led.

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
                    self._wake_locked()
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
                    self._io_cond.notify()  # feed the leader's window
                lead = bool(self._writable) and not self._leading
                self._leading |= lead
            if lead:
                self._lead()
            if self.fsync_policy == "none":
                if lead and self._error is not None:
                    self._reraise_error()
                return
            # Durability wait, outside the lock: grab the current epoch
            # event, then check everything it is rotated for, then
            # sleep.  Every such change is published under the lock
            # before the epoch's event is set, so a wakeup can never be
            # lost — and N acked committers wake concurrently instead
            # of re-queueing on the lock.
            while True:
                event = self._durable_event
                if self._durable_ts >= ts:
                    break
                if self._error is not None:
                    self._reraise_error()
                if self._closed and ts >= self._next_seq:
                    raise WalClosed(
                        f"log closed before commit #{ts} became durable"
                    )
                event.wait()
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
    # The leader (whichever committer found nobody writing)
    # ------------------------------------------------------------------

    def _wake_locked(self) -> None:
        """Wake every durability waiter: rotate the eventcount and
        notify ``flush()``/``close()``."""
        epoch = self._durable_event
        self._durable_event = threading.Event()
        epoch.set()
        self._durable_cond.notify_all()

    def _lead(self) -> None:
        """Write and sync batches until the writable queue is empty.
        Called by the thread that claimed the lead, outside the lock."""
        try:
            while True:
                with self._lock:
                    if not self._writable:
                        # Step down in the same lock hold that sees the
                        # queue empty: the next deposit finds no leader
                        # and leads itself, so no frame is stranded.
                        self._leading = False
                        self._durable_cond.notify_all()
                        return
                    if self.fsync_policy == "group" and not self._closed:
                        # Group-commit window: committers already inside
                        # append() will deposit momentarily — hold the
                        # batch open for them (bounded) so one fsync
                        # covers the whole concurrent round.
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
                        # Per-record durability: one frame per cycle,
                        # its own write + fsync.
                        batch = [self._writable.pop(0)]
                    else:
                        batch = self._writable
                        self._writable = []
                # I/O outside the lock: committers keep depositing while
                # we write and sync — that's what grows the next batch.
                fsyncs = self._write_batch(batch)
                with self._lock:
                    self._durable_ts = batch[-1][0]
                    self.stats.flushes += 1
                    self.stats.fsyncs += fsyncs
                    self.stats.records_flushed += len(batch)
                    if self.metrics is not None:
                        self.metrics.record_wal_flush(len(batch), fsyncs)
                    self._wake_locked()
        except BaseException as exc:
            # An I/O failure, or a signal delivered to the leading
            # thread (which may lose a popped batch): poison the log.
            with self._lock:
                failure = exc if isinstance(exc, _BatchFailure) else (
                    _BatchFailure(self._durable_ts + 1, exc)
                )
                if self._error is None:
                    self._error = WalPoisoned(
                        f"write-ahead log I/O failure at commit "
                        f"#{failure.seq}: {failure.root}",
                        first_failed_seq=failure.seq,
                        root=failure.root,
                    )
                # Every frame still queued is later than the failed
                # one: writing it would leave a hole on disk, and
                # `_durable_ts` must stay below the first failure.
                self._writable = []
                self._leading = False
                self._wake_locked()
            if not isinstance(failure.root, Exception):
                raise failure.root  # KeyboardInterrupt, SystemExit

    def _write_batch(self, batch: List[Tuple[int, bytes]]) -> int:
        """Write ``batch`` (rotating as needed) and sync per policy.
        Returns the number of fsyncs performed.  Leader only."""
        fsyncs = 0
        for ts, frame in batch:
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
                raise _BatchFailure(ts, exc) from exc
            self._segment_commit_bytes += len(frame)
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
        """Flush and sync the current segment (leader only).
        The ``wal.fsync`` failpoint sits in front so fault plans can
        model a congested device — the stall is visible to every
        committer waiting on this batch's durability."""
        if FAULTS.armed:
            FAULTS.fire("wal.fsync", segment=self._segment)
        self._file.flush()
        os.fsync(self._file.fileno())

    def _rotate(self, next_ts: int) -> None:
        """Close the current segment and open the next (leader only)."""
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
            self._meta_encoder.payload(self._segment, first_ts)
        )
        self._file.write(header)
        self._segment_commit_bytes = 0
        self._segment_records = 0
        self.stats.segments_created += 1
        self.stats.bytes_written += len(header)

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
        """Flush everything in sequence, wait for the leader to step
        down, close the file.  Idempotent.  Raises :class:`WalError` if
        frames remain stuck behind a sequence gap (a committer never
        arrived) or an I/O error was captured."""
        with self._lock:
            already = self._closed
            self._closed = True
            self._io_cond.notify()  # cut the leader's group window
            self._wake_locked()     # followers stuck behind a gap
        if already:
            if self._error is not None:
                self._reraise_error()
            return
        with self._lock:
            if not self._durable_cond.wait_for(
                lambda: not self._leading, timeout=timeout
            ):
                raise WalError("write-ahead log writer failed to stop")
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
