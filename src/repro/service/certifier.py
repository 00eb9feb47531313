"""Online certification off the commit path: one forked certifier
process per certified service.

The paper's monitor conditions (Theorems 8, 9 and 21) are checks over a
history in commit order; nothing in them needs the committer to wait.
:class:`Certifier` therefore moves the
:class:`~repro.monitor.online.ConsistencyMonitor` into a child process
forked (``multiprocessing``'s ``"fork"`` context) when the service is
built, so the monitor's initial state — a shared read-only mapping that
may hold millions of objects — is inherited, never pickled.

The feed.  Inside the commit critical section the service encodes each
commit's ``SIWAL004`` payload once (:mod:`repro.wal.format`; the
write-ahead log reuses the same bytes) and hands it to
:meth:`Certifier.observe_commit`, which appends it to a buffer.  Every
:data:`BATCH` commits the buffer is written to the child's feed pipe.
The pipe's capacity is the only backpressure: a certifier that falls a
pipe's worth behind stalls the hand-off until it catches up.  The
child decodes and certifies payloads strictly in feed order, which is
commit order, and reports after each read of the pipe: how many commits
it has certified, the ``commit_ts`` of the last one (``certified_ts``,
the certification analogue of the log's ``durable_ts``), each new
:class:`~repro.monitor.online.Violation` and each
:class:`~repro.monitor.online.MonitorError` its monitor raised.

Draining.  :meth:`Certifier.drain` flushes the buffer and a sync request
behind it, then waits for the child's answer.  The answer carries the
monitor's whole state (all but the shared initial mapping), which
replaces the state of the parent's :attr:`Certifier.monitor`: after a
drain, the monitor object the service was given reads exactly as if it
had certified every commit in-process.  A drain re-raises the child's
monitor errors, and a :class:`CertifierError` once the feed is broken.

Lifetime.  The child exits on end-of-file of its feed pipe:
:meth:`Certifier.close` drains, closes the pipe and reaps the child; a
``weakref.finalize`` does the same for a certifier that is never
closed, and a parent killed outright closes the pipe by dying.  Every
child closes the parent's ends of the other certifiers' pipes first
thing, so no child keeps another one's feed open.  The child touches
nothing a parent thread may hold — no lock, no lazy import, no
inherited file object (the inherited heap is frozen out of the cyclic
collector) — and ignores ``SIGINT``, which its parent handles.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import select
import signal
import struct
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Set

from ..monitor.online import ConsistencyMonitor, MonitorError, Violation
from ..wal.format import commit_record_from_payload

BATCH = 32
"""Commits buffered before the hand-off writes them to the feed pipe."""

REAP_TIMEOUT = 5.0
"""Seconds a closing certifier waits for its child to exit on
end-of-file before terminating it."""

_LENGTH = struct.Struct("<I")
_SYNC = _LENGTH.pack(0)
"""A zero-length feed record: "report your state" (a commit payload is
never empty)."""

_READ_SIZE = 1 << 16

_PARENT_FDS: Set[int] = set()
"""The parent's ends of every live certifier's pipes; a newly forked
child closes all of them."""


class CertifierError(MonitorError):
    """The certifier can no longer vouch for the history: a commit could
    not be handed off (an unencodable value leaves a hole in the feed),
    or the child process is gone.  Raised by every later drain, chained
    to the root cause.

    Attributes:
        root: the original failure.
    """

    def __init__(self, detail: str, root: Optional[BaseException] = None):
        super().__init__(detail)
        self.root = root
        self.__cause__ = root


class Certifier:
    """The parent's handle on one certifier process.

    Args:
        monitor: the monitor the child starts from (fed nothing in the
            parent; refreshed with the child's state at each drain).
        on_violation: called in the parent with each violation the
            child reports, in commit order.

    Thread-safe: committers hand off under the engine's commit mutex,
    and any thread may drain.
    """

    def __init__(
        self,
        monitor: ConsistencyMonitor,
        on_violation: Callable[[Violation], None],
    ):
        self.monitor = monitor
        self._on_violation = on_violation
        self._lock = threading.Lock()
        self._buffer = bytearray()
        self._buffered = 0
        self._sent = 0          # commits handed off, buffered or written
        self._certified = 0     # commits the child has reported on
        self.certified_ts = 0
        """``commit_ts`` of the last commit the child has certified."""
        self._syncs_sent = 0
        self._syncs_answered = 0
        self._reports = bytearray()
        self._error: Optional[BaseException] = None  # the child's, unraised
        self._broken: Optional[CertifierError] = None
        self._closed = False

        feed_r, feed_w = os.pipe()
        report_r, report_w = os.pipe()
        _PARENT_FDS.update((feed_w, report_r))
        self._process = multiprocessing.get_context("fork").Process(
            target=_certify,
            args=(monitor, feed_r, report_w),
            name="repro-certifier",
            daemon=True,
        )
        try:
            self._process.start()
        except BaseException:
            _PARENT_FDS.difference_update((feed_w, report_r))
            for fd in (feed_w, report_r):
                os.close(fd)
            raise
        finally:
            os.close(feed_r)
            os.close(report_w)
        os.set_blocking(feed_w, False)
        os.set_blocking(report_r, False)
        self._feed = feed_w
        self._report = report_r
        self._reap = weakref.finalize(
            self, _reap, self._process, feed_w, report_r
        )

    @property
    def pid(self) -> Optional[int]:
        """The child's process id."""
        return self._process.pid

    @property
    def lag(self) -> int:
        """Commits handed off but not yet certified (as of the last
        report read)."""
        return self._sent - self._certified

    # ------------------------------------------------------------------
    # The hand-off (inside the commit critical section)
    # ------------------------------------------------------------------

    def observe_commit(self, payload: bytes) -> None:
        """Hand off one commit's encoded payload, in commit order."""
        with self._lock:
            if self._broken is not None:
                if self._closed:
                    raise CertifierError(str(self._broken))
                return  # a hole is already in the feed; drain reports it
            self._buffer += _LENGTH.pack(len(payload))
            self._buffer += payload
            self._sent += 1
            self._buffered += 1
            if self._buffered >= BATCH:
                self._flush_locked()

    def poison(self, error: BaseException) -> None:
        """A commit could not be handed off (its payload failed to
        encode): every later commit would be certified against a history
        with a hole, so the feed stops here."""
        with self._lock:
            self._break_locked(
                CertifierError(
                    f"a commit could not be handed to the certifier: "
                    f"{error}",
                    root=error,
                )
            )

    def _flush_locked(self) -> None:
        data, self._buffer = self._buffer, bytearray()
        self._buffered = 0
        self._write_locked(data)
        self._poll_locked()

    def _write_locked(self, data: bytes) -> None:
        """Write ``data`` to the feed, reading reports while the pipe
        is full (so a child blocked on a full report pipe never stalls
        the two of them)."""
        view = memoryview(data)
        while view and self._broken is None:
            try:
                view = view[os.write(self._feed, view):]
            except BlockingIOError:
                select.select([self._report], [self._feed], [])
                self._poll_locked()
            except OSError as exc:
                self._break_locked(self._gone(exc))

    def _break_locked(self, error: CertifierError) -> None:
        if self._broken is None:
            self._broken = error
            self._buffer = bytearray()
            self._buffered = 0

    def _gone(self, exc: Optional[BaseException] = None) -> CertifierError:
        return CertifierError(
            f"the certifier process (pid {self.pid}) exited", root=exc
        )

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def poll(self) -> None:
        """Read whatever the child has reported, without waiting."""
        with self._lock:
            if not self._closed:
                self._poll_locked()

    def _poll_locked(self) -> None:
        while True:
            try:
                chunk = os.read(self._report, _READ_SIZE)
            except BlockingIOError:
                break
            if not chunk:
                self._break_locked(self._gone())
                break
            self._reports += chunk
        reports = self._reports
        at = 0
        while len(reports) - at >= _LENGTH.size:
            (size,) = _LENGTH.unpack_from(reports, at)
            end = at + _LENGTH.size + size
            if end > len(reports):
                break
            self._apply_locked(pickle.loads(reports[at + _LENGTH.size:end]))
            at = end
        del reports[:at]

    def _apply_locked(self, report: tuple) -> None:
        count, ts, syncs, violations, error, state = report
        self._certified = count
        self.certified_ts = ts
        self._syncs_answered = syncs
        if state is not None:
            self.monitor.__dict__.update(state)
        for violation in violations:
            self._on_violation(violation)
        self._error = self._error or error

    # ------------------------------------------------------------------
    # Drain and shutdown
    # ------------------------------------------------------------------

    def drain(self) -> None:
        """Wait until every commit handed off so far is certified and
        :attr:`monitor` holds the child's state.

        Raises:
            MonitorError: the first error the child's monitor raised
                since the last drain (later ones are dropped).
            CertifierError: the feed is broken (see :meth:`poison`) or
                the child died.
        """
        with self._lock:
            if self._closed:
                return
            if self._buffered:
                self._flush_locked()
            self._syncs_sent += 1
            mine = self._syncs_sent
            self._write_locked(_SYNC)
        while True:
            with self._lock:
                self._poll_locked()
                if self._broken is not None or self._syncs_answered >= mine:
                    break
            # A committer may read the answer first; the timeout bounds
            # how long this loop takes to notice.
            select.select([self._report], [], [], 0.01)
        with self._lock:
            if self._broken is not None:
                raise CertifierError(str(self._broken), self._broken.root)
            error, self._error = self._error, None
            if error is not None:
                raise error

    def close(self) -> None:
        """Drain, then close the feed and reap the child.  Idempotent;
        re-raises what the drain raises, after reaping."""
        if self._closed:
            return
        try:
            self.drain()
        finally:
            with self._lock:
                self._closed = True
                self._break_locked(CertifierError("the certifier is closed"))
            self._reap()

    # ------------------------------------------------------------------
    # Views of the certified state (as of the last drain)
    # ------------------------------------------------------------------

    @property
    def consistent(self) -> bool:
        """True iff no violation has been flagged, as of the last
        drain."""
        return self.monitor.consistent

    def state_size(self) -> Dict[str, int]:
        """The monitor's :meth:`~ConsistencyMonitor.state_size`, as of
        the last drain."""
        return self.monitor.state_size()


def _reap(process, feed: int, report: int) -> None:
    """Close the parent's ends of the pipes and reap the child (it
    exits on end-of-file of its feed)."""
    for fd in (feed, report):
        _PARENT_FDS.discard(fd)
        try:
            os.close(fd)
        except OSError:
            pass
    process.join(REAP_TIMEOUT)
    if process.exitcode is None:
        process.terminate()
        process.join()


# ----------------------------------------------------------------------
# The child
# ----------------------------------------------------------------------


def _certify(monitor: ConsistencyMonitor, feed: int, report: int) -> None:
    """The child's loop: certify the feed in order until end-of-file."""
    for fd in _PARENT_FDS:
        try:
            os.close(fd)
        except OSError:
            pass
    _PARENT_FDS.clear()
    # Inherited objects stay out of the cyclic collector: collecting
    # the parent's garbage here could flush a file object's buffer into
    # a descriptor the parent still writes.
    gc.freeze()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:
        pass  # forked from a thread Python does not treat as main
    observe = monitor.observe_commit
    decode = commit_record_from_payload
    count = ts = syncs = 0
    violations: List[Violation] = []
    error: Optional[BaseException] = None  # the first since the report
    pending = b""
    try:
        while True:
            chunk = os.read(feed, _READ_SIZE)
            if not chunk:
                return
            data = pending + chunk if pending else chunk
            reported = count
            at, end = 0, len(data)
            while end - at >= _LENGTH.size:
                (size,) = _LENGTH.unpack_from(data, at)
                if size == 0:
                    at += _LENGTH.size
                    syncs += 1
                    _send(report, (count, ts, syncs, violations, error,
                                   _state(monitor)))
                    violations, error, reported = [], None, count
                    continue
                if end - at - _LENGTH.size < size:
                    break
                payload = data[at + _LENGTH.size:at + _LENGTH.size + size]
                at += _LENGTH.size + size
                count += 1
                try:
                    record = decode(payload)
                    ts = record.commit_ts
                    violation = observe(
                        record.tid, record.session, record.events
                    )
                except Exception as exc:
                    error = error or exc
                else:
                    if violation is not None:
                        violations.append(violation)
            pending = data[at:]
            if count != reported:
                _send(report, (count, ts, syncs, violations, error, None))
                violations, error = [], None
    except OSError:
        return  # the parent is gone


def _state(monitor: ConsistencyMonitor) -> Dict[str, Any]:
    """The monitor's state, less the initial mapping the parent
    shares."""
    return {
        key: value for key, value in vars(monitor).items()
        if key != "_initial"
    }


def _send(report: int, message: tuple) -> None:
    try:
        body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    except Exception:
        # An exception that does not pickle travels as its text.
        *head, error, state = message
        body = pickle.dumps(
            (*head, MonitorError(repr(error)), state),
            pickle.HIGHEST_PROTOCOL,
        )
    data = memoryview(_LENGTH.pack(len(body)) + body)
    while data:
        data = data[os.write(report, data):]
