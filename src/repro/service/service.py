"""A thread-safe concurrent transaction service over the MVCC engines.

Everything below the service is caller-scheduled and deterministic; the
service is where the reproduction starts *serving* concurrent traffic.
It wraps any :class:`~repro.mvcc.engine.BaseEngine` behind per-client
session handles with:

* **begin/read/write/commit/abort** passing through the engine's
  operation-level atomicity (:attr:`BaseEngine.lock`);
* **automatic retry with exponential backoff** of aborted transactions
  (:meth:`ServiceSession.run`) — the client discipline of Section 5,
  bounded by a retry cap that raises
  :class:`~repro.core.errors.RetryExhausted` instead of livelocking;
* an **admission limit**: at most ``max_concurrent`` transactions in
  flight, the rest queueing on a semaphore (queue depth is metered);
* optional **online certification** off the commit path: an attached
  :class:`~repro.monitor.online.ConsistencyMonitor` (typically with a
  commit ``window``) runs in a forked certifier process
  (:mod:`repro.service.certifier`).  Inside the commit critical section
  the service only encodes the commit's ``SIWAL004`` payload and hands
  it off, so the certifier sees *true commit order*; it certifies on
  the second core while committers go on.  Verdicts arrive in
  :attr:`TransactionService.violations` and are complete after
  :meth:`TransactionService.drain`;
* optional **durability**: with ``wal=`` a
  :class:`~repro.wal.log.WriteAheadLog` receives every commit record
  (with the payload already encoded for the certifier) *off the engine
  lock*, sequenced by the engine's gapless commit
  timestamps — the log's reorder buffer restores true commit order, so
  the on-disk log is always a prefix of the commit history and a killed
  service recovers to a prefix-consistent state via
  :func:`repro.wal.recovery.recover`.  Under
  ``fsync_policy="always"``/``"group"`` the commit call returns only
  once its record is durable; a WAL failure is surfaced to the
  committer *after* the in-memory commit stands.
  :meth:`TransactionService.drain` makes everything so far durable and
  certified, and :meth:`TransactionService.close` ends the service's
  life (it closes the log and reaps the certifier);
* :class:`~repro.service.metrics.ServiceMetrics` counting commits,
  aborts, retries and latency histograms (plus WAL durability counters
  when a log is attached and the certifier's lag when a monitor is),
  JSON-exportable.

Sessions map 1:1 onto engine sessions: a handle is meant to be driven
by one thread at a time (the engines enforce one active transaction per
session), so give each worker thread its own handle via
:meth:`TransactionService.session`.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.errors import (
    DeadlineExceeded,
    FaultInjected,
    RetryExhausted,
    ServiceOverloaded,
    ServiceReadOnly,
    StoreError,
    TransactionAborted,
)
from ..core.events import Obj, Value
from ..faults import FAULTS
from ..monitor.online import ConsistencyMonitor, Violation
from ..mvcc.engine import BaseEngine, CommitRecord, TxContext
from ..mvcc.runtime import ReadOp, TxProgram, WriteOp
from ..wal.format import commit_record_to_payload
from .certifier import Certifier
from .health import HealthPolicy, HealthTracker
from .metrics import ServiceMetrics

WAL_FAILURE_POLICIES = ("fail_stop", "read_only")
"""What a write-ahead-log failure does to the service: ``fail_stop``
(every subsequent commit surfaces the poisoned log's chained error) or
``read_only`` (reads keep serving, updates are refused with
:class:`ServiceReadOnly`)."""


class _AdmissionTimeout(StoreError):
    """Internal: the admission wait outlived the caller's deadline
    (translated into :class:`DeadlineExceeded` by the session)."""


@dataclass(frozen=True)
class TxOutcome:
    """The result of one successfully committed service transaction.

    Attributes:
        record: the engine's commit record.
        attempts: how many attempts were needed (1 = no retry).

    A certified commit's verdict is not on its outcome: the certifier
    reports it to :attr:`TransactionService.violations` (complete after
    :meth:`TransactionService.drain`).  The commit stands either way —
    the monitor certifies, it does not veto.
    """

    record: CommitRecord
    attempts: int


def _violation_sink(
    violations: List[Violation], metrics: ServiceMetrics, lock
) -> Callable[[Violation], None]:
    """Where the certifier reports a violation: the service's list and
    metrics.  Holds no reference to the service, so a service that is
    never closed is still freed, and its certifier reaped, at once."""

    def note(violation: Violation) -> None:
        metrics.record_violation()
        with lock:
            violations.append(violation)

    return note


class TransactionService:
    """Concurrent front-end to one engine.

    Args:
        engine: any :class:`BaseEngine`; the service relies on its
            operation-level locking.
        monitor: optional online monitor, moved into a forked certifier
            process that is fed every commit in commit order
            (:class:`~repro.service.certifier.Certifier`); the service's
            :attr:`monitor` is then the certifier handle, and the
            object passed here holds the certifier's state as of the
            last :meth:`drain` (give it a ``window`` for sustained
            load).
        max_concurrent: admission limit — at most this many
            transactions in flight at once (``None`` = unlimited).
        max_retries: resubmissions allowed per transaction before
            :class:`RetryExhausted` (the livelock bound).
        backoff_base: first backoff sleep in seconds; attempt ``n``
            sleeps ``min(backoff_cap, backoff_base * 2**(n-1))`` scaled
            by a deterministic per-session jitter in [0.5, 1.0).  Zero
            disables sleeping (useful in tests).
        backoff_seed: seed for the jitter streams.
        metrics: share an existing :class:`ServiceMetrics` (one is
            created otherwise).
        wal: optional :class:`~repro.wal.log.WriteAheadLog` appended to
            on every commit, outside the engine lock.  Its ``start_seq``
            must be one past the engine's last commit timestamp (1 for
            a fresh engine); the service adopts it — :meth:`drain`
            flushes it and :meth:`close` closes it.
        default_deadline: per-transaction wall-clock budget in seconds
            applied by :meth:`ServiceSession.run` when the caller gives
            none (``None`` = unbounded).  Backoff sleeps and admission
            waits never extend past a deadline; on expiry the session
            raises :class:`DeadlineExceeded`.
        health_policy: thresholds/timing for the health state machine
            (:class:`~repro.service.health.HealthPolicy`).  The tracker
            always runs; only a policy with ``enforce=True`` turns the
            ``shedding`` state into an admission circuit breaker.
        on_wal_failure: one of :data:`WAL_FAILURE_POLICIES` —
            ``"fail_stop"`` (default: the poisoned log's error, with
            its root cause chained, is raised to this and every later
            committer) or ``"read_only"`` (the failed append is
            absorbed, the service degrades to read-only: snapshot reads
            keep serving, updates raise :class:`ServiceReadOnly`).
    """

    def __init__(
        self,
        engine: BaseEngine,
        monitor: Optional[ConsistencyMonitor] = None,
        max_concurrent: Optional[int] = None,
        max_retries: int = 25,
        backoff_base: float = 0.0002,
        backoff_cap: float = 0.02,
        backoff_seed: int = 0,
        metrics: Optional[ServiceMetrics] = None,
        wal=None,
        default_deadline: Optional[float] = None,
        health_policy: Optional[HealthPolicy] = None,
        on_wal_failure: str = "fail_stop",
    ):
        if max_concurrent is not None and max_concurrent < 1:
            raise StoreError(
                f"max_concurrent must be positive, got {max_concurrent}"
            )
        if max_retries < 0:
            raise StoreError(f"max_retries must be >= 0, got {max_retries}")
        if on_wal_failure not in WAL_FAILURE_POLICIES:
            raise StoreError(
                f"unknown on_wal_failure {on_wal_failure!r}; expected "
                f"one of {WAL_FAILURE_POLICIES}"
            )
        if default_deadline is not None and default_deadline <= 0:
            raise StoreError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self.engine = engine
        self.metrics = metrics or ServiceMetrics()
        self._lock = threading.Lock()
        self.violations: List[Violation] = []
        """Every violation the certifier has reported (complete after
        :meth:`drain`)."""
        self.monitor: Optional[Certifier] = None
        if monitor is not None:
            self.monitor = Certifier(
                monitor,
                _violation_sink(self.violations, self.metrics, self._lock),
            )
            self.metrics.attach_certifier(self.monitor)
        self.health = HealthTracker(health_policy)
        self.wal = wal
        self.on_wal_failure = on_wal_failure
        self.default_deadline = default_deadline
        self.read_only = False
        """True once a WAL failure degraded the service to read-only
        (``on_wal_failure="read_only"`` only)."""
        self.wal_error: Optional[BaseException] = None
        """The first WAL failure absorbed or surfaced, if any."""
        if wal is not None and wal.metrics is None:
            wal.metrics = self.metrics
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_seed = backoff_seed
        self._admission = (
            threading.Semaphore(max_concurrent)
            if max_concurrent is not None
            else None
        )
        self._session_counter = itertools.count(1)

    @classmethod
    def certified(
        cls,
        engine: BaseEngine,
        model: str = "SI",
        window: Optional[int] = None,
        checker: str = "incremental",
        **kwargs,
    ) -> "TransactionService":
        """A service with an attached online monitor built from the
        engine's own initial state.

        Args:
            engine: the engine to front (its ``initial`` seeds the
                monitor's version attribution).
            model: the consistency model to certify against.
            window: retain only this many commits as graph nodes;
                ``None`` keeps the full graph.
            checker: certification back-end — ``"incremental"``
                (default; dynamic-topological-order core, amortised
                per-commit cost) or ``"rebuild"`` (full per-commit
                recheck, the differential-testing oracle).
            **kwargs: forwarded to the service constructor
                (``max_concurrent``, ``max_retries``, ...).
        """
        monitor = ConsistencyMonitor(
            model=model,
            initial_values=engine.initial,
            init_tid=engine.init_tid,
            checker=checker,
            window=window,
        )
        return cls(engine, monitor, **kwargs)

    def session(self, name: Optional[str] = None) -> "ServiceSession":
        """A new session handle (drive it from a single thread)."""
        if name is None:
            with self._lock:
                name = f"client-{next(self._session_counter)}"
        return ServiceSession(self, name)

    def run(self, program: TxProgram) -> TxOutcome:
        """Run one program on a fresh throwaway session (convenience)."""
        return self.session().run(program)

    # ------------------------------------------------------------------
    # Internals shared with the session handles
    # ------------------------------------------------------------------

    def _admit(
        self,
        deadline_ts: Optional[float] = None,
        session: str = "",
    ) -> None:
        """Admission: circuit breaker first, then the (metered)
        semaphore wait, bounded by the caller's deadline when one is
        set.  Raises :class:`ServiceOverloaded` when shedding and
        :class:`_AdmissionTimeout` when the deadline elapses first."""
        if not self.health.allow_admission():
            self.metrics.record_shed()
            raise ServiceOverloaded(session, self.health.state)
        if FAULTS.armed:
            FAULTS.fire("service.admit", session=session)
        if self._admission is None:
            return
        if self._admission.acquire(blocking=False):
            return
        self.metrics.enter_admission_queue()
        try:
            if deadline_ts is None:
                self._admission.acquire()
                return
            remaining = deadline_ts - time.perf_counter()
            if remaining <= 0 or not self._admission.acquire(
                timeout=remaining
            ):
                raise _AdmissionTimeout(
                    f"session {session!r} timed out waiting for an "
                    f"admission slot"
                )
        finally:
            self.metrics.leave_admission_queue()

    def _note_wal_failure(self, error: BaseException) -> bool:
        """Record a failed WAL append and apply the degradation
        policy.  Returns True when the error was absorbed (read-only
        mode) and False when the committer should surface it
        (fail-stop)."""
        self.metrics.record_wal_failure()
        self.health.note_wal_failure()
        with self._lock:
            if self.wal_error is None:
                self.wal_error = error
            if self.on_wal_failure == "read_only":
                self.read_only = True
                return True
        return False

    def _release(self) -> None:
        if self._admission is not None:
            self._admission.release()

    def drain(self) -> None:
        """Make every commit so far durable and certified: wait until
        the write-ahead log has flushed every in-sequence frame and the
        certifier has certified every commit handed to it, so that
        :attr:`violations` and ``metrics.violations`` are complete.

        Raises (after both waits) a captured I/O error of the log, else
        a :class:`~repro.monitor.online.MonitorError` the certifier's
        monitor raised since the last drain, or a
        :class:`~repro.service.certifier.CertifierError` once a commit
        could not be handed off (an unencodable value) or the certifier
        died."""
        error: Optional[BaseException] = None
        if self.wal is not None and not self.read_only:
            try:
                self.wal.flush()
            except BaseException as exc:
                error = exc
        if self.monitor is not None:
            try:
                self.monitor.drain()
            except BaseException as exc:
                error = error or exc
        if error is not None:
            raise error

    def close(self) -> None:
        """Shut the service down: close the write-ahead log and the
        certifier (draining both first, re-raising as :meth:`drain`
        does).  Idempotent."""
        error: Optional[BaseException] = None
        if self.wal is not None:
            try:
                self.wal.close()
            except BaseException as exc:
                # In read-only degraded mode the log's poisoning was
                # already absorbed and surfaced through the health
                # state; closing it again must not re-raise.
                if not self.read_only:
                    error = exc
        if self.monitor is not None:
            try:
                self.monitor.close()
            except BaseException as exc:
                error = error or exc
        if error is not None:
            raise error

    def __enter__(self) -> "TransactionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with a log error.
        if exc_type is None:
            self.close()
        else:
            try:
                self.close()
            except Exception:
                pass


class ServiceSession:
    """One client's handle: explicit transaction control plus
    :meth:`run` for the retry discipline.  Not thread-safe — one thread
    per handle (matching the engines' one-transaction-per-session
    rule).

    An engine-initiated abort keeps the handle's logical-transaction
    bookkeeping (attempt count, start time) alive: per Section 5's
    client discipline the aborted transaction is expected to be
    resubmitted, and the eventual commit's latency covers every failed
    attempt.  A deliberate :meth:`abort` resets it.
    """

    def __init__(self, service: TransactionService, name: str):
        self.service = service
        self.name = name
        self._ctx: Optional[TxContext] = None
        self._txn_started: Optional[float] = None
        self._attempts = 0
        self._attempt_started: Optional[float] = None
        self._attempt_latencies: List[float] = []
        self._deadline_ts: Optional[float] = None
        self._deadline_anchor: Optional[float] = None
        self._rng = random.Random(f"{service.backoff_seed}:{name}")

    # ------------------------------------------------------------------
    # Explicit transaction control
    # ------------------------------------------------------------------

    def begin(self) -> TxContext:
        """Admit and start a transaction (attempt).

        Raises :class:`ServiceOverloaded` when the admission circuit
        breaker is shedding and :class:`DeadlineExceeded` when a
        :meth:`run` deadline elapses while queueing for admission.
        """
        if self._ctx is not None:
            raise StoreError(
                f"session {self.name!r} already has an open transaction"
            )
        try:
            self.service._admit(
                deadline_ts=self._deadline_ts, session=self.name
            )
        except _AdmissionTimeout:
            self.service.metrics.record_deadline_exceeded()
            attempts = self._attempts
            latencies = list(self._attempt_latencies)
            elapsed = time.perf_counter() - (
                self._deadline_anchor or time.perf_counter()
            )
            self._reset_logical()
            raise DeadlineExceeded(
                self.name,
                attempts,
                elapsed,
                "timed out waiting for admission",
                latencies,
            ) from None
        try:
            ctx = self.service.engine.begin(self.name)
        except BaseException:
            self.service._release()
            raise
        self._ctx = ctx
        if self._txn_started is None:
            self._txn_started = time.perf_counter()
        self._attempt_started = time.perf_counter()
        self._attempts += 1
        self.service.metrics.record_begin()
        return ctx

    def read(self, obj: Obj) -> Value:
        """Read ``obj`` in the open transaction."""
        try:
            return self.service.engine.read(self._open_ctx(), obj)
        except TransactionAborted:
            self._finish_aborted()
            raise

    def write(self, obj: Obj, value: Value) -> None:
        """Write ``value`` to ``obj`` in the open transaction.

        In read-only degraded mode (``on_wal_failure="read_only"``
        after a WAL failure) the transaction is aborted and
        :class:`ServiceReadOnly` raised — updates cannot be made
        durable, so they are refused before touching the engine.
        """
        if self.service.read_only:
            self._refuse_read_only()
        try:
            self.service.engine.write(self._open_ctx(), obj, value)
        except TransactionAborted:
            # Pessimistic engines abort at the operation (no-wait 2PL).
            self._finish_aborted()
            raise

    def _refuse_read_only(self) -> None:
        """Abort the open transaction and raise
        :class:`ServiceReadOnly` (chained to the WAL's root failure)."""
        ctx = self._open_ctx()
        self.service.engine.abort(ctx, "service is read-only")
        # An administrative refusal, not a conflict: it must not feed
        # the abort-rate gauge (the WAL-failure floor already keeps the
        # state at degraded; refusals driving it to shedding would shut
        # off the reads the policy exists to keep serving).
        self._finish_aborted(note_health=False)
        self._reset_logical()
        self.service.metrics.record_read_only_refusal()
        raise ServiceReadOnly(self.name) from self.service.wal_error

    def commit(self) -> TxOutcome:
        """Commit.  With a monitor attached, the commit's payload is
        encoded and handed to the certifier while the engine lock is
        still held, so the certifier sees true commit order; it
        certifies off this path (see :meth:`TransactionService.drain`).
        With a write-ahead log the record, with the same payload, is
        then appended off the engine lock — under a durable fsync
        policy the call returns only once the record is on disk."""
        ctx = self._open_ctx()
        if self.service.read_only and ctx.write_buffer:
            self._refuse_read_only()
        engine = self.service.engine
        wal = self.service.wal
        payload: Optional[bytes] = None
        commit_error: Optional[BaseException] = None
        if FAULTS.armed:
            try:
                FAULTS.fire(
                    "service.commit", tid=ctx.tid, session=self.name
                )
            except FaultInjected as exc:
                # An injected validation storm: abort exactly like an
                # engine conflict so the retry discipline takes over.
                engine.abort(ctx, f"injected fault at {exc.point}")
                self._finish_aborted()
                raise TransactionAborted(
                    ctx.tid, f"injected fault at {exc.point}"
                ) from exc
        try:
            with engine.lock:
                record = engine.commit(ctx)
                if self.service.monitor is not None:
                    try:
                        payload = self._hand_off(record)
                    except Exception as exc:
                        # The hand-off must not leak the admission
                        # slot; the commit itself stands.
                        commit_error = exc
            # Durability runs off the engine lock: concurrent committers
            # deposit into the log's reorder buffer while earlier ones
            # fsync (that is the group-commit batch).
            wal_latency: Optional[float] = None
            if wal is not None and not self.service.read_only:
                append_started = time.perf_counter()
                try:
                    wal.append(record, payload)
                except Exception as exc:
                    # The in-memory commit stands; durability failed.
                    # The policy decides whether the committer sees it
                    # (fail_stop) or the service degrades (read_only).
                    if not self.service._note_wal_failure(exc):
                        commit_error = commit_error or exc
                else:
                    wal_latency = time.perf_counter() - append_started
                    self.service.metrics.record_wal_append_latency(
                        wal_latency
                    )
        except TransactionAborted:
            self._finish_aborted()
            raise
        latency = time.perf_counter() - (
            self._txn_started or time.perf_counter()
        )
        outcome = TxOutcome(record=record, attempts=self._attempts)
        self._ctx = None
        self._reset_logical()
        self.service._release()
        self.service.metrics.record_commit(latency)
        self.service.health.note_commit(wal_latency)
        if commit_error is not None:
            raise commit_error
        return outcome

    def _hand_off(self, record: CommitRecord) -> Optional[bytes]:
        """Encode ``record`` and hand it to the certifier (the caller
        holds the engine lock).  Returns the payload for the log, or
        None when the record does not encode — the certifier is then
        poisoned, and the log, encoding it again, poisons itself."""
        if FAULTS.armed:
            FAULTS.fire("monitor.observe", tid=record.tid)
        try:
            payload = commit_record_to_payload(record)
        except (TypeError, ValueError) as exc:
            self.service.monitor.poison(exc)
            return None
        self.service.monitor.observe_commit(payload)
        return payload

    def abort(self, reason: str = "client abort") -> None:
        """Deliberately abort the open transaction (no retry implied)."""
        self.service.engine.abort(self._open_ctx(), reason)
        self._finish_aborted()
        self._reset_logical()

    # ------------------------------------------------------------------
    # The retry discipline
    # ------------------------------------------------------------------

    def run(
        self,
        program: TxProgram,
        max_retries: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> TxOutcome:
        """Execute ``program`` (a generator of Read/Write ops) as one
        transaction, resubmitting on abort with exponential backoff.

        Args:
            program: the transaction program.
            max_retries: override the service's retry cap.
            deadline: wall-clock budget in seconds for the whole
                logical transaction (admission waits, every attempt,
                every backoff sleep).  Defaults to the service's
                ``default_deadline``.  Backoff never sleeps past the
                deadline.

        Raises:
            RetryExhausted: after ``max_retries`` resubmissions (the
                transaction is left aborted); carries the last abort
                reason and the per-attempt latencies.
            DeadlineExceeded: when the deadline elapses first.
            ServiceOverloaded: when the admission circuit breaker is
                shedding (the transaction was never admitted).
            ServiceReadOnly: when the service degraded to read-only
                and the program writes.
        """
        cap = self.service.max_retries if max_retries is None else max_retries
        budget = (
            deadline
            if deadline is not None
            else self.service.default_deadline
        )
        self._deadline_anchor = time.perf_counter()
        self._deadline_ts = (
            self._deadline_anchor + budget if budget is not None else None
        )
        try:
            while True:
                try:
                    return self._attempt(program)
                except TransactionAborted as exc:
                    now = time.perf_counter()
                    if (
                        self._deadline_ts is not None
                        and now >= self._deadline_ts
                    ):
                        attempts = self._attempts
                        latencies = list(self._attempt_latencies)
                        elapsed = now - self._deadline_anchor
                        self._reset_logical()
                        self.service.metrics.record_deadline_exceeded()
                        raise DeadlineExceeded(
                            self.name,
                            attempts,
                            elapsed,
                            exc.reason,
                            latencies,
                        ) from exc
                    if self._attempts > cap:
                        attempts = self._attempts
                        latencies = list(self._attempt_latencies)
                        self._reset_logical()
                        self.service.metrics.record_retry_exhausted()
                        raise RetryExhausted(
                            self.name, attempts, exc.reason, latencies
                        ) from exc
                    self.service.metrics.record_retry()
                    self._backoff(self._attempts)
                except (ServiceOverloaded, ServiceReadOnly):
                    # Never admitted / refused: the logical transaction
                    # is over (readonly refusal already reset).
                    self._reset_logical()
                    raise
        finally:
            self._deadline_ts = None
            self._deadline_anchor = None

    def _attempt(self, program: TxProgram) -> TxOutcome:
        """One attempt: begin, drive the generator, commit."""
        self.begin()
        gen = program()
        to_send: Optional[Value] = None
        try:
            while True:
                try:
                    op = gen.send(to_send)
                except StopIteration:
                    break
                if isinstance(op, ReadOp):
                    to_send = self.read(op.obj)
                elif isinstance(op, WriteOp):
                    self.write(op.obj, op.value)
                    to_send = None
                else:
                    raise StoreError(
                        f"program in session {self.name!r} yielded "
                        f"{op!r}; expected ReadOp or WriteOp"
                    )
        except TransactionAborted:
            raise
        except BaseException:
            # Program bug or client cancellation: abort, do not retry.
            if self._ctx is not None:
                self.abort("program error")
            raise
        return self.commit()

    def _backoff(self, attempts: int) -> None:
        base = self.service.backoff_base
        if base <= 0:
            return
        delay = min(self.service.backoff_cap, base * 2 ** (attempts - 1))
        delay *= 0.5 + self._rng.random() / 2
        if self._deadline_ts is not None:
            # Never sleep past the caller's deadline: the very next
            # attempt (or the deadline check in run()) should happen
            # the moment the budget runs out, not a backoff later.
            delay = min(
                delay, max(0.0, self._deadline_ts - time.perf_counter())
            )
        if delay > 0:
            time.sleep(delay)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _open_ctx(self) -> TxContext:
        if self._ctx is None:
            raise StoreError(
                f"session {self.name!r} has no open transaction"
            )
        return self._ctx

    def _finish_aborted(self, note_health: bool = True) -> None:
        """Release the slot after an abort; the logical transaction's
        attempt count and start time survive for the retry.
        ``note_health=False`` keeps administrative refusals out of the
        health tracker's abort-rate gauge."""
        if self._attempt_started is not None:
            self._attempt_latencies.append(
                time.perf_counter() - self._attempt_started
            )
            self._attempt_started = None
        self._ctx = None
        self.service._release()
        self.service.metrics.record_abort()
        if note_health:
            self.service.health.note_attempt(aborted=True)

    def _reset_logical(self) -> None:
        """Forget the logical transaction (called when it ends for any
        reason: commit, give-up, refusal)."""
        self._txn_started = None
        self._attempts = 0
        self._attempt_started = None
        self._attempt_latencies = []
