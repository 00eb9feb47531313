"""Engine plumbing shared by the SI / serializable / PSI implementations.

An *engine* executes transactions operationally and records everything
needed to reconstruct the declarative objects of the theory:

* the client-visible :class:`~repro.core.histories.History` (committed
  transactions grouped into sessions, initialisation included);
* an :class:`~repro.core.executions.AbstractExecution` whose VIS/CO
  reflect what the implementation actually did (which snapshot each
  transaction took, in which order transactions committed).

The engines are single-process and deterministic under caller-decided
interleaving (directly or through :mod:`repro.mvcc.runtime`'s
scheduler), so anomaly runs are replayable.

Thread-safety.  One lock guards an engine's mutable state: the
reentrant **commit mutex** :attr:`BaseEngine.lock`.  ``begin`` (tid
allocation, the session registry, the snapshot and whatever a subclass
registers for it), commit (validate + install + timestamp allocation),
``abort`` (releasing what ``begin`` registered), replay and vacuum each
run as one step under it, as the paper's idealised algorithm (§1) has
begin and commit as two atomic steps.  Snapshot reads take **no lock**:
a snapshot timestamp plus the store's append-only version chains are
enough (SI never blocks readers, and neither do we).  Only the history
reconstruction cache has a lock of its own, so converting a long
history never stalls commits.  The deterministic replayable scheduler
is single-threaded, so the mutex never contends there.

Holding :attr:`BaseEngine.lock` across several calls makes the whole
group atomic with respect to commits and begins (the service layer
uses this to feed an online monitor in true commit order).  The single
remaining caller obligation is per-session: a session's transactions
must be issued sequentially (the engines check this), so give each
thread its own session.

Transactions follow the client discipline of Section 5: an aborted
transaction raises :class:`TransactionAborted` and is expected to be
resubmitted by the client until it commits (the scheduler does this
automatically).
"""

from __future__ import annotations

import abc
import bisect
import enum
import re
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.errors import StoreError, TransactionAborted
from ..core.events import (
    Obj, Op, OpKind, Value, read as read_op, write as write_op,
)
from ..core.executions import AbstractExecution
from ..core.histories import History
from ..core.relations import Relation
from ..core.transactions import Transaction, final_writes, transaction
from .store import shared_initial

class TxStatus(enum.Enum):
    """Lifecycle of an engine transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TxContext:
    """The mutable state of one running transaction.

    Attributes:
        tid: engine-assigned transaction id.
        session: the session the transaction belongs to.
        start_ts: snapshot timestamp (SI/SER engines) or -1 (PSI).
        write_buffer: uncommitted writes (read-your-writes source).
        events: the operations performed, in program order, with the
            values actually read — the future transaction's event list.
        sources: the future :attr:`CommitRecord.sources`.
        status: lifecycle state.
    """

    tid: str
    session: str
    start_ts: int
    write_buffer: Dict[Obj, Value] = field(default_factory=dict)
    events: List[Op] = field(default_factory=list)
    sources: List[int] = field(default_factory=list)
    status: TxStatus = TxStatus.ACTIVE

    def ensure_active(self) -> None:
        """Raise :class:`StoreError` unless the transaction is active."""
        if self.status is not TxStatus.ACTIVE:
            raise StoreError(
                f"transaction {self.tid} is {self.status.value}, not active"
            )


class CommitRecord:
    """What the engine remembers about a committed transaction.

    The snapshot is recorded as a constant-size *descriptor*, not as
    the set of transactions it includes: the commit sees every commit
    with ``commit_ts <= snapshot`` (a prefix of the commit order, as
    the PREFIX axiom has it) plus the commits named in ``extra``, which
    all committed above that frontier.  SI, SER and 2PL snapshots are
    prefixes, so their ``extra`` is empty; only a PSI replica that has
    applied commits out of commit order fills it.  The initialisation
    transaction is implicitly in every snapshot.

    ``events`` is the one record of what the transaction did: its
    writes are derived from it, not stored beside it.

    Immutable by contract, not enforced: records are hashed, logged and
    shared between an engine, its log and its monitor, so nothing
    assigns to a field after construction.  It is a plain slotted class
    rather than a frozen dataclass because one is built for every
    commit and every decoded log frame; equality, hashing and ``repr``
    are the dataclass ones over the seven fields below.

    Attributes:
        tid, session, commit_ts, events: who committed what, when.
        snapshot: the snapshot frontier: every commit at or below it is
            visible.
        extra: tids of the commits above the frontier that are also
            visible.
        sources: for each of :func:`store_reads`, the ``commit_ts`` of
            the version it returned (0 for an initial version).
    """

    __slots__ = ("tid", "session", "commit_ts", "events", "snapshot",
                 "extra", "sources", "_writes")

    tid: str
    session: str
    commit_ts: int
    events: Tuple[Op, ...]
    snapshot: int
    extra: frozenset
    sources: Tuple[int, ...]

    def __init__(
        self,
        tid: str,
        session: str,
        commit_ts: int,
        events: Tuple[Op, ...],
        snapshot: int,
        extra: frozenset = frozenset(),
        sources: Tuple[int, ...] = (),
    ):
        self.tid = tid
        self.session = session
        self.commit_ts = commit_ts
        self.events = events
        self.snapshot = snapshot
        self.extra = extra
        self.sources = sources
        self._writes = None

    @property
    def writes(self) -> Dict[Obj, Value]:
        """The final value written to each object (``T ⊢ write(x, n)``),
        derived from ``events`` on the first read and kept in a slot.
        Not a field: it is outside equality, hashing and ``repr``."""
        writes = self._writes
        if writes is None:
            writes = self._writes = final_writes(self.events)
        return writes

    def _fields(self) -> tuple:
        return (self.tid, self.session, self.commit_ts, self.events,
                self.snapshot, self.extra, self.sources)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(tid={self.tid!r}, "
            f"session={self.session!r}, commit_ts={self.commit_ts!r}, "
            f"events={self.events!r}, snapshot={self.snapshot!r}, "
            f"extra={self.extra!r}, sources={self.sources!r})"
        )


_WRITE = OpKind.WRITE


def store_reads(events: Iterable[Op]) -> List[Op]:
    """The reads of ``events`` served from the store, not the write
    buffer: those of an object not written before them."""
    written: Set[Obj] = set()
    served = []
    for op in events:
        if op.kind is _WRITE:
            written.add(op.obj)
        elif op.obj not in written:
            served.append(op)
    return served


@dataclass
class EngineStats:
    """Commit/abort counters, including abort reasons."""

    commits: int = 0
    aborts: int = 0
    abort_reasons: Dict[str, int] = field(default_factory=dict)

    def record_abort(self, reason: str) -> None:
        """Count one abort with its reason key."""
        self.aborts += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1


class BaseEngine(abc.ABC):
    """Common API of the operational engines.

    Subclasses implement :meth:`_make_context`, :meth:`read` and
    :meth:`commit`; writes and aborts are shared.  Sessions are
    identified by strings; within a session the caller must run
    transactions sequentially (the engines check this).

    Args:
        initial: initial object values (shared, not copied, when
            already a read-only view — see
            :func:`~repro.mvcc.store.shared_initial`).
        init_tid: tid of the implied initialisation transaction.
    """

    def __init__(
        self, initial: Mapping[Obj, Value], init_tid: str = "t_init"
    ):
        if not initial:
            raise StoreError("engine needs at least one initial object")
        self.initial: Mapping[Obj, Value] = shared_initial(initial)
        """The initial values, read-only; the engine's store, monitor
        and log share this one mapping."""
        self.init_tid = init_tid
        self.stats = EngineStats()
        self.committed: List[CommitRecord] = []
        self.lock = threading.RLock()
        """The commit mutex, the one lock over the engine's state:
        begin, commit, abort, replay and vacuum run under it, so
        commits are totally ordered and a snapshot is taken atomically
        with its registration.  Callers may hold it across several
        calls to group them into one atomic action (e.g. commit +
        monitor notification)."""
        self._next_tid = 1
        self._open_sessions: Set[str] = set()
        # Reconstruction cache: committed[i] converted to a Transaction,
        # filled lazily by history()/abstract_execution().  `committed`
        # is append-only, so a converted prefix never invalidates.
        self._reconstruction_lock = threading.Lock()
        self._converted: List[Transaction] = []

    # ------------------------------------------------------------------
    # Transaction API
    # ------------------------------------------------------------------

    def begin(self, session: str) -> TxContext:
        """Start a transaction in ``session`` (one at a time per
        session): allocate its tid and take its snapshot, as one step
        under the commit mutex."""
        with self.lock:
            if session in self._open_sessions:
                raise StoreError(
                    f"session {session!r} already has an active transaction"
                )
            tid = f"t{self._next_tid}"
            self._next_tid += 1
            ctx = self._make_context(session, tid)
            self._open_sessions.add(session)
            return ctx

    @abc.abstractmethod
    def _make_context(self, session: str, tid: str) -> TxContext:
        """Create the context: take the snapshot and register whatever
        :meth:`_release` drops (caller holds the commit mutex)."""

    def _release(self, ctx: TxContext) -> None:
        """Drop what :meth:`_make_context` registered for ``ctx``, on
        commit or abort (caller holds the commit mutex)."""

    @abc.abstractmethod
    def read(self, ctx: TxContext, obj: Obj) -> Value:
        """Read ``obj``: own writes first, then the snapshot."""

    def write(self, ctx: TxContext, obj: Obj, value: Value) -> None:
        """Buffer a write of ``value`` to ``obj``."""
        ctx.ensure_active()
        if obj not in self.initial:
            raise StoreError(f"unknown object {obj!r}")
        ctx.write_buffer[obj] = value
        ctx.events.append(write_op(obj, value))

    @abc.abstractmethod
    def commit(self, ctx: TxContext) -> CommitRecord:
        """Validate and commit; raise :class:`TransactionAborted` on
        conflict (the transaction is then aborted and must be retried as
        a fresh transaction)."""

    def abort(self, ctx: TxContext, reason: str = "client abort") -> None:
        """Abort an active transaction (also used internally on
        validation failure)."""
        with self.lock:
            ctx.ensure_active()
            ctx.status = TxStatus.ABORTED
            self._open_sessions.discard(ctx.session)
            self._release(ctx)
            self.stats.record_abort(reason)

    def _finish_commit(self, ctx: TxContext, record: CommitRecord) -> None:
        """Publish a validated commit (caller holds the commit mutex)."""
        ctx.status = TxStatus.COMMITTED
        self.committed.append(record)
        self.stats.commits += 1
        self._open_sessions.discard(ctx.session)
        self._release(ctx)

    def _validation_failure(
        self, ctx: TxContext, reason: str
    ) -> TransactionAborted:
        """Abort ``ctx`` and build the exception to raise."""
        self.abort(ctx, reason)
        return TransactionAborted(ctx.tid, reason)

    def _record_read(self, ctx: TxContext, obj: Obj, value: Value,
                     source: Optional[int] = None) -> Value:
        """Record a read: of the write buffer, or of the store's version
        committed at ``source`` (0 for an initial version)."""
        ctx.events.append(read_op(obj, value))
        if source is not None:
            ctx.sources.append(source)
        return value

    # ------------------------------------------------------------------
    # Replay (crash recovery)
    # ------------------------------------------------------------------

    _TID_PATTERN = re.compile(r"^t(\d+)$")

    def replay_commit(self, record: CommitRecord) -> None:
        """Install an already-validated commit from a durable log.

        Used by :mod:`repro.wal.recovery`: the record won its validation
        race in the original run, so no conflict check is re-run — the
        writes are installed, the commit log and counters are updated,
        and tid allocation is advanced past the replayed tid so the
        recovered engine can keep serving fresh transactions.  The
        stored record object itself is appended, making the recovered
        ``committed`` list bit-identical to the producer's prefix.

        Raises:
            StoreError: when transactions are in flight (replay requires
                a quiescent engine) or the record's commit timestamp
                does not extend the commit order.
        """
        with self.lock:
            if self._open_sessions:
                raise StoreError(
                    f"cannot replay into an engine with active "
                    f"transactions: {sorted(self._open_sessions)}"
                )
            if self.committed and record.commit_ts <= self.committed[-1].commit_ts:
                raise StoreError(
                    f"replayed commit #{record.commit_ts} ({record.tid}) "
                    f"does not extend the commit order (last is "
                    f"#{self.committed[-1].commit_ts})"
                )
            self._replay_install(record)
            self.committed.append(record)
            self.stats.commits += 1
            match = self._TID_PATTERN.match(record.tid)
            if match:
                self._next_tid = max(self._next_tid, int(match.group(1)) + 1)

    @abc.abstractmethod
    def _replay_install(self, record: CommitRecord) -> None:
        """Apply a replayed commit's writes to the engine's store and
        advance its clock (caller holds the commit mutex; no validation,
        no session bookkeeping)."""

    # ------------------------------------------------------------------
    # Reconstruction of declarative objects
    # ------------------------------------------------------------------

    def initialisation(self) -> Transaction:
        """The initialisation transaction implied by the initial state."""
        ops = [write_op(obj, self.initial[obj]) for obj in sorted(self.initial)]
        return transaction(self.init_tid, *ops)

    def _committed_snapshot(self) -> List[CommitRecord]:
        """A stable prefix of the commit log (under the commit mutex)."""
        with self.lock:
            return list(self.committed)

    def _transactions_for(
        self, committed: List[CommitRecord]
    ) -> List[Transaction]:
        """Committed records as Transactions, via the incremental cache.

        Only records beyond the cached prefix are converted; repeated
        reconstruction calls during a run never re-convert old records.
        Runs outside the commit mutex (conversion can be expensive), so
        it never blocks the transaction hot path.
        """
        with self._reconstruction_lock:
            while len(self._converted) < len(committed):
                rec = committed[len(self._converted)]
                self._converted.append(transaction(rec.tid, *rec.events))
            return self._converted[: len(committed)]

    def history(self) -> History:
        """The history of committed transactions, initialisation first.

        Sessions appear in first-commit order; within a session,
        transactions appear in execution order.  Only the commit-log
        snapshot happens under the engine lock; all Transaction
        construction runs outside it (and is cached across calls).
        """
        committed = self._committed_snapshot()
        return self._history_from(committed)

    def _history_from(self, committed: List[CommitRecord]) -> History:
        txns = self._transactions_for(committed)
        sessions: Dict[str, List[Transaction]] = {}
        order: List[str] = []
        for rec, t in zip(committed, txns):
            if rec.session not in sessions:
                sessions[rec.session] = []
                order.append(rec.session)
            sessions[rec.session].append(t)
        all_sessions = [(self.initialisation(),)] + [
            tuple(sessions[s]) for s in order
        ]
        return History(tuple(all_sessions))

    def abstract_execution(self) -> AbstractExecution:
        """The abstract execution realised by this run.

        VIS edges are the recorded snapshots (plus the initialisation
        transaction, visible to everyone); CO follows the engine's
        commit timestamps.  This is the one place a snapshot descriptor
        is expanded into a set: a record sees the commit-ordered prefix
        up to its frontier plus its ``extra`` tids.  Built from one
        consistent commit-log snapshot, with all Relation construction
        outside the engine lock.
        """
        committed = self._committed_snapshot()
        h = self._history_from(committed)
        records = sorted(committed, key=lambda r: r.commit_ts)
        by_tid = {t.tid: t for t in h.transactions}
        init = by_tid[self.init_tid]
        stamps = [r.commit_ts for r in records]
        ordered = [by_tid[r.tid] for r in records]
        vis: Set[Tuple[Transaction, Transaction]] = set()
        for i, rec in enumerate(records):
            s = ordered[i]
            vis.add((init, s))
            prefix = bisect.bisect_right(stamps, rec.snapshot, 0, i)
            vis.update((t, s) for t in ordered[:prefix])
            for tid in rec.extra:
                if tid in by_tid:
                    vis.add((by_tid[tid], s))
        co = Relation.total_order([init] + ordered)
        return AbstractExecution(h, Relation(vis, h.transactions), co)
