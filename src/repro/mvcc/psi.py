"""A replicated parallel-SI engine (Definition 20; Sovran et al. [31]).

Parallel SI weakens SI by dropping PREFIX while keeping visibility
transitive (TRANSVIS): transactions on different replicas may observe two
independent writes in different orders — the *long fork* of Figure 2(c).

The engine models a geo-replicated store:

* each session is pinned to a replica (by default its own); a transaction
  reads a snapshot of its replica's *current local state* at start;
* commit performs global write-conflict detection (NOCONFLICT: every
  committed writer of an object I wrote must be in my snapshot), applies
  the writes at the local replica immediately, and queues asynchronous
  deliveries to the other replicas;
* deliveries are causal: a transaction can be applied at a remote replica
  only after everything visible to it has been applied there
  (:meth:`PSIEngine.deliver` enforces the precondition), which yields
  transitive visibility.

Delivery timing is under caller control (:meth:`deliver`,
:meth:`deliver_all`, or ``auto_deliver=True`` for SI-like eager
propagation), so long forks are reproducible deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.errors import ScheduleError
from ..core.events import Obj, Value
from .engine import BaseEngine, CommitRecord, TxContext
from .store import MVStore


@dataclass
class Replica:
    """One replica: its object versions and which commits it has
    applied (the initialisation writes are implicit).

    The replica's state is a multi-version :attr:`store` over the
    engine's shared initial values, versioned by the replica's own
    apply counter :attr:`clock`: the ``n``-th commit applied here is
    installed at timestamp ``n``.  A snapshot is therefore just a
    clock value, and taking one copies nothing.

    Applied commits are kept as a snapshot descriptor (see
    :class:`~repro.mvcc.engine.CommitRecord`): every commit with
    ``commit_ts <= frontier`` is applied, and ``ahead`` maps the commit
    timestamp of each commit applied above the frontier to its tid.
    The frontier advances as the gaps below those commits fill.
    """

    name: str
    store: MVStore
    """The replica's versions, stamped with :attr:`clock`."""
    frontier: int = 0
    ahead: Dict[int, str] = field(default_factory=dict)
    clock: int = 0
    """How many commits this replica has applied."""

    @property
    def state(self) -> Dict[Obj, Value]:
        """The replica's current object state (a copy; O(keyspace))."""
        return self.store.snapshot_at(self.clock)

    def apply(self, record: CommitRecord) -> None:
        """Install ``record``'s writes as this replica's next version
        and mark it applied."""
        self.clock += 1
        if record.writes:
            self.store.install(record.writes, self.clock, record.tid)
        self.mark_applied(record.commit_ts, record.tid)

    def mark_applied(self, commit_ts: int, tid: str) -> None:
        """Record that the commit ``tid`` at ``commit_ts`` is applied."""
        self.ahead[commit_ts] = tid
        while self.frontier + 1 in self.ahead:
            self.frontier += 1
            del self.ahead[self.frontier]

    def has_applied(self, commit_ts: int) -> bool:
        """Whether the commit at ``commit_ts`` is applied here."""
        return commit_ts <= self.frontier or commit_ts in self.ahead


class PSIEngine(BaseEngine):
    """Replicated parallel snapshot isolation with causal, asynchronous
    propagation and global write-conflict detection."""

    def __init__(
        self,
        initial: Mapping[Obj, Value],
        init_tid: str = "t_init",
        session_replicas: Optional[Mapping[str, str]] = None,
        auto_deliver: bool = False,
    ):
        """
        Args:
            initial: the initial object values (replicated everywhere).
            init_tid: id of the initialisation transaction.
            session_replicas: optional session → replica-name pinning;
                sessions not mentioned get a dedicated replica
                ``r_<session>``.
            auto_deliver: when True, every commit is propagated to all
                replicas immediately (useful as an "SI-like" reference
                configuration in benchmarks).

        Replica state, the delivery queue and the snapshots serialise
        under the commit mutex, as every engine's state does; the
        *reads* are nevertheless lock-free — a snapshot is the
        replica's store and its apply counter at begin, and applies
        only ever add versions above that counter.
        """
        super().__init__(initial, init_tid)
        self._session_replicas: Dict[str, str] = dict(session_replicas or {})
        self._replicas: Dict[str, Replica] = {}
        self._commit_index = 0
        # tid -> (replica, its clock, frontier, extra) at begin.
        self._snapshots: Dict[
            str, Tuple[Replica, int, int, frozenset]
        ] = {}
        self._writers_per_obj: Dict[Obj, List[CommitRecord]] = {}
        self._records_by_tid: Dict[str, CommitRecord] = {}
        self._pending: Set[Tuple[str, str]] = set()  # (tid, replica name)
        self.auto_deliver = auto_deliver

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------

    def replica_of(self, session: str) -> Replica:
        """The replica serving ``session`` (created on first use)."""
        with self.lock:
            name = self._session_replicas.get(session, f"r_{session}")
            self._session_replicas[session] = name
            if name not in self._replicas:
                self._replicas[name] = Replica(
                    name, MVStore(self.initial, init_writer=self.init_tid)
                )
                # A replica created after some commits must still receive
                # them: backfill its delivery queue.
                for tid in self._records_by_tid:
                    self._pending.add((tid, name))
                if self.auto_deliver:
                    self.deliver_all()
            return self._replicas[name]

    @property
    def replicas(self) -> Dict[str, Replica]:
        """All replicas by name."""
        return dict(self._replicas)

    # ------------------------------------------------------------------
    # BaseEngine hooks
    # ------------------------------------------------------------------

    def _make_context(self, session: str, tid: str) -> TxContext:
        replica = self.replica_of(session)
        self._snapshots[tid] = (
            replica,
            replica.clock,
            replica.frontier,
            frozenset(replica.ahead.values()),
        )
        return TxContext(tid=tid, session=session, start_ts=-1)

    def _release(self, ctx: TxContext) -> None:
        """Discard the replica snapshot."""
        self._snapshots.pop(ctx.tid, None)

    def read(self, ctx: TxContext, obj: Obj) -> Value:
        """Read from the write buffer, else from the replica snapshot
        (lock-free: one bisect at the replica clock taken at begin).
        The source is the global ``commit_ts`` of the version's writer:
        the replica stamps versions with its own apply counter."""
        ctx.ensure_active()
        if obj in ctx.write_buffer:
            return self._record_read(ctx, obj, ctx.write_buffer[obj])
        replica, clock = self._snapshots[ctx.tid][:2]
        version = replica.store.read_at(obj, clock)
        source = 0
        if version.commit_ts:
            source = self._records_by_tid[version.writer].commit_ts
        return self._record_read(ctx, obj, version.value, source)

    def commit(self, ctx: TxContext) -> CommitRecord:
        """Global NOCONFLICT validation, local apply, queue propagation."""
        with self.lock:
            return self._commit_locked(ctx)

    def _commit_locked(self, ctx: TxContext) -> CommitRecord:
        ctx.ensure_active()
        _, _, frontier, extra = self._snapshots[ctx.tid]
        for obj in sorted(ctx.write_buffer):
            # Writers are in commit order: those at or below the
            # frontier are all in the snapshot, so only the newer tail
            # needs checking against ``extra``.
            for writer in reversed(self._writers_per_obj.get(obj, ())):
                if writer.commit_ts <= frontier:
                    break
                if writer.tid not in extra:
                    raise self._validation_failure(
                        ctx,
                        f"write-write conflict on {obj!r}: concurrent "
                        f"committed writer {writer.tid}",
                    )
        self._commit_index += 1
        record = CommitRecord(
            tid=ctx.tid,
            session=ctx.session,
            commit_ts=self._commit_index,
            events=tuple(ctx.events),
            snapshot=frontier,
            extra=extra,
            sources=tuple(ctx.sources),
        )
        self._records_by_tid[ctx.tid] = record
        for obj in ctx.write_buffer:
            self._writers_per_obj.setdefault(obj, []).append(record)
        # Apply locally, queue remote deliveries.
        local = self.replica_of(ctx.session)
        local.apply(record)
        for name in self._replicas:
            if name != local.name:
                self._pending.add((ctx.tid, name))
        self._finish_commit(ctx, record)
        if self.auto_deliver:
            self.deliver_all()
        return record

    def vacuum(self) -> int:
        """Discard superseded versions at every replica; returns how
        many were dropped.

        A replica's horizon is the oldest clock an active transaction
        on it snapshotted, else its current clock, so no running
        transaction loses a version it may still read.  Horizons and
        trimming run under the commit mutex together.
        """
        with self.lock:
            horizons = {
                name: replica.clock
                for name, replica in self._replicas.items()
            }
            for replica, clock, _, _ in self._snapshots.values():
                horizons[replica.name] = min(horizons[replica.name], clock)
            return sum(
                replica.store.vacuum(horizons[name])
                for name, replica in self._replicas.items()
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay_install(self, record: CommitRecord) -> None:
        """Re-register a replayed commit and apply it at every existing
        replica.  A recovered log represents fully durable state, so
        replay treats each commit as fully propagated (replicas created
        later are backfilled by :meth:`replica_of` as usual)."""
        self._commit_index = record.commit_ts
        self._records_by_tid[record.tid] = record
        for obj in record.writes:
            self._writers_per_obj.setdefault(obj, []).append(record)
        for replica in self._replicas.values():
            replica.apply(record)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def deliverable(self, tid: str, replica_name: str) -> bool:
        """Whether ``tid`` can be applied at the replica now — everything
        it observed must already be applied there (causal delivery):
        its frontier is at or below the replica's, and each of its
        ``extra`` commits is applied there."""
        if (tid, replica_name) not in self._pending:
            return False
        known = self._records_by_tid
        record = known[tid]
        replica = self._replicas[replica_name]
        return record.snapshot <= replica.frontier and all(
            seen in known and replica.has_applied(known[seen].commit_ts)
            for seen in record.extra
        )

    def deliver(self, tid: str, replica_name: str) -> None:
        """Apply a committed transaction at a remote replica.

        Raises:
            ScheduleError: if the delivery is not pending or would violate
                causality.
        """
        with self.lock:
            if (tid, replica_name) not in self._pending:
                raise ScheduleError(
                    f"no pending delivery of {tid} to {replica_name}"
                )
            if not self.deliverable(tid, replica_name):
                raise ScheduleError(
                    f"delivery of {tid} to {replica_name} violates causality"
                )
            self._replicas[replica_name].apply(self._records_by_tid[tid])
            self._pending.discard((tid, replica_name))

    def pending_deliveries(self) -> List[Tuple[str, str]]:
        """Pending (tid, replica) deliveries, deterministic order."""
        with self.lock:
            return sorted(self._pending)

    def deliverable_deliveries(self) -> List[Tuple[str, str]]:
        """Pending deliveries whose causal preconditions are met."""
        return [
            (tid, name)
            for tid, name in self.pending_deliveries()
            if self.deliverable(tid, name)
        ]

    def deliver_all(self) -> int:
        """Drain the delivery queue (respecting causality); returns the
        number of deliveries performed.

        One pass in commit-timestamp order reaches the fixpoint: a
        commit only observed commits with smaller timestamps, and each
        of those is already applied at the replica or pending there,
        hence delivered earlier in the pass whenever it can be.
        """
        with self.lock:
            count = 0
            for tid, name in sorted(
                self._pending,
                key=lambda d: (self._records_by_tid[d[0]].commit_ts, d[1]),
            ):
                if self.deliverable(tid, name):
                    self._replicas[name].apply(self._records_by_tid[tid])
                    self._pending.discard((tid, name))
                    count += 1
            return count
