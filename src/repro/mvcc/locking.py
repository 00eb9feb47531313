"""A lock-based serializable engine: strict two-phase locking, no-wait.

The OCC baseline (:class:`~repro.mvcc.serializable.SerializableEngine`)
detects conflicts at commit time; this engine is the classical pessimistic
alternative the databases of the paper's era actually ran for
serializability:

* a transaction acquires a shared lock before reading and an exclusive
  lock before writing (upgrading held shared locks);
* locks are held to commit/abort (strictness), guaranteeing conflict
  serializability in lock-acquisition order;
* lock conflicts follow the **no-wait** policy: a transaction that would
  block aborts immediately (clients retry per §5's discipline).  No-wait
  avoids deadlock entirely — convenient in our cooperative single-thread
  scheduler, where a blocked generator would stall the whole run.

Writes go through the same multi-version store as the other engines (so
histories/executions are reconstructed identically); reads return the
latest committed version, which under S2PL is also the version at the
reader's serialisation point.

Concurrency: the lock table holds no lock of its own — the engine
calls it only under its commit mutex, so acquiring a lock, releasing a
transaction's locks and committing are each one atomic step.  A read
then takes the store's lock-free ``latest`` outside the mutex: the held
S-lock excludes any concurrent writer of that object from committing,
so the newest version cannot change under it.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Set

from ..core.events import Obj, Value
from .engine import BaseEngine, CommitRecord, TxContext
from .store import MVStore


class LockMode(enum.Enum):
    """Lock modes of the classic shared/exclusive table."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockTable:
    """A per-object S/X lock table with no-wait conflict resolution.

    Not thread-safe by itself: callers serialise every call (the 2PL
    engine makes them under its commit mutex).
    """

    def __init__(self):
        self._shared: Dict[Obj, Set[str]] = {}
        self._exclusive: Dict[Obj, str] = {}

    def holders(self, obj: Obj) -> Set[str]:
        """All transactions holding any lock on ``obj``."""
        out = set(self._shared.get(obj, set()))
        if obj in self._exclusive:
            out.add(self._exclusive[obj])
        return out

    def acquire(self, tid: str, obj: Obj, mode: LockMode) -> bool:
        """Try to take (or upgrade to) the lock; False on conflict."""
        exclusive = self._exclusive.get(obj)
        if exclusive is not None and exclusive != tid:
            return False
        if mode is LockMode.SHARED:
            if exclusive == tid:
                return True  # X subsumes S
            self._shared.setdefault(obj, set()).add(tid)
        else:
            if self._shared.get(obj, set()) - {tid}:
                return False
            self._shared.pop(obj, None)  # an upgrade drops tid's S lock
            self._exclusive[obj] = tid
        return True

    def release_all(self, tid: str) -> None:
        """Drop every lock held by ``tid`` (commit/abort).  An object
        nobody holds leaves the table, so it keeps only locked ones."""
        for obj in [o for o, h in self._shared.items() if tid in h]:
            holders = self._shared[obj]
            holders.discard(tid)
            if not holders:
                del self._shared[obj]
        for obj in [o for o, t in self._exclusive.items() if t == tid]:
            del self._exclusive[obj]


class TwoPhaseLockingEngine(BaseEngine):
    """Strict 2PL with no-wait conflict handling — always serializable."""

    def __init__(
        self, initial: Mapping[Obj, Value], init_tid: str = "t_init"
    ):
        super().__init__(initial, init_tid)
        self.store = MVStore(self.initial, init_writer=init_tid)
        self.locks = LockTable()
        self._clock = 0

    def _make_context(self, session: str, tid: str) -> TxContext:
        # start_ts records begin time for bookkeeping; reads do not use
        # it (S2PL reads current committed state under lock).
        return TxContext(tid=tid, session=session, start_ts=self._clock)

    def read(self, ctx: TxContext, obj: Obj) -> Value:
        """Acquire a shared lock, then read the latest committed value
        (own buffered writes first).  The S-lock pins the version: no
        writer of ``obj`` can commit while it is held, so the lock-free
        ``latest`` is stable."""
        ctx.ensure_active()
        if obj in ctx.write_buffer:
            return self._record_read(ctx, obj, ctx.write_buffer[obj])
        self._lock(ctx, obj, LockMode.SHARED)
        version = self.store.latest(obj)
        return self._record_read(ctx, obj, version.value, version.commit_ts)

    def write(self, ctx: TxContext, obj: Obj, value: Value) -> None:
        """Acquire an exclusive lock, then buffer the write."""
        ctx.ensure_active()
        self._lock(ctx, obj, LockMode.EXCLUSIVE)
        super().write(ctx, obj, value)

    def commit(self, ctx: TxContext) -> CommitRecord:
        """Install the writes and release all locks (strictness)."""
        with self.lock:
            ctx.ensure_active()
            self._clock += 1
            commit_ts = self._clock
            if ctx.write_buffer:
                self.store.install(ctx.write_buffer, commit_ts, ctx.tid)
            record = CommitRecord(
                tid=ctx.tid,
                session=ctx.session,
                commit_ts=commit_ts,
                events=tuple(ctx.events),
                # Under strict 2PL a committed transaction logically
                # observed everything that committed before it.
                snapshot=commit_ts - 1,
                sources=tuple(ctx.sources),
            )
            self._finish_commit(ctx, record)
            return record

    def _release(self, ctx: TxContext) -> None:
        """Release every held lock (strictness: at commit or abort)."""
        self.locks.release_all(ctx.tid)

    def _replay_install(self, record: CommitRecord) -> None:
        """Install a replayed commit at its original timestamp (no locks
        to acquire — the original run already serialised it)."""
        writes = record.writes
        if writes:
            self.store.install(writes, record.commit_ts, record.tid)
        self._clock = record.commit_ts

    def _lock(self, ctx: TxContext, obj: Obj, mode: LockMode) -> None:
        """Take ``mode`` on ``obj`` for ``ctx``, or abort it (no-wait)."""
        with self.lock:
            if self.locks.acquire(ctx.tid, obj, mode):
                return
            holders = sorted(self.locks.holders(obj) - {ctx.tid})
            raise self._validation_failure(
                ctx,
                f"no-wait 2PL: {mode.value} lock on {obj!r} "
                f"blocked by {holders}",
            )
