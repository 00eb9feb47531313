"""The snapshot isolation engine — the paper's idealised algorithm (§1).

"A transaction T reads values of shared objects from a snapshot taken at
its start.  The transaction commits only if it passes a write-conflict
detection check: since T started, no other committed transaction has
written to any object that T also wrote to.  If the check fails, T aborts.
Once T commits, its changes become visible to all transactions that take a
snapshot afterwards."

We implement exactly that with a monotonic commit counter:

* ``begin`` takes ``start_ts`` = the current counter value — the snapshot
  contains all transactions with ``commit_ts <= start_ts``;
* ``read`` consults the write buffer first (read-your-writes), then the
  multi-version store at ``start_ts``;
* ``commit`` applies first-committer-wins: abort if any written object has
  a version newer than ``start_ts``; otherwise install all writes at a
  fresh timestamp.

Because every transaction sees *all* previously-committed transactions,
the engine provides the strong session guarantees of Definition 4 (a
session's earlier transactions are always in later snapshots) and its runs
satisfy the SI axioms — Theorem 10(ii) then guarantees the extracted
dependency graphs land in GraphSI, which the test-suite checks on every
recorded run.

Concurrency.  Reads are entirely lock-free: the start timestamp plus
the store's append-only chains pin the snapshot, so a read is one
binary search.  Everything else runs under the commit mutex: ``begin``
reads the clock and pins the snapshot against :meth:`SIEngine.vacuum`
in one step, and commit covers first-committer-wins validation, the
install and the clock bump.  The clock moves only after the install,
so every timestamp a ``begin`` reads names fully installed versions.
"""

from __future__ import annotations

from typing import Mapping

from ..core.errors import SnapshotTooOld, TransactionAborted
from ..core.events import Obj, Value
from .engine import BaseEngine, CommitRecord, TxContext
from .store import MVStore


class SIEngine(BaseEngine):
    """Single-node multi-version snapshot isolation with
    first-committer-wins write-conflict detection."""

    def __init__(
        self, initial: Mapping[Obj, Value], init_tid: str = "t_init"
    ):
        super().__init__(initial, init_tid)
        self.store = MVStore(self.initial, init_writer=init_tid)
        self._clock = 0
        self._active_start_ts: dict = {}

    # ------------------------------------------------------------------
    # BaseEngine hooks
    # ------------------------------------------------------------------

    def _make_context(self, session: str, tid: str) -> TxContext:
        # Under the commit mutex, so no vacuum runs between the clock
        # read and the pin that keeps the snapshot's versions.
        ctx = TxContext(tid=tid, session=session, start_ts=self._clock)
        self._active_start_ts[tid] = ctx.start_ts
        return ctx

    def _release(self, ctx: TxContext) -> None:
        """Release the snapshot's vacuum pin."""
        self._active_start_ts.pop(ctx.tid, None)

    def read(self, ctx: TxContext, obj: Obj) -> Value:
        """Read from the write buffer, else from the start snapshot.

        Lock-free (one bisect on the object's immutable chain).  A read
        that needs a vacuumed version aborts the transaction (snapshot
        too old); the client retries with a fresh snapshot.
        """
        ctx.ensure_active()
        if obj in ctx.write_buffer:
            return self._record_read(ctx, obj, ctx.write_buffer[obj])
        try:
            value, source = self.store.value_at(obj, ctx.start_ts)
        except SnapshotTooOld as exc:
            raise self._validation_failure(ctx, f"snapshot too old: {exc}")
        return self._record_read(ctx, obj, value, source)

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def vacuum(self, aggressive: bool = False) -> int:
        """Discard superseded versions; returns how many were dropped.

        By default the horizon is the oldest *active* snapshot, so no
        running transaction can lose a version it may still read (the
        safe policy).  With ``aggressive=True`` the horizon is the
        current clock regardless of active snapshots — long-running
        transactions may subsequently abort with "snapshot too old",
        reproducing the classic MVCC trade-off.

        Runs under the commit mutex, so the horizon cannot move and no
        snapshot is taken or installed while the chains are trimmed.
        Lock-free readers may race it: the store swaps trimmed chains
        in whole, so a reader sees either the old or the new chain —
        never a torn one.
        """
        with self.lock:
            if aggressive or not self._active_start_ts:
                horizon = self._clock
            else:
                horizon = min(self._active_start_ts.values())
            return self.store.vacuum(horizon)

    def commit(self, ctx: TxContext) -> CommitRecord:
        """First-committer-wins validation, then atomic install.

        The commit mutex covers validation, timestamp allocation and
        the install; the clock moves last, once the versions it admits
        are in place.
        """
        with self.lock:
            ctx.ensure_active()
            for obj in sorted(ctx.write_buffer):
                if self.store.modified_since(obj, ctx.start_ts):
                    raise self._validation_failure(
                        ctx,
                        f"write-write conflict on {obj!r} "
                        f"(first committer wins)",
                    )
            commit_ts = self._clock + 1
            if ctx.write_buffer:
                self.store.install(ctx.write_buffer, commit_ts, ctx.tid)
            record = CommitRecord(
                tid=ctx.tid,
                session=ctx.session,
                commit_ts=commit_ts,
                events=tuple(ctx.events),
                snapshot=ctx.start_ts,
                sources=tuple(ctx.sources),
            )
            self._finish_commit(ctx, record)
            self._clock = commit_ts  # publish: the snapshot frontier moves
            return record

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def _replay_install(self, record: CommitRecord) -> None:
        """Install a replayed commit's writes at its original timestamp
        and move the snapshot frontier there (covers the serializable
        subclass too — replay skips validation either way)."""
        writes = record.writes
        if writes:
            self.store.install(writes, record.commit_ts, record.tid)
        self._clock = record.commit_ts
