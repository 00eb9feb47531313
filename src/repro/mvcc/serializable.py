"""A serializable engine: snapshot reads plus full OCC validation.

The serializable baseline extends the SI engine's commit-time check from
the write set to the *read set*: a transaction aborts if any object it
read or wrote was modified by a transaction committing after its start.
A transaction passing this validation saw a snapshot that is still current
at commit time, so it can be serialised at its commit point; the resulting
runs satisfy the serializability axioms (Definition 4's ExecSER at the
history level, checked in the tests via Theorem 8's GraphSER condition).

This is the baseline the paper compares SI against (write skew is aborted
here, admitted by :class:`~repro.mvcc.si.SIEngine`).

Concurrency: reads stay lock-free — a transaction's read set is
registered by ``begin`` and dropped at commit or abort under the commit
mutex, and in between only the session's own thread adds to it.
Read-set validation joins SI's write-set validation inside the commit
mutex.
"""

from __future__ import annotations

from typing import Mapping, Set

from ..core.events import Obj, Value
from .engine import CommitRecord, TxContext
from .si import SIEngine


class SerializableEngine(SIEngine):
    """Optimistic concurrency control over the multi-version store:
    snapshot reads, commit-time read- and write-set validation."""

    def __init__(
        self, initial: Mapping[Obj, Value], init_tid: str = "t_init"
    ):
        super().__init__(initial, init_tid)
        self._read_sets: dict = {}

    def _make_context(self, session: str, tid: str) -> TxContext:
        ctx = super()._make_context(session, tid)
        self._read_sets[tid] = set()
        return ctx

    def _release(self, ctx: TxContext) -> None:
        """Release the vacuum pin and drop the tracked read set (it
        would otherwise leak under a long-running service's
        abort/retry churn)."""
        super()._release(ctx)
        self._read_sets.pop(ctx.tid, None)

    def read(self, ctx: TxContext, obj: Obj) -> Value:
        """Snapshot read, additionally tracked for commit validation."""
        value = super().read(ctx, obj)
        self._read_sets[ctx.tid].add(obj)
        return value

    def commit(self, ctx: TxContext) -> CommitRecord:
        """Validate the read set, then fall back to SI's commit."""
        with self.lock:
            ctx.ensure_active()
            read_set: Set[Obj] = self._read_sets[ctx.tid]
            for obj in sorted(read_set - set(ctx.write_buffer)):
                if self.store.modified_since(obj, ctx.start_ts):
                    raise self._validation_failure(
                        ctx,
                        f"read-write conflict on {obj!r} "
                        f"(snapshot no longer current)",
                    )
            return super().commit(ctx)
