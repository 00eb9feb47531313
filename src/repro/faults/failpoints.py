"""The process-wide failpoint registry.

A *failpoint* is a named hook compiled into a hot path; when no plan is
armed it costs one attribute read.  The stack is instrumented at the
points of :data:`~repro.faults.plan.FAILPOINTS`:

===================  ==================================================
``wal.write``        :meth:`WriteAheadLog.write`, before writing each
                     frame, **inside the commit critical section** (an
                     ``io_error`` here poisons the log like a dead disk;
                     a delay stalls every committer).
``wal.fsync``        :meth:`WriteAheadLog.sync`, before each ``fsync``,
                     holding the log's sync lock (stalls model a
                     congested device; latency is visible to committers
                     waiting for durability; under ``"always"`` the
                     sync runs inside ``write``, so in the commit
                     critical section).
``store.install``    :meth:`~repro.mvcc.store.MVStore.install`, per
                     object, **inside the commit critical section** (the
                     engine's one lock; a delay models a descheduled
                     writer stalling every commit, begin and vacuum).
``store.read``       :meth:`~repro.mvcc.store.MVStore.read_at` (slow
                     snapshot reads).
``monitor.observe``  :meth:`ServiceSession.commit`, before each hand-off
                     to the certifier process, **inside the commit
                     critical section** (a slow hand-off stalls every
                     committer).
``service.admit``    :meth:`TransactionService._admit`, before the
                     admission semaphore (admission spikes).
``service.commit``   :meth:`ServiceSession.commit`, before the engine
                     commit (an ``abort`` feeds the retry discipline
                     exactly like a validation failure).
===================  ==================================================

Arming is global (one process, one plan) because the instrumented
sites span components that are wired together long before a fault plan
exists; :func:`armed` is the context-manager entry point and guarantees
disarming.  Tests and the chaos harness arm per-run and the registry
refuses double-arming, so plans cannot silently overlap.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..core.errors import StoreError
from .plan import FaultPlan


class FaultInjector:
    """Holds the (single) armed :class:`FaultPlan` and routes hits.

    ``armed`` is a plain attribute so instrumented sites can guard the
    call (``if FAULTS.armed: FAULTS.fire(...)``) with one global load —
    the disarmed overhead on hot paths stays negligible.
    """

    def __init__(self) -> None:
        self.armed = False
        self._plan: Optional[FaultPlan] = None
        self._lock = threading.Lock()

    @property
    def plan(self) -> Optional[FaultPlan]:
        """The armed plan, if any."""
        return self._plan

    def arm(self, plan: FaultPlan) -> None:
        """Arm ``plan``; refuses if another plan is already armed."""
        with self._lock:
            if self._plan is not None:
                raise StoreError(
                    f"a fault plan ({self._plan.name!r}) is already "
                    f"armed; disarm it first"
                )
            self._plan = plan
            self.armed = True

    def disarm(self) -> Optional[FaultPlan]:
        """Disarm and return the previously armed plan (idempotent)."""
        with self._lock:
            plan, self._plan = self._plan, None
            self.armed = False
            return plan

    def fire(self, point: str, **context: Any) -> None:
        """Evaluate the armed plan at ``point`` (no-op when disarmed).

        May sleep or raise per the plan's rules; see
        :meth:`FaultPlan.fire`.
        """
        plan = self._plan
        if plan is not None:
            plan.fire(point, **context)


FAULTS = FaultInjector()
"""The process-wide injector every instrumented site consults."""


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` on :data:`FAULTS` for the duration of the block."""
    FAULTS.arm(plan)
    try:
        yield plan
    finally:
        FAULTS.disarm()
