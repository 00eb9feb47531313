"""Clients, sessions and the deterministic scheduler.

Transaction programs are written as Python *generator functions*: the
program yields :class:`ReadOp`/:class:`WriteOp` requests and receives read
values back, giving the scheduler an explicit preemption point at every
operation::

    def withdraw_from_acct1():
        v1 = yield ReadOp("acct1")
        v2 = yield ReadOp("acct2")
        if v1 + v2 > 100:
            yield WriteOp("acct1", v1 - 100)

A *session* is a list of such programs, executed in order; following the
client assumptions of Section 5, a program whose transaction aborts is
resubmitted (as a fresh transaction) until it commits, up to a retry cap.

The :class:`Scheduler` interleaves sessions one operation at a time,
driven either by an explicit schedule (a list of session names, with the
special entry ``"deliver"`` performing one causal delivery on PSI engines)
or by a seeded PRNG — both fully deterministic and replayable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..core.errors import ScheduleError, TransactionAborted
from ..core.events import Obj, Value
from .engine import BaseEngine, TxContext
from .psi import PSIEngine


@dataclass(frozen=True)
class ReadOp:
    """A request to read ``obj``; the yield evaluates to the value."""

    obj: Obj


@dataclass(frozen=True)
class WriteOp:
    """A request to write ``value`` to ``obj``."""

    obj: Obj
    value: Value


OpRequest = Union[ReadOp, WriteOp]
TxProgram = Callable[[], Generator[OpRequest, Value, None]]
"""A transaction program: a no-argument generator function."""

DELIVER = "deliver"
"""Schedule entry: perform one pending causal delivery (PSI engines)."""


@dataclass
class _SessionState:
    programs: List[TxProgram]
    index: int = 0
    gen: Optional[Generator] = None
    ctx: Optional[TxContext] = None
    to_send: Optional[Value] = None
    retries: int = 0

    @property
    def done(self) -> bool:
        return self.index >= len(self.programs) and self.gen is None


@dataclass
class RunResult:
    """Summary of a scheduler run."""

    steps: int
    commits: int
    aborts: int

    def __str__(self) -> str:
        return (
            f"{self.steps} steps, {self.commits} commits, "
            f"{self.aborts} aborts"
        )


class Scheduler:
    """Deterministic operation-level interleaving of sessions.

    Args:
        engine: the engine to drive (any :class:`BaseEngine`).
        sessions: session name → list of transaction programs.
        max_retries: per-program cap on abort-and-resubmit cycles; beyond
            it :class:`ScheduleError` is raised (livelock guard).
    """

    def __init__(
        self,
        engine: BaseEngine,
        sessions: Mapping[str, Sequence[TxProgram]],
        max_retries: int = 1000,
        crash_rate: float = 0.0,
        crash_seed: int = 0,
    ):
        self.engine = engine
        self.max_retries = max_retries
        self._states: Dict[str, _SessionState] = {
            name: _SessionState(list(programs))
            for name, programs in sessions.items()
        }
        self.steps = 0
        self.crashes = 0
        self._crash_rate = crash_rate
        self._crash_rng = random.Random(crash_seed)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def runnable_sessions(self) -> List[str]:
        """Sessions that still have work, deterministic order."""
        return sorted(
            name for name, st in self._states.items() if not st.done
        )

    def is_finished(self) -> bool:
        """True when every session has committed all its programs."""
        return not self.runnable_sessions()

    def step(self, session: str) -> None:
        """Advance ``session`` by one operation (or its commit).

        With a non-zero ``crash_rate``, each step may instead *crash* the
        session's in-flight transaction (a system-failure abort, §5's
        client assumptions): the transaction is aborted at the engine and
        the program restarted from scratch on the next step.
        """
        st = self._states[session]
        if st.done:
            raise ScheduleError(f"session {session!r} is already finished")
        if (
            self._crash_rate > 0.0
            and st.ctx is not None
            and self._crash_rng.random() < self._crash_rate
        ):
            self.crash(session)
            return
        if st.gen is None:
            st.ctx = self.engine.begin(session)
            st.gen = st.programs[st.index]()
            st.to_send = None
        self.steps += 1
        try:
            op = st.gen.send(st.to_send)
        except StopIteration:
            self._commit(session, st)
            return
        try:
            if isinstance(op, ReadOp):
                st.to_send = self.engine.read(st.ctx, op.obj)
            elif isinstance(op, WriteOp):
                self.engine.write(st.ctx, op.obj, op.value)
                st.to_send = None
            else:
                raise ScheduleError(
                    f"program in session {session!r} yielded {op!r}; "
                    f"expected ReadOp or WriteOp"
                )
        except TransactionAborted:
            # Pessimistic engines (no-wait 2PL) abort at the operation,
            # not only at commit; the retry discipline is the same.
            self._register_retry(session, st)

    def _commit(self, session: str, st: _SessionState) -> None:
        try:
            self.engine.commit(st.ctx)
            st.index += 1
            st.retries = 0
            st.gen = None
            st.ctx = None
            st.to_send = None
        except TransactionAborted:
            self._register_retry(session, st)

    def _register_retry(self, session: str, st: _SessionState) -> None:
        """An engine-initiated abort: reset for resubmission (§5)."""
        st.gen = None
        st.ctx = None
        st.to_send = None
        st.retries += 1
        if st.retries > self.max_retries:
            raise ScheduleError(
                f"session {session!r} exceeded {self.max_retries} "
                f"retries; workload is livelocked"
            )

    def crash(self, session: str) -> None:
        """Simulate a system failure of the session's active transaction.

        The in-flight transaction is aborted (its buffered writes vanish)
        and the program will be restarted as a fresh transaction — the
        retry discipline of Section 5.  No-op if nothing is in flight.
        """
        st = self._states[session]
        if st.ctx is None:
            return
        self.engine.abort(st.ctx, reason="simulated crash")
        self.crashes += 1
        st.gen = None
        st.ctx = None
        st.to_send = None

    def deliver_one(self) -> bool:
        """On a PSI engine, perform the first deliverable delivery.
        Returns False when nothing is deliverable (no-op otherwise)."""
        if not isinstance(self.engine, PSIEngine):
            return False
        deliverable = self.engine.deliverable_deliveries()
        if not deliverable:
            return False
        tid, replica = deliverable[0]
        self.engine.deliver(tid, replica)
        return True

    # ------------------------------------------------------------------
    # Whole runs
    # ------------------------------------------------------------------

    def run_schedule(self, schedule: Iterable[str]) -> RunResult:
        """Run an explicit schedule (session names and ``"deliver"``),
        then finish any remaining work round-robin."""
        for entry in schedule:
            if entry == DELIVER:
                self.deliver_one()
                continue
            if entry not in self._states:
                raise ScheduleError(f"unknown session {entry!r} in schedule")
            if not self._states[entry].done:
                self.step(entry)
        self.run_round_robin()
        return self._result()

    def run_round_robin(self) -> RunResult:
        """Finish all sessions by cycling through them in name order."""
        while not self.is_finished():
            for name in self.runnable_sessions():
                self.step(name)
        self._drain_deliveries()
        return self._result()

    def run_random(
        self, seed: int, deliver_probability: float = 0.25
    ) -> RunResult:
        """Run to completion with a seeded PRNG choosing the next actor.

        On PSI engines, each step is a pending delivery with probability
        ``deliver_probability`` (when one is deliverable).
        """
        rng = random.Random(seed)
        while not self.is_finished():
            if (
                isinstance(self.engine, PSIEngine)
                and self.engine.deliverable_deliveries()
                and rng.random() < deliver_probability
            ):
                self.deliver_one()
                continue
            name = rng.choice(self.runnable_sessions())
            self.step(name)
        self._drain_deliveries()
        return self._result()

    def _drain_deliveries(self) -> None:
        if isinstance(self.engine, PSIEngine):
            self.engine.deliver_all()

    def _result(self) -> RunResult:
        return RunResult(
            steps=self.steps,
            commits=self.engine.stats.commits,
            aborts=self.engine.stats.aborts,
        )


def run_sequential(
    engine: BaseEngine, sessions: Mapping[str, Sequence[TxProgram]]
) -> RunResult:
    """Run each session to completion one after another (a serial run —
    useful as a baseline and in examples)."""
    scheduler = Scheduler(engine, sessions)
    for name in sorted(sessions):
        while not scheduler._states[name].done:
            scheduler.step(name)
    scheduler._drain_deliveries()
    return scheduler._result()
