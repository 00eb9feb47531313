"""A multi-threaded load generator for the transaction service.

Drives SmallBank- and TPC-C-style transaction mixes over N worker
threads, each with its own :class:`~repro.service.service.ServiceSession`
following the retry discipline.  The mixes write plain values, and
bank-balance arithmetic happily produces the same integer twice (two
deposits of 10 into accounts holding 100; Amalgamate zeroes an account
again and again).  The online monitor does not mind: each read carries
the ``commit_ts`` of the version it returned, so write-read never has
to be guessed from values.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..apps import smallbank, tpcc
from ..core.errors import (
    DeadlineExceeded,
    RetryExhausted,
    ServiceOverloaded,
    ServiceReadOnly,
    StoreError,
)
from ..wal.log import WalError
from ..core.events import Obj, Value
from ..mvcc.runtime import ReadOp, TxProgram, WriteOp
from ..mvcc.store import shared_initial
from .service import TransactionService


ProgramFactory = Callable[[random.Random], TxProgram]


class WorkloadMix:
    """A named, weighted distribution over transaction programs.

    Args:
        name: mix name (appears in results and bench output).
        initial: initial object values for the engine and monitor.
        choices: ``{label: (weight, factory)}`` where ``factory(rng)``
            builds one fresh transaction program.
    """

    def __init__(
        self,
        name: str,
        initial: Mapping[Obj, Value],
        choices: Dict[str, Tuple[int, ProgramFactory]],
    ):
        if not choices:
            raise StoreError(f"mix {name!r} has no transaction types")
        self.name = name
        self.initial = shared_initial(initial)
        """Read-only, shared with the engines built from this mix;
        ``dict(mix.initial)`` for a mutable copy."""
        self._labels = list(choices)
        self._weights = [choices[label][0] for label in self._labels]
        self._factories = [choices[label][1] for label in self._labels]

    def next_program(self, rng: random.Random) -> TxProgram:
        """Draw one transaction program according to the weights."""
        index = rng.choices(range(len(self._labels)), self._weights)[0]
        return self._factories[index](rng)


# ----------------------------------------------------------------------
# SmallBank mix (operational)
# ----------------------------------------------------------------------


SMALLBANK_READ_HEAVY: Dict[str, int] = {
    "Balance": 60,
    "DepositChecking": 15,
    "TransactSavings": 5,
    "WriteCheck": 15,
    "Amalgamate": 5,
}
"""A read-heavy SmallBank weighting (60% read-only Balance) — the mix
where lock-free snapshot reads pay off most."""

SMALLBANK_WRITE_HEAVY: Dict[str, int] = {
    "Balance": 5,
    "DepositChecking": 30,
    "TransactSavings": 20,
    "WriteCheck": 25,
    "Amalgamate": 20,
}
"""A write-heavy SmallBank weighting (95% updating transactions) — the
mix that stresses the commit critical section and first-committer-wins
aborts."""


def smallbank_mix(
    customers: int = 4,
    balance: int = 100,
    weights: Optional[Dict[str, int]] = None,
) -> WorkloadMix:
    """The SmallBank transaction mix over ``customers`` customers.

    Each transaction runs one of :mod:`repro.apps.smallbank`'s
    operational programs.

    Args:
        customers: number of (savings, checking) account pairs.
        balance: initial balance per account.
        weights: override the default :data:`~repro.apps.smallbank.MIX_WEIGHTS`
            per transaction type (e.g. :data:`SMALLBANK_READ_HEAVY`,
            :data:`SMALLBANK_WRITE_HEAVY`); unknown keys are rejected.
    """
    if customers < 1:
        raise StoreError(f"need at least one customer, got {customers}")
    chosen = dict(smallbank.MIX_WEIGHTS)
    if weights is not None:
        unknown = set(weights) - set(chosen)
        if unknown:
            raise StoreError(
                f"unknown SmallBank transaction types: {sorted(unknown)}"
            )
        chosen.update(weights)
    def balance_f(rng: random.Random) -> TxProgram:
        return smallbank.balance_tx(rng.randrange(customers))

    def deposit_checking_f(rng: random.Random) -> TxProgram:
        n = rng.randrange(customers)
        return smallbank.deposit_checking_tx(n, rng.randint(1, 50))

    def transact_savings_f(rng: random.Random) -> TxProgram:
        n = rng.randrange(customers)
        return smallbank.transact_savings_tx(n, rng.randint(-60, 60) or 10)

    def write_check_f(rng: random.Random) -> TxProgram:
        n = rng.randrange(customers)
        return smallbank.write_check_tx(n, rng.randint(1, 120))

    def amalgamate_f(rng: random.Random) -> TxProgram:
        src = rng.randrange(customers)
        return smallbank.amalgamate_tx(src, (src + 1) % customers)

    factories = {
        "Balance": balance_f,
        "DepositChecking": deposit_checking_f,
        "TransactSavings": transact_savings_f,
        "WriteCheck": write_check_f,
        "Amalgamate": amalgamate_f,
    }
    return WorkloadMix(
        name="smallbank",
        initial=smallbank.initial_state(customers, balance),
        choices={
            label: (chosen[label], factory)
            for label, factory in factories.items()
        },
    )


# ----------------------------------------------------------------------
# TPC-C mix (table granularity, operational)
# ----------------------------------------------------------------------


def tpcc_mix() -> WorkloadMix:
    """The TPC-C mix at table granularity (one warehouse/district).

    Read/write sets follow :mod:`repro.apps.tpcc`; a table that is both
    read and written becomes a read-modify-write (an increment), a
    written-only table a blind write of 0.
    """

    def factory_for(program) -> ProgramFactory:
        piece = program.pieces[0]
        reads = sorted(piece.reads)
        writes = sorted(piece.writes)
        read_set = set(reads)

        def factory(rng: random.Random) -> TxProgram:
            def tx():
                seen: Dict[str, Value] = {}
                for table in reads:
                    seen[table] = yield ReadOp(table)
                for table in writes:
                    new = seen[table] + 1 if table in read_set else 0
                    yield WriteOp(table, new)

            return tx

        return factory

    choices: Dict[str, Tuple[int, ProgramFactory]] = {}
    for program in tpcc.tpcc_programs():
        choices[program.name] = (
            tpcc.MIX_WEIGHTS[program.name],
            factory_for(program),
        )
    return WorkloadMix(
        name="tpcc", initial=tpcc.initial_state(), choices=choices
    )


MIXES: Dict[str, Callable[[], WorkloadMix]] = {
    "smallbank": smallbank_mix,
    "tpcc": tpcc_mix,
}
"""The named mixes the CLI and benches can ask for."""


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadResult:
    """The outcome of one load run.

    Attributes:
        mix: name of the workload mix.
        workers: worker-thread count.
        committed: transactions that eventually committed.
        retry_exhausted: transactions abandoned past the retry cap.
        violations: monitor violations recorded during the run.
        elapsed_seconds: wall-clock duration of the run.
        deadline_exceeded: transactions abandoned at their wall-clock
            deadline (only under a service ``default_deadline``).
        shed: transactions refused by the admission circuit breaker.
        read_only_refused: updates refused in read-only degraded mode.
        wal_errors: commits whose durability failed (``fail_stop``
            surfaces the poisoned log to the committer; the in-memory
            commit stands and is *not* in ``committed``).
    """

    mix: str
    workers: int
    committed: int
    retry_exhausted: int
    violations: int
    elapsed_seconds: float
    deadline_exceeded: int = 0
    shed: int = 0
    read_only_refused: int = 0
    wal_errors: int = 0

    @property
    def throughput(self) -> float:
        """Committed transactions per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.committed / self.elapsed_seconds


class LoadGenerator:
    """Drives a :class:`TransactionService` with concurrent workers.

    Args:
        service: the service under load (its engine must have been
            seeded with ``mix.initial``).
        mix: the workload mix to draw transactions from.
        workers: number of worker threads (each gets its own session).
        transactions_per_worker: transactions each worker submits.
        duration: optional wall-clock cutoff in seconds — workers stop
            drawing new transactions once it elapses, even if they have
            submissions left.
        seed: seeds the per-worker RNG streams (runs are reproducible
            up to thread scheduling).
        think_time: per-transaction client think time in seconds (slept
            before each submission).  Models the request round-trip of a
            closed-loop client; with it, threads overlap their waits and
            throughput scales with workers until the engine's critical
            sections saturate — the regime the scaling bench measures.
    """

    def __init__(
        self,
        service: TransactionService,
        mix: WorkloadMix,
        workers: int = 8,
        transactions_per_worker: int = 50,
        duration: Optional[float] = None,
        seed: int = 0,
        think_time: float = 0.0,
    ):
        if workers < 1:
            raise StoreError(f"need at least one worker, got {workers}")
        if transactions_per_worker < 1:
            raise StoreError(
                "need at least one transaction per worker, got "
                f"{transactions_per_worker}"
            )
        if think_time < 0:
            raise StoreError(f"think_time must be >= 0, got {think_time}")
        self.service = service
        self.mix = mix
        self.workers = workers
        self.transactions_per_worker = transactions_per_worker
        self.duration = duration
        self.seed = seed
        self.think_time = think_time

    def run(self) -> LoadResult:
        """Run the load to completion and summarise it."""
        committed = [0] * self.workers
        exhausted = [0] * self.workers
        deadlined = [0] * self.workers
        shed = [0] * self.workers
        refused = [0] * self.workers
        wal_errors = [0] * self.workers
        errors: List[BaseException] = []
        barrier = threading.Barrier(self.workers + 1)
        deadline_holder: List[float] = []

        def worker(index: int) -> None:
            rng = random.Random(f"{self.seed}:{self.mix.name}:{index}")
            session = self.service.session(f"worker-{index}")
            barrier.wait()
            deadline = deadline_holder[0] if deadline_holder else None
            for _ in range(self.transactions_per_worker):
                if deadline is not None and time.perf_counter() > deadline:
                    break
                if self.think_time > 0:
                    time.sleep(self.think_time)
                program = self.mix.next_program(rng)
                try:
                    session.run(program)
                    committed[index] += 1
                except RetryExhausted:
                    exhausted[index] += 1
                except DeadlineExceeded:
                    deadlined[index] += 1
                except ServiceOverloaded:
                    shed[index] += 1
                except ServiceReadOnly:
                    refused[index] += 1
                except WalError:
                    # fail_stop surfaces the poisoned log per commit;
                    # under load that is a counted outcome, not a crash.
                    wal_errors[index] += 1
                except BaseException as exc:  # surface, don't swallow
                    errors.append(exc)
                    break

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.workers)
        ]
        for thread in threads:
            thread.start()
        if self.duration is not None:
            deadline_holder.append(time.perf_counter() + self.duration)
        started = time.perf_counter()
        barrier.wait()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if errors:
            raise errors[0]
        # Flush the write-ahead log so durability failures surface
        # before the counts below are taken.
        try:
            self.service.drain()
        except WalError:
            # A poisoned log discovered only at drain (fsync_policy
            # "none" acks before I/O): count it rather than lose the
            # whole run's numbers.
            if sum(wal_errors) == 0:
                wal_errors[0] += 1
        return LoadResult(
            mix=self.mix.name,
            workers=self.workers,
            committed=sum(committed),
            retry_exhausted=sum(exhausted),
            violations=len(self.service.violations),
            elapsed_seconds=elapsed,
            deadline_exceeded=sum(deadlined),
            shed=sum(shed),
            read_only_refused=sum(refused),
            wal_errors=sum(wal_errors),
        )
