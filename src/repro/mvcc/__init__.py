"""Operational substrate: multi-version engines, scheduler, workloads.

Implements the paper's idealised SI concurrency-control algorithm
(:class:`SIEngine`), a serializable OCC baseline
(:class:`SerializableEngine`), and a replicated parallel-SI engine
(:class:`PSIEngine`), all recording enough to reconstruct histories and
abstract executions for cross-validation against the declarative theory.
:func:`build_engine` builds any of them by key, paired with the model
its runs certify under.
"""

from functools import partial
from typing import Callable, Dict, Mapping, Tuple

from ..core.errors import StoreError
from ..core.events import Obj, Value
from .store import INIT_WRITER, MVStore, Version
from .engine import (
    BaseEngine,
    CommitRecord,
    EngineStats,
    TxContext,
    TxStatus,
)
from .si import SIEngine
from .serializable import SerializableEngine
from .locking import LockMode, LockTable, TwoPhaseLockingEngine
from .psi import PSIEngine, Replica
from .runtime import (
    DELIVER,
    OpRequest,
    ReadOp,
    RunResult,
    Scheduler,
    TxProgram,
    WriteOp,
    run_sequential,
)
from .workloads import (
    RandomWorkload,
    blind_write_program,
    chopped_transfer_session,
    contended_counter_workload,
    deposit_program,
    disjoint_counter_workload,
    long_fork_sessions,
    lookup_program,
    lost_update_sessions,
    random_workload,
    read_pair_program,
    transfer_piece_program,
    withdraw_program,
    write_skew_sessions,
)

__all__ = [
    # store
    "MVStore",
    "Version",
    "INIT_WRITER",
    # engine
    "ENGINE_MODELS",
    "build_engine",
    "BaseEngine",
    "TxContext",
    "TxStatus",
    "CommitRecord",
    "EngineStats",
    "SIEngine",
    "SerializableEngine",
    "TwoPhaseLockingEngine",
    "LockTable",
    "LockMode",
    "PSIEngine",
    "Replica",
    # runtime
    "ReadOp",
    "WriteOp",
    "OpRequest",
    "TxProgram",
    "Scheduler",
    "RunResult",
    "run_sequential",
    "DELIVER",
    # workloads
    "RandomWorkload",
    "withdraw_program",
    "deposit_program",
    "blind_write_program",
    "read_pair_program",
    "transfer_piece_program",
    "chopped_transfer_session",
    "lookup_program",
    "write_skew_sessions",
    "lost_update_sessions",
    "long_fork_sessions",
    "random_workload",
    "contended_counter_workload",
    "disjoint_counter_workload",
]


ENGINE_MODELS: Dict[str, Tuple[Callable[..., BaseEngine], str]] = {
    "SI": (SIEngine, "SI"),
    "SER": (SerializableEngine, "SER"),
    # Eager propagation: a served session gets its own replica, so lazy
    # delivery would starve every remote read.
    "PSI": (partial(PSIEngine, auto_deliver=True), "PSI"),
    # Strict 2PL produces serialisable executions.
    "2PL": (TwoPhaseLockingEngine, "SER"),
}
"""Engine key → (engine factory, the model its runs certify under).
The keys are what the CLI accepts and what a log's meta records."""


def build_engine(
    key: str, initial: Mapping[Obj, Value], init_tid: str = "t_init"
) -> Tuple[BaseEngine, str]:
    """A fresh engine for ``key`` and the model it certifies under.

    Raises:
        StoreError: for a key not in :data:`ENGINE_MODELS`.
    """
    if key not in ENGINE_MODELS:
        raise StoreError(
            f"unknown engine {key!r}; expected one of {tuple(ENGINE_MODELS)}"
        )
    factory, model = ENGINE_MODELS[key]
    return factory(initial, init_tid), model
