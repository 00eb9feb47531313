"""Online consistency monitoring (the §7 run-time-monitoring application).

:class:`ConsistencyMonitor` watches a stream of committed transactions,
maintains the transitive reduction of the dependency graph
incrementally (each commit adds edges for its own reads and writes),
and flags the first commit whose accumulated behaviour leaves GraphSI /
GraphSER / GraphPSI.
Certification runs on one of two back-ends selected by the ``checker``
knob: the default ``"incremental"`` core
(:mod:`repro.monitor.incremental`) maintains a plain DAG under a
Pearce–Kelly dynamic topological order (for SI a split graph whose
cycles are those of ``dep ; RW?``), so the common no-violation commit
costs amortised near-constant work, while
``"rebuild"`` re-derives the full condition each commit and serves as
the differential-testing oracle.  With ``window=W`` the monitor
garbage-collects transactions outside a sliding commit window so memory
stays bounded under sustained service load.  :func:`sourced_commits`
gives a black-box history the write-read an engine records.
"""

from .incremental import (
    CHECKERS,
    DynamicTopoOrder,
    IncrementalChecker,
    PsiIncrementalChecker,
    SerIncrementalChecker,
    SiIncrementalChecker,
    make_checker,
)
from .online import (
    ConsistencyMonitor,
    MonitorError,
    SourcedCommit,
    Violation,
    sourced_commits,
    watch_engine,
)

__all__ = [
    "CHECKERS",
    "ConsistencyMonitor",
    "DynamicTopoOrder",
    "IncrementalChecker",
    "MonitorError",
    "PsiIncrementalChecker",
    "SerIncrementalChecker",
    "SiIncrementalChecker",
    "SourcedCommit",
    "Violation",
    "make_checker",
    "sourced_commits",
    "watch_engine",
]
