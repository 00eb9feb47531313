"""The concurrent transaction service (Section 5 made operational).

Everything below this package runs transactions one caller-scheduled
step at a time; here the reproduction serves real concurrent traffic:
:class:`TransactionService` fronts one MVCC engine with per-client
sessions, bounded retry-with-backoff, an admission limit, online
certification via an attached (typically windowed) monitor, and
JSON-exportable metrics.  :mod:`~repro.service.loadgen` drives
SmallBank/TPC-C-style mixes over worker threads.  The monitor runs in
a forked certifier process (:mod:`~repro.service.certifier`) fed each
commit's encoded payload in commit order; the committer only hands the
payload off, and :meth:`TransactionService.drain` waits for the
verdicts.
"""

from .certifier import Certifier, CertifierError
from .health import HEALTH_STATES, HealthPolicy, HealthTracker
from .loadgen import (
    MIXES,
    SMALLBANK_READ_HEAVY,
    SMALLBANK_WRITE_HEAVY,
    LoadGenerator,
    LoadResult,
    WorkloadMix,
    smallbank_mix,
    tpcc_mix,
)
from .metrics import LatencyHistogram, ServiceMetrics
from .service import (
    WAL_FAILURE_POLICIES,
    ServiceSession,
    TransactionService,
    TxOutcome,
)

__all__ = [
    "Certifier",
    "CertifierError",
    "HEALTH_STATES",
    "HealthPolicy",
    "HealthTracker",
    "WAL_FAILURE_POLICIES",
    "LatencyHistogram",
    "LoadGenerator",
    "LoadResult",
    "MIXES",
    "SMALLBANK_READ_HEAVY",
    "SMALLBANK_WRITE_HEAVY",
    "ServiceMetrics",
    "ServiceSession",
    "TransactionService",
    "TxOutcome",
    "WorkloadMix",
    "smallbank_mix",
    "tpcc_mix",
]
