"""Deterministic fault injection and the chaos harness.

The paper's analyses promise *sound* verdicts; this package is how the
repo checks that the promise survives a failing environment.  It has
three layers:

* :mod:`~repro.faults.plan` — :class:`FaultPlan`: seed-reproducible
  schedules of fault events (I/O errors, fsync stalls, writers
  paused in the commit critical section, slow certification, injected aborts, admission spikes) plus the
  named storm profiles the bench sweeps;
* :mod:`~repro.faults.failpoints` — the process-wide registry of named
  failpoints threaded through ``wal``, ``mvcc``, and ``service``
  (near-zero cost when disarmed);
* :mod:`~repro.faults.chaos` — the harness: run a workload against a
  storm, then assert the end-to-end invariants (no false monitor
  verdicts, durable prefix recoverable and audit-clean, service back to
  healthy within a bounded window).  Imported lazily by the CLI's
  ``chaos-bench`` verb — import it as ``repro.faults.chaos`` (it pulls
  in the service layer, which this package root must not).

See ``docs/FAULTS.md`` for the failpoint catalog and plan format.
"""

from .failpoints import FAULTS, FaultInjector, armed
from .plan import (
    FAILPOINTS,
    FAULT_KINDS,
    PROFILES,
    FaultPlan,
    FaultRule,
    preset,
)

__all__ = [
    "FAILPOINTS",
    "FAULTS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "PROFILES",
    "armed",
    "preset",
]
