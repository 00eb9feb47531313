"""The service health state machine and admission circuit breaker.

Graceful degradation needs a place where the service admits it is in
trouble.  :class:`HealthTracker` watches two gauges — a sliding-window
abort rate over recent attempts and an EWMA of write-ahead-log append
latency — and walks a three-state machine::

    healthy  --gauges past degraded thresholds-->  degraded
    degraded --gauges past shedding thresholds-->  shedding
    shedding --gauges clean for `cooldown`------>  degraded --> healthy

Escalation is immediate (a collapsing service must not average its way
out of noticing); de-escalation is hysteretic — one level at a time,
only after the gauges have stayed below the *de-escalation* thresholds
(half the escalation ones) for ``cooldown`` seconds, so the state does
not flap at a threshold boundary.

In the ``shedding`` state the admission path becomes a circuit
breaker: new transactions are refused with
:class:`~repro.core.errors.ServiceOverloaded` instead of queueing,
except for a trickle of *probes* (one per ``probe_interval``) that keep
feeding the gauges so recovery is observable — the classic half-open
breaker.  Enforcement is opt-in (``HealthPolicy(enforce=True)``): a
plain service tracks and reports its state but never sheds, so existing
deployments keep their semantics.

A write-ahead-log failure is a separate, sticky signal: the service
notes it here so the state floor becomes ``degraded`` (a service that
cannot make commits durable is not healthy, whatever its abort rate).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

HEALTHY = "healthy"
DEGRADED = "degraded"
SHEDDING = "shedding"

HEALTH_STATES = (HEALTHY, DEGRADED, SHEDDING)
"""States in escalation order."""

_LEVEL = {HEALTHY: 0, DEGRADED: 1, SHEDDING: 2}
_STATE = {level: state for state, level in _LEVEL.items()}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds and timing of the health state machine.

    Attributes:
        enforce: whether the ``shedding`` state actually sheds at
            admission (False = observe-only; the default so attaching
            health tracking never changes service semantics).
        window: attempts in the sliding abort-rate window.
        min_samples: attempts required before the abort-rate gauge is
            trusted (a cold service is healthy, not unmeasured-shedding).
        degraded_abort_rate / shedding_abort_rate: escalation
            thresholds on the windowed abort rate.
        degraded_wal_latency / shedding_wal_latency: escalation
            thresholds (seconds) on the WAL append-latency EWMA.
        cooldown: seconds the gauges must stay below the de-escalation
            thresholds (half the escalation ones) before stepping down
            one level.
        probe_interval: while shedding, one probe transaction is
            admitted per this many seconds (keeps the gauges fed).
        wal_latency_alpha: EWMA smoothing factor for append latency.
    """

    enforce: bool = False
    window: int = 64
    min_samples: int = 16
    degraded_abort_rate: float = 0.5
    shedding_abort_rate: float = 0.85
    degraded_wal_latency: float = 0.05
    shedding_wal_latency: float = 0.25
    cooldown: float = 0.2
    probe_interval: float = 0.05
    wal_latency_alpha: float = 0.2


class HealthTracker:
    """Tracks the health state of one service (thread-safe).

    Args:
        policy: thresholds/timing (defaults observe-only).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        policy: Optional[HealthPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or HealthPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._attempts: Deque[bool] = deque(maxlen=self.policy.window)
        self._abort_count = 0  # aborts currently inside the window
        self._wal_latency_ewma = 0.0
        self._wal_latency_seen = False
        self._wal_failed = False
        self._below_since: Optional[float] = None
        self._last_probe = float("-inf")
        self.transitions: List[Tuple[float, str, str]] = []
        """Every state change as ``(monotonic time, from, to)``."""

    # ------------------------------------------------------------------
    # Gauge feeds
    # ------------------------------------------------------------------

    def note_attempt(self, aborted: bool) -> None:
        """One transaction attempt finished (commit or abort)."""
        with self._lock:
            self._note_attempt_locked(aborted)
            self._evaluate_locked()

    def note_wal_latency(self, seconds: float) -> None:
        """One durable append completed in ``seconds``."""
        with self._lock:
            self._note_wal_latency_locked(seconds)
            self._evaluate_locked()

    def note_commit(self, wal_latency: Optional[float] = None) -> None:
        """One attempt committed, its durable append (if any) having
        taken ``wal_latency`` seconds: both gauge feeds in one locked
        update and one evaluation."""
        with self._lock:
            self._note_attempt_locked(False)
            if wal_latency is not None:
                self._note_wal_latency_locked(wal_latency)
            self._evaluate_locked()

    def _note_attempt_locked(self, aborted: bool) -> None:
        if len(self._attempts) == self._attempts.maxlen:
            if self._attempts[0]:
                self._abort_count -= 1
        self._attempts.append(aborted)
        if aborted:
            self._abort_count += 1

    def _note_wal_latency_locked(self, seconds: float) -> None:
        if not self._wal_latency_seen:
            self._wal_latency_ewma = seconds
            self._wal_latency_seen = True
        else:
            a = self.policy.wal_latency_alpha
            self._wal_latency_ewma = (
                a * seconds + (1 - a) * self._wal_latency_ewma
            )

    def note_wal_failure(self) -> None:
        """The write-ahead log failed; the state floor is degraded
        from here on (durability cannot silently look healthy)."""
        with self._lock:
            self._wal_failed = True
            self._evaluate_locked()

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """The current health state (re-evaluates time-based
        de-escalation first, so an idle service can recover)."""
        with self._lock:
            self._evaluate_locked()
            return _STATE[self._level]

    @property
    def wal_failed(self) -> bool:
        """Whether a WAL failure has been noted."""
        with self._lock:
            return self._wal_failed

    def abort_rate(self) -> float:
        """Abort rate over the sliding window (0.0 when under-sampled)."""
        with self._lock:
            return self._abort_rate_locked()

    def wal_latency(self) -> float:
        """The WAL append-latency EWMA in seconds."""
        with self._lock:
            return self._wal_latency_ewma

    def _abort_rate_locked(self) -> float:
        n = len(self._attempts)
        if n < self.policy.min_samples:
            return 0.0
        return self._abort_count / n

    def _target_level_locked(self) -> int:
        """The level the gauges currently call for (escalation
        thresholds), with the WAL-failure floor applied."""
        rate = self._abort_rate_locked()
        lat = self._wal_latency_ewma if self._wal_latency_seen else 0.0
        p = self.policy
        if rate >= p.shedding_abort_rate or lat >= p.shedding_wal_latency:
            level = 2
        elif rate >= p.degraded_abort_rate or lat >= p.degraded_wal_latency:
            level = 1
        else:
            level = 0
        if self._wal_failed:
            level = max(level, 1)
        return level

    def _calm_level_locked(self) -> int:
        """The level under the (halved) de-escalation thresholds —
        hysteresis so the state does not flap at a boundary."""
        rate = self._abort_rate_locked()
        lat = self._wal_latency_ewma if self._wal_latency_seen else 0.0
        p = self.policy
        if (
            rate >= p.shedding_abort_rate / 2
            or lat >= p.shedding_wal_latency / 2
        ):
            level = 2
        elif (
            rate >= p.degraded_abort_rate / 2
            or lat >= p.degraded_wal_latency / 2
        ):
            level = 1
        else:
            level = 0
        if self._wal_failed:
            level = max(level, 1)
        return level

    def _evaluate_locked(self) -> None:
        now = self._clock()
        target = self._target_level_locked()
        if target > self._level:
            self._transition_locked(now, target)
            self._below_since = None
            return
        calm = self._calm_level_locked()
        if calm < self._level:
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= self.policy.cooldown:
                self._transition_locked(now, self._level - 1)
                # The next step down needs its own full cooldown.
                self._below_since = now
        else:
            self._below_since = None

    def _transition_locked(self, now: float, level: int) -> None:
        old = _STATE[self._level]
        self._level = level
        self.transitions.append((now, old, _STATE[level]))

    # ------------------------------------------------------------------
    # The circuit breaker
    # ------------------------------------------------------------------

    def allow_admission(self) -> bool:
        """Whether a new transaction may be admitted right now.

        Always True unless the policy enforces and the state is
        ``shedding``; while shedding, one probe per ``probe_interval``
        is still allowed so the gauges keep moving and recovery is
        observable.  An observe-only policy answers without evaluating
        (the gauge feeds and :attr:`state` evaluate).
        """
        if not self.policy.enforce:
            return True
        with self._lock:
            self._evaluate_locked()
            if self._level < 2:
                return True
            now = self._clock()
            if now - self._last_probe >= self.policy.probe_interval:
                self._last_probe = now
                return True
            return False

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The tracker's state as a plain dict."""
        with self._lock:
            self._evaluate_locked()
            return {
                "state": _STATE[self._level],
                "enforce": self.policy.enforce,
                "window_abort_rate": round(self._abort_rate_locked(), 4),
                "wal_latency_ewma": round(self._wal_latency_ewma, 6),
                "wal_failed": self._wal_failed,
                "transitions": len(self.transitions),
            }
