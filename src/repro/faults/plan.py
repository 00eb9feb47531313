"""Deterministic, seed-reproducible fault plans.

A :class:`FaultPlan` is a schedule of fault events over the named
failpoints threaded through the stack (see
:mod:`repro.faults.failpoints` for the catalog).  Each
:class:`FaultRule` targets one failpoint and describes *when* it fires
(a hit-count window plus a per-hit probability drawn from a seeded
stream) and *what* it does:

* ``"delay"`` — sleep at the site (fsync stalls, lock-stripe pauses,
  slow monitor consumers, admission spikes);
* ``"io_error"`` — raise :class:`OSError` (the WAL's writer treats it
  exactly like a real disk failure and poisons the log);
* ``"abort"`` — raise :class:`~repro.core.errors.FaultInjected`, which
  the service translates into a transaction abort feeding the retry
  discipline.

Determinism.  Every rule owns its own ``random.Random`` stream seeded
from ``(plan seed, rule index, point name)``, and trigger decisions
depend only on the rule's own hit counter — never on wall-clock time or
a shared RNG.  Given the same sequence of hits at a failpoint, a plan
therefore injects exactly the same faults, which is what makes chaos
runs replayable from ``(plan, seed)`` alone.  (Across threads the *hit
order* still follows the thread schedule; the per-rule streams mean
the decisions for the k-th hit are fixed regardless of which thread
lands it.)

Plans are JSON round-trippable (``to_doc``/``from_doc``) so a chaos run
can be described in a file and attached to a bug report, and
:func:`preset` builds the named storm profiles the chaos bench sweeps
(``disk``, ``contention``, ``overload``, ``mixed``, ``poison``) at a
given intensity.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.errors import FaultInjected, StoreError

FAULT_KINDS = ("delay", "io_error", "abort")
"""The actions a rule may take when it triggers."""

FAILPOINTS = (
    "wal.write",
    "wal.fsync",
    "store.install",
    "store.read",
    "monitor.observe",
    "service.admit",
    "service.commit",
)
"""The failpoints instrumented in the stack (documented in
:mod:`repro.faults.failpoints`); a rule may target only these."""


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault over one failpoint.

    Attributes:
        point: failpoint name (e.g. ``"wal.fsync"``).
        kind: one of :data:`FAULT_KINDS`.
        probability: chance that an eligible hit triggers, drawn from
            the rule's seeded stream (1.0 = every eligible hit).
        delay: sleep duration in seconds for ``"delay"`` (also applied
            before raising for the error kinds when non-zero).
        start: hits to skip before the rule becomes eligible (the
            rule's k-th eligible hit is overall hit ``start + k``).
        stop: hit index at which the rule stops being eligible
            (``None`` = never).
        limit: maximum number of triggers (``None`` = unlimited).
        detail: free-form text carried into the raised error.
    """

    point: str
    kind: str
    probability: float = 1.0
    delay: float = 0.0
    start: int = 0
    stop: Optional[int] = None
    limit: Optional[int] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.point not in FAILPOINTS:
            raise StoreError(
                f"unknown failpoint {self.point!r}; expected one of "
                f"{FAILPOINTS}"
            )
        if self.kind not in FAULT_KINDS:
            raise StoreError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise StoreError(
                f"fault probability must be in [0, 1], got "
                f"{self.probability}"
            )
        if self.delay < 0:
            raise StoreError(f"fault delay must be >= 0, got {self.delay}")
        if self.start < 0:
            raise StoreError(f"fault start must be >= 0, got {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise StoreError(
                f"fault stop ({self.stop}) must be past start "
                f"({self.start})"
            )
        if self.limit is not None and self.limit < 1:
            raise StoreError(f"fault limit must be >= 1, got {self.limit}")

    def to_doc(self) -> Dict[str, Any]:
        """The rule as a plain JSON-able dict."""
        return {
            "point": self.point,
            "kind": self.kind,
            "probability": self.probability,
            "delay": self.delay,
            "start": self.start,
            "stop": self.stop,
            "limit": self.limit,
            "detail": self.detail,
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "FaultRule":
        """Rebuild a rule from :meth:`to_doc`'s shape (unknown keys and
        failpoints are rejected so typos in a hand-written plan fail
        loudly)."""
        known = {
            "point", "kind", "probability", "delay", "start", "stop",
            "limit", "detail",
        }
        unknown = set(doc) - known
        if unknown:
            raise StoreError(
                f"unknown fault rule key(s): {sorted(unknown)}"
            )
        if "point" not in doc or "kind" not in doc:
            raise StoreError("fault rule needs 'point' and 'kind'")
        return cls(**dict(doc))


class _RuleState:
    """Mutable trigger bookkeeping for one rule (guarded by the plan
    lock): its seeded decision stream, hits seen, triggers fired."""

    __slots__ = ("rng", "hits", "triggers")

    def __init__(self, seed: int, index: int, point: str):
        self.rng = random.Random(f"{seed}:{index}:{point}")
        self.hits = 0
        self.triggers = 0


class FaultPlan:
    """A seeded schedule of fault events over named failpoints.

    Arm it on the process-wide injector
    (:func:`repro.faults.failpoints.armed`) and every instrumented site
    consults it; :meth:`fire` is the decision entry point.

    Args:
        rules: the fault rules (evaluated in order on every hit of
            their failpoint; several rules may target one point).
        seed: seeds every rule's decision stream.
        name: label carried into reports.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule] = (),
        seed: int = 0,
        name: str = "custom",
    ):
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self.name = name
        self._lock = threading.Lock()
        self._states = [
            _RuleState(seed, i, rule.point)
            for i, rule in enumerate(self.rules)
        ]
        self._hit_counts: Dict[str, int] = {}
        self._trigger_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Decision path (called from the armed injector)
    # ------------------------------------------------------------------

    def fire(self, point: str, **context: Any) -> None:
        """Evaluate every rule targeting ``point`` for this hit.

        Sleeps for ``"delay"`` triggers (outside the plan lock), raises
        :class:`OSError` for ``"io_error"`` and
        :class:`~repro.core.errors.FaultInjected` for ``"abort"``.
        """
        sleep_for = 0.0
        error: Optional[BaseException] = None
        with self._lock:
            self._hit_counts[point] = self._hit_counts.get(point, 0) + 1
            for rule, state in zip(self.rules, self._states):
                if rule.point != point:
                    continue
                state.hits += 1
                hit = state.hits - 1  # 0-based hit index for this rule
                if hit < rule.start:
                    continue
                if rule.stop is not None and hit >= rule.stop:
                    continue
                if rule.limit is not None and state.triggers >= rule.limit:
                    continue
                if rule.probability < 1.0:
                    if state.rng.random() >= rule.probability:
                        continue
                state.triggers += 1
                self._trigger_counts[point] = (
                    self._trigger_counts.get(point, 0) + 1
                )
                if rule.delay > 0:
                    sleep_for += rule.delay
                if rule.kind == "io_error" and error is None:
                    error = OSError(
                        f"injected I/O error at {point!r}"
                        + (f" ({rule.detail})" if rule.detail else "")
                    )
                elif rule.kind == "abort" and error is None:
                    error = FaultInjected(point, rule.detail)
        if sleep_for > 0:
            time.sleep(sleep_for)
        if error is not None:
            raise error

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def points(self) -> List[str]:
        """The failpoints this plan targets (sorted, unique)."""
        return sorted({rule.point for rule in self.rules})

    def hit_counts(self) -> Dict[str, int]:
        """Hits seen per failpoint since arming (copy)."""
        with self._lock:
            return dict(self._hit_counts)

    def trigger_counts(self) -> Dict[str, int]:
        """Faults actually injected per failpoint (copy)."""
        with self._lock:
            return dict(self._trigger_counts)

    @property
    def total_triggers(self) -> int:
        """Faults injected across every failpoint."""
        with self._lock:
            return sum(self._trigger_counts.values())

    def poisons_wal(self) -> bool:
        """Whether any rule can poison the write-ahead log (an
        ``io_error`` on a ``wal.*`` failpoint) — chaos invariants flip
        from "returns to healthy" to "degrades as configured" then."""
        return any(
            rule.kind == "io_error" and rule.point.startswith("wal.")
            for rule in self.rules
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        """The plan as a plain JSON-able dict."""
        return {
            "name": self.name,
            "seed": self.seed,
            "rules": [rule.to_doc() for rule in self.rules],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The plan as a JSON document."""
        return json.dumps(self.to_doc(), indent=indent, sort_keys=True)

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_doc`'s shape."""
        rules = [FaultRule.from_doc(r) for r in doc.get("rules", [])]
        return cls(
            rules,
            seed=int(doc.get("seed", 0)),
            name=str(doc.get("name", "custom")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json`'s output."""
        return cls.from_doc(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file."""
        with open(path) as f:
            return cls.from_doc(json.load(f))


# ----------------------------------------------------------------------
# Storm profiles
# ----------------------------------------------------------------------

PROFILES = ("disk", "contention", "overload", "mixed", "poison")
"""Named storm profiles :func:`preset` can build."""


def preset(
    profile: str, intensity: float = 0.5, seed: int = 0
) -> FaultPlan:
    """A named storm profile at the given intensity.

    ``intensity`` in [0, 1] scales both the probability and the
    duration of the injected faults; 0 yields an empty plan (the
    baseline the chaos bench compares against).

    Profiles:

    * ``disk`` — fsync stalls and slow segment writes in the WAL's
      batch leader (durability latency without data loss);
    * ``contention`` — injected commit-time aborts plus thread pauses
      inside the store's lock stripes (write-conflict storms);
    * ``overload`` — admission spikes plus a slow certifier hand-off
      stalling the commit critical section;
    * ``mixed`` — all of the above at once;
    * ``poison`` — a ``mixed`` storm that additionally kills the log
      with one injected I/O error partway through (exercises the
      ``on_wal_failure`` degradation policy and crash recovery).
    """
    if profile not in PROFILES:
        raise StoreError(
            f"unknown chaos profile {profile!r}; expected one of "
            f"{PROFILES}"
        )
    if not 0.0 <= intensity <= 1.0:
        raise StoreError(
            f"chaos intensity must be in [0, 1], got {intensity}"
        )
    if intensity == 0.0:
        return FaultPlan([], seed=seed, name=f"{profile}@0")

    rules: List[FaultRule] = []
    p = intensity

    def disk_rules() -> List[FaultRule]:
        return [
            FaultRule(
                "wal.fsync", "delay", probability=min(1.0, 0.6 * p),
                delay=0.002 + 0.008 * p, detail="fsync stall",
            ),
            FaultRule(
                "wal.write", "delay", probability=min(1.0, 0.3 * p),
                delay=0.001 * p, detail="slow segment write",
            ),
        ]

    def contention_rules() -> List[FaultRule]:
        return [
            FaultRule(
                "service.commit", "abort", probability=min(1.0, 0.35 * p),
                detail="injected validation storm",
            ),
            FaultRule(
                "store.install", "delay", probability=min(1.0, 0.25 * p),
                delay=0.0005 + 0.002 * p, detail="stripe-holder pause",
            ),
        ]

    def overload_rules() -> List[FaultRule]:
        return [
            FaultRule(
                "service.admit", "delay", probability=min(1.0, 0.4 * p),
                delay=0.001 + 0.004 * p, detail="admission spike",
            ),
            FaultRule(
                "monitor.observe", "delay", probability=min(1.0, 0.5 * p),
                delay=0.001 + 0.003 * p, detail="slow certifier",
            ),
        ]

    if profile == "disk":
        rules += disk_rules()
    elif profile == "contention":
        rules += contention_rules()
    elif profile == "overload":
        rules += overload_rules()
    else:  # mixed / poison
        rules += disk_rules() + contention_rules() + overload_rules()
    if profile == "poison":
        # One unrecoverable disk error partway into the storm; scale
        # the onset with intensity so harder storms die earlier.
        rules.append(
            FaultRule(
                "wal.write", "io_error",
                start=max(5, int(60 * (1.0 - 0.5 * p))), limit=1,
                detail="injected disk death",
            )
        )
    return FaultPlan(rules, seed=seed, name=f"{profile}@{intensity:g}")
