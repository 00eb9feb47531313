"""Online consistency monitoring (the §7 application of Theorem 9).

The paper notes that dependency-graph specifications are what run-time
monitors need: a monitor sees committed transactions (their reads and
writes) and must decide whether the accumulated behaviour is still
explainable by the claimed consistency model — *without* guessing
implementation internals like snapshot timestamps.

:class:`ConsistencyMonitor` does exactly that.  It observes commits in
commit order, incrementally maintains the dependency graph —

* **WR** by attributing each external read to the writer of the value
  (the monitor tracks, per object, which committed transaction wrote each
  value; ambiguous duplicate values are rejected in strict mode);
* **WW** as the observed commit order restricted to each object's writers
  (Definition 5 with CO = real commit order);
* **RW** derived incrementally: when ``T`` overwrites a version, every
  earlier reader of that object (found through a per-object readers
  index) gains an anti-dependency to ``T``; when ``T`` reads a version
  that was already overwritten, ``T`` gains anti-dependencies to the
  overwriters —

and after every commit re-checks the model's graph condition
(Theorem 9 for SI, Theorem 8 for SER, Theorem 21 for PSI).  On a
violation it reports the offending cycle, and the monitor keeps the full
graph so post-mortem extraction is possible.

Two certification back-ends are available via the ``checker`` knob:

* ``"incremental"`` (the default) maintains the model's composed
  relation as a DAG under a dynamic topological order
  (:mod:`repro.monitor.incremental`), so each commit costs work
  proportional to its own edge deltas' affected region — near-amortised
  constant in the common no-violation case.  A cycle-closing edge is
  reported and dropped, so certification continues on the still-acyclic
  remainder: each violation is flagged once, at the commit that closes
  it.
* ``"rebuild"`` re-derives every relation and re-runs the full cycle
  test on each commit — ``O(V+E)`` per commit for SI/SER and a full
  transitive closure for PSI.  It is kept as the differential-testing
  oracle (``tests/monitor/test_parity.py``); once a cycle exists it is
  re-flagged at every subsequent commit.

With ``window=W`` the monitor keeps only the last ``W`` committed
transactions as graph nodes and garbage-collects everything older, so
memory and per-commit work stay bounded under sustained service load.
Garbage collection is *sound within the window*: eviction removes only
nodes older than the window with their incident edges, never an edge
between two retained transactions, so a violating cycle whose
transactions all lie within one window is flagged at the same commit
as without a window (``tests/monitor/test_windowed.py``).  A cycle
*spanning* more than a window is missed, so the window must exceed the
anomaly horizon of interest (for the MVCC engines: the maximum number
of commits overlapping any transaction's lifetime).

Version attribution survives eviction.  The value table keeps each
object's *current* version attributed even after its writer is evicted
(a later reader of it gains anti-dependencies to every retained
overwriter, but no WR edge to the dead node).  A *superseded* version
stays attributed until the transaction that overwrote it is evicted
too: a read's staleness is bounded by how long ago its version was
overwritten, not written.  After that a strict monitor reports a read
of the version as unattributable rather than misclassifying it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ReproError
from ..core.events import Obj, Op, Value
from ..core.relations import Relation
from ..core.transactions import Transaction
from ..mvcc.engine import BaseEngine
from .incremental import IncrementalChecker, make_checker


class MonitorError(ReproError):
    """Misuse of the monitor (duplicate tids, unattributable reads, ...)."""


@dataclass(frozen=True)
class Violation:
    """A detected consistency violation.

    Attributes:
        model: the model whose condition failed.
        tid: the transaction whose commit triggered the detection.
        cycle: a witness cycle, as a list of tids (first == last).
        message: human-readable explanation.
    """

    model: str
    tid: str
    cycle: List[str]
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass
class _TxnRecord:
    txn: Transaction
    session: str


class ConsistencyMonitor:
    """Online checker for SI / SER / PSI over an observed commit stream.

    Args:
        model: ``"SI"`` (default), ``"SER"`` or ``"PSI"``.
        initial_values: object → initial value; an implicit initialisation
            transaction owns these versions.
        strict_values: reject runs in which a read value cannot be
            attributed to a unique writer (the default); with ``False``
            the most recent writer of the value wins.
        init_tid: the tid used for the implicit initialisation writer.
        checker: ``"incremental"`` (default — dynamic-topological-order
            certification, amortised per-commit cost) or ``"rebuild"``
            (full per-commit recheck, the differential-testing oracle).
        window: retain only this many of the most recent commits as
            graph nodes (at least 2), garbage-collecting older ones;
            ``None`` (default) keeps the full graph.  With the
            incremental checker eviction is pure bookkeeping: removing
            nodes never invalidates the maintained topological order.
    """

    MODELS = ("SI", "SER", "PSI")
    CHECKERS = ("incremental", "rebuild")

    def __init__(
        self,
        model: str = "SI",
        initial_values: Optional[Dict[Obj, Value]] = None,
        strict_values: bool = True,
        init_tid: str = "t_init",
        checker: str = "incremental",
        window: Optional[int] = None,
    ):
        if model not in self.MODELS:
            raise MonitorError(
                f"unknown model {model!r}; expected one of {self.MODELS}"
            )
        if checker not in self.CHECKERS:
            raise MonitorError(
                f"unknown checker {checker!r}; expected one of "
                f"{self.CHECKERS}"
            )
        if window is not None and window < 2:
            raise MonitorError(
                f"window must be at least 2 transactions, got {window}"
            )
        self.model = model
        self.checker = checker
        self.strict_values = strict_values
        self.init_tid = init_tid
        self.window = window
        # The graph's nodes, in commit order (oldest first).
        self._records: Dict[str, _TxnRecord] = {}
        self._sessions: Dict[str, List[str]] = {}
        # Per object: the committed writer sequence and value attribution.
        self._writers: Dict[Obj, List[str]] = {}
        self._value_writer: Dict[Obj, Dict[Value, str]] = {}
        self._attribution_count = 0
        self._collided: Dict[Obj, Set[Value]] = {}
        # Per object: reader tid → the version (writer tid) it read.
        self._readers: Dict[Obj, Dict[str, str]] = {}
        # Per object: the value of the newest committed version.
        self._latest_value: Dict[Obj, Value] = {}
        # Dependency edges over tids.
        self._so: Set[Tuple[str, str]] = set()
        self._wr: Set[Tuple[str, str]] = set()
        self._ww: Set[Tuple[str, str]] = set()
        self._rw: Set[Tuple[str, str]] = set()
        self._core: Optional[IncrementalChecker] = (
            make_checker(model) if checker == "incremental" else None
        )
        # Windowed mode: tombstones of garbage-collected tids (for the
        # duplicate check) and, per retained commit, the (obj, value,
        # writer) versions its writes superseded — their attributions
        # expire with it.
        self.evicted_count = 0
        self._evicted: Set[str] = set()
        self._superseded_by: Dict[str, List[Tuple[Obj, Value, str]]] = {}
        self.violations: List[Violation] = []
        if initial_values:
            for obj, value in initial_values.items():
                self._writers[obj] = [init_tid]
                self._value_writer.setdefault(obj, {})[value] = init_tid
                self._latest_value[obj] = value
            self._attribution_count = len(initial_values)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_commit(
        self, tid: str, session: str, events: Sequence[Op]
    ) -> Optional[Violation]:
        """Feed one committed transaction (in real commit order).

        Returns a :class:`Violation` if the accumulated behaviour is no
        longer allowed by the model, else ``None``.  Monitoring continues
        after a violation (further commits are still processed).  In
        windowed mode the oldest commits are then evicted.
        """
        if tid in self._records or tid in self._evicted:
            raise MonitorError(f"transaction {tid!r} observed twice")
        txn = _make_transaction(tid, events)
        self._records[tid] = _TxnRecord(txn, session)
        if self._core is not None:
            self._core.add_node(tid)

        # This commit's new edges, each once, in discovery order.  Every
        # edge touches ``tid``, so none can predate this commit.
        new_dep: Dict[Tuple[str, str], None] = {}
        new_rw: Dict[Tuple[str, str], None] = {}

        def dep_edge(kind: Set[Tuple[str, str]], a: str, b: str) -> None:
            kind.add((a, b))
            new_dep[(a, b)] = None

        def rw_edge(a: str, b: str) -> None:
            self._rw.add((a, b))
            new_rw[(a, b)] = None

        # SO: edges from every earlier transaction of the session.
        earlier = self._sessions.setdefault(session, [])
        for prev in earlier:
            dep_edge(self._so, prev, tid)
        earlier.append(tid)

        # WR and RW-out: attribute external reads to writers.
        for obj in sorted(txn.external_read_objects):
            value = txn.external_read(obj)
            writer = self._attribute_read(tid, obj, value)
            self._readers.setdefault(obj, {})[tid] = writer
            if writer != tid and writer in self._records:
                dep_edge(self._wr, writer, tid)
            # RW out of this reader towards every later overwriter of
            # that version.  A writer missing from the object's writer
            # sequence was evicted: it preceded every retained writer
            # (eviction follows commit order), so all of them — but not
            # the initialisation writer — overwrote its version.
            seq = self._writers.get(obj, [])
            if writer in seq:
                overwriters = seq[seq.index(writer) + 1 :]
            elif writer != self.init_tid:
                overwriters = [t for t in seq if t != self.init_tid]
            else:
                overwriters = []
            for later in overwriters:
                if later != tid:
                    rw_edge(tid, later)

        # WW and RW-in for writes: this transaction overwrites the
        # current last version of each object it writes.
        superseded: List[Tuple[Obj, Value, str]] = []
        for obj in sorted(txn.written_objects):
            seq = self._writers.setdefault(obj, [])
            for prev in seq:
                if prev != tid and prev in self._records:
                    dep_edge(self._ww, prev, tid)
            # Earlier readers of obj gain RW edges to tid (the readers
            # index makes this O(readers-of-obj), not O(total reads)).
            for reader in self._readers.get(obj, ()):
                if reader != tid:
                    rw_edge(reader, tid)
            seq.append(tid)
            value = txn.final_write(obj)
            table = self._value_writer.setdefault(obj, {})
            previous = self._latest_value.get(obj, value)
            if self.window is not None and previous != value:
                superseded.append((obj, previous, table[previous]))
            if value not in table:
                self._attribution_count += 1
            elif table[value] != tid:
                self._collided.setdefault(obj, set()).add(value)
            table[value] = tid
            self._latest_value[obj] = value

        violation = self._check(tid, list(new_dep), list(new_rw))
        if violation is not None:
            self.violations.append(violation)
        if self.window is not None:
            if superseded:
                self._superseded_by[tid] = superseded
            while len(self._records) > self.window:
                self._evict(next(iter(self._records)))
            self._prune_evicted_set()
        return violation

    def _attribute_read(self, tid: str, obj: Obj, value: Value) -> str:
        table = self._value_writer.get(obj, {})
        if self.strict_values and value in self._collided.get(obj, set()):
            raise MonitorError(
                f"{tid}: read of {obj}={value!r} is ambiguous — several "
                f"transactions wrote that value (disable strict_values to "
                f"attribute to the most recent one)"
            )
        if value in table:
            return table[value]
        if self.strict_values:
            raise MonitorError(
                f"{tid}: read of {obj}={value!r} matches no committed write"
            )
        return self.init_tid

    # ------------------------------------------------------------------
    # Garbage collection (windowed mode)
    # ------------------------------------------------------------------

    def _evict(self, old: str) -> None:
        """Remove ``old`` and every incident edge from the graph."""
        record = self._records.pop(old)
        self._evicted.add(old)
        self.evicted_count += 1
        if self._core is not None:
            self._core.remove_node(old)
        session_tids = self._sessions[record.session]
        session_tids.remove(old)
        if not session_tids:
            del self._sessions[record.session]
        for edges in (self._so, self._wr, self._ww, self._rw):
            edges.difference_update(
                [(a, b) for a, b in edges if a == old or b == old]
            )
        for obj in record.txn.external_read_objects:
            readers = self._readers.get(obj)
            if readers is not None:
                readers.pop(old, None)
                if not readers:
                    del self._readers[obj]
        for obj in record.txn.written_objects:
            self._writers[obj].remove(old)
        # The versions ``old`` overwrote have now been stale for a full
        # window: no attributable read can still return them.  Drop an
        # attribution only while it still names the superseded writer —
        # a later writer of the same value keeps its own.
        for obj, value, writer in self._superseded_by.pop(old, ()):
            table = self._value_writer[obj]
            if table.get(value) == writer:
                del table[value]
                self._attribution_count -= 1
                collided = self._collided.get(obj)
                if collided is not None:
                    collided.discard(value)
                    if not collided:
                        del self._collided[obj]

    def _prune_evicted_set(self) -> None:
        """Forget evicted tids nothing references any more, keeping the
        tombstone set (and so total memory) bounded by the window."""
        if len(self._evicted) <= self.window + self._attribution_count:
            return
        referenced = {
            version
            for readers in self._readers.values()
            for version in readers.values()
        }
        for table in self._value_writer.values():
            # Every retained attribution keeps its writer's tombstone,
            # so the duplicate check covers every tid still named.
            referenced.update(table.values())
        self._evicted &= referenced

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def _check(
        self,
        tid: str,
        new_dep: Sequence[Tuple[str, str]],
        new_rw: Sequence[Tuple[str, str]],
    ) -> Optional[Violation]:
        if self._core is not None:
            cycle = self._core.observe(new_dep, new_rw)
            if cycle is None:
                return None
            return self._violation(tid, cycle)
        return self._check_rebuild(tid)

    def _violation(self, tid: str, cycle: Sequence[str]) -> Violation:
        return Violation(
            model=self.model,
            tid=tid,
            cycle=list(cycle),
            message=(
                f"{self.model} violated at commit of {tid}: "
                f"dependency cycle {' -> '.join(map(str, cycle))}"
            ),
        )

    def _dependency_relations(self):
        universe = set(self._records)
        universe.add(self.init_tid)
        so = Relation(self._so, universe)
        wr = Relation(self._wr, universe)
        ww = Relation(self._ww, universe)
        rw = Relation(self._rw, universe)
        return so, wr, ww, rw

    def _check_rebuild(self, tid: str) -> Optional[Violation]:
        """Full re-derivation of the model's graph condition (oracle)."""
        so, wr, ww, rw = self._dependency_relations()
        deps = so.union(wr, ww)
        if self.model == "SER":
            target = deps.union(rw)
            bad = not target.is_acyclic()
        elif self.model == "SI":
            target = deps.compose(rw.reflexive())
            bad = not target.is_acyclic()
        else:  # PSI
            closure = deps.transitive_closure()
            target = closure.compose(rw.reflexive())
            bad = not target.is_irreflexive()
            if bad:
                return self._violation(tid, _psi_witness(deps, rw, closure))
        if not bad:
            return None
        return self._violation(tid, target.find_cycle() or [])

    # ------------------------------------------------------------------
    # Post-mortem views
    # ------------------------------------------------------------------

    @property
    def consistent(self) -> bool:
        """True iff no violation has been detected so far."""
        return not self.violations

    @property
    def commit_count(self) -> int:
        """Number of commits observed (including evicted ones)."""
        return len(self._records) + self.evicted_count

    @property
    def retained_count(self) -> int:
        """Number of transactions currently in the graph."""
        return len(self._records)

    def dependency_edges(self) -> Dict[str, Set[Tuple[str, str]]]:
        """The accumulated dependency edges (over tids), for inspection."""
        return {
            "SO": set(self._so),
            "WR": set(self._wr),
            "WW": set(self._ww),
            "RW": set(self._rw),
        }

    def state_size(self) -> Dict[str, int]:
        """Rough sizes of the GC-bounded structures (for tests/benches)."""
        return {
            "records": len(self._records),
            "edges": sum(
                len(s) for s in (self._so, self._wr, self._ww, self._rw)
            ),
            "read_versions": sum(
                len(readers) for readers in self._readers.values()
            ),
            "value_attributions": sum(
                len(t) for t in self._value_writer.values()
            ),
            "evicted_tombstones": len(self._evicted),
        }


def _psi_witness(
    deps: Relation, rw: Relation, closure: Relation
) -> List[str]:
    """An actual dependency loop witnessing a PSI violation.

    ``(deps+ ; rw?)`` being reflexive somewhere means either ``deps``
    itself has a cycle, or some anti-dependency ``(c, a)`` is closed by
    a dependency path ``a ⇒ c``; reconstruct and return that loop
    (``[a, ..., c, a]``) rather than a degenerate ``[t, t]`` pair.
    """
    cycle = deps.find_cycle()
    if cycle is not None:
        return list(cycle)
    for c, a in rw:
        if (a, c) in closure.pairs:
            path = _dep_path(deps, a, c)
            if path is not None:
                return path + [a]
    return []


def _dep_path(deps: Relation, a: str, c: str) -> Optional[List[str]]:
    """A BFS path ``[a, ..., c]`` through ``deps``, if one exists."""
    if a == c:
        return [a]
    succ = deps.successors_map()
    parent: Dict[str, Optional[str]] = {a: None}
    queue: deque = deque([a])
    while queue:
        node = queue.popleft()
        for nxt in succ.get(node, ()):
            if nxt == c:
                path = [c, node]
                cursor = parent[node]
                while cursor is not None:
                    path.append(cursor)
                    cursor = parent[cursor]
                path.reverse()
                return path
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def watch_engine(
    engine: BaseEngine, model: str = "SI"
) -> Tuple[ConsistencyMonitor, List[Violation]]:
    """Replay an engine's committed records through a fresh monitor.

    Returns the monitor and the list of violations found.  The engine's
    initial values provide the implicit initialisation versions.
    """
    monitor = ConsistencyMonitor(
        model=model,
        initial_values=dict(engine.initial),
        init_tid=engine.init_tid,
    )
    violations: List[Violation] = []
    for record in sorted(engine.committed, key=lambda r: r.commit_ts):
        violation = monitor.observe_commit(
            record.tid, record.session, list(record.events)
        )
        if violation is not None:
            violations.append(violation)
    return monitor, violations


def _make_transaction(tid: str, events: Sequence[Op]) -> Transaction:
    from ..core.events import Event

    return Transaction(
        tid, tuple(Event(i, op) for i, op in enumerate(events))
    )
