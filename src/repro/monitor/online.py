"""Online consistency monitoring (the §7 application of Theorem 9).

The paper notes that dependency-graph specifications are what run-time
monitors need: a monitor sees committed transactions (their reads and
writes) and must decide whether the accumulated behaviour is still
explainable by the claimed consistency model — *without* guessing
implementation internals like snapshot timestamps.

:class:`ConsistencyMonitor` does exactly that.  It observes commits in
commit order, incrementally maintains the dependency graph —

* **WR** as given: a read served from the store names its version by
  ``commit_ts`` (its *source*, :attr:`CommitRecord.sources`), and the
  monitor checks the value read against the writer's;
* **WW** as the observed commit order restricted to each object's writers
  (Definition 5 with CO = real commit order);
* **RW** derived incrementally: when ``T`` overwrites an object, the
  readers of that object observed since its previous write gain an
  anti-dependency to ``T``; when ``T`` reads a version that was already
  overwritten, ``T`` gains anti-dependencies to the overwriters —

and after every commit re-checks the model's graph condition
(Theorem 9 for SI, Theorem 8 for SER, Theorem 21 for PSI).  On a
violation it reports the offending cycle.  A black-box history, which
has no sources, gets them by value from :func:`sourced_commits`.

The graph it certifies is the dependency graph's *transitive
reduction* along the total orders: SO and WW edges only from the
session's and the object's previous transaction, and an RW edge into a
writer only from the readers since the object's previous write.  Every
omitted edge is a path of retained edges (an earlier reader's
anti-dependency to a later overwriter is its anti-dependency to the
first overwriter followed by WW), and a path of this shape never has
more anti-dependencies in a row than the edge it replaces, so each
model's condition has the same cycles on both graphs
(``docs/ALGORITHMS.md``).  Each commit therefore adds edges for its own
reads and writes, not for the whole history.  :meth:`dependency_edges`
derives the full SO/WR/WW/RW relations on demand from the retained
commits (each keeps the versions it read) and the per-object writer
sequences.

Two certification back-ends are available via the ``checker`` knob:

* ``"incremental"`` (the default) maintains a plain graph with the
  model's cycles — for SI a split graph in which no cycle takes two
  anti-dependencies in a row — as a DAG under a dynamic topological
  order (:mod:`repro.monitor.incremental`).  Each commit is handed over
  in one call: the tids with a dep edge into it, the overwriters its
  stale reads anti-depend on and the readers that anti-depend on it.
  Its dep edges enter a node with no out-edges and cost O(1); only its
  anti-dependencies can reorder or close a cycle.  A cycle-closing edge
  is reported and dropped, so certification continues on the
  still-acyclic remainder: each violation is flagged once, at the
  commit that closes it.
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
between two retained transactions.  The path that stands in for an
omitted edge runs through transactions that committed after the edge's
source, and eviction is oldest first, so the path is retained whenever
both ends are.  A violating cycle whose transactions all lie within one
window is therefore flagged at the same commit as without a window
(``tests/monitor/test_windowed.py``).  After a violation the oldest
commit over the window stays until the next commit arrives, so
:meth:`dependency_edges` still holds every step of the witness.  A cycle
*spanning* more than a window is missed, so the window must exceed the
anomaly horizon of interest (for the MVCC engines: the maximum number
of commits overlapping any transaction's lifetime).

Commit timestamps rise, so a source below the oldest retained
commit's names an evicted writer, older than every retained one: the
read anti-depends on each retained writer of the object, unchecked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from ..core.errors import ReproError
from ..core.events import Obj, Op, OpKind, Value
from ..core.relations import Relation
from ..core.transactions import final_writes
from ..mvcc.engine import BaseEngine, CommitRecord, store_reads
from .incremental import IncrementalChecker, make_checker


class MonitorError(ReproError):
    """Misuse of the monitor (duplicate tids, unknown sources, ...)."""


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
    session: str
    commit_ts: int
    # Its external reads as (object, version's writer or None if
    # evicted) pairs, sorted by object, and its final writes; eviction
    # unhooks it from the fresh-reader and writer indexes.
    reads: Tuple[Tuple[Obj, Optional[str]], ...]
    writes: Dict[Obj, Value]
    # Reduced-graph edges whose older endpoint this transaction is;
    # they leave the graph with it (eviction is oldest first).
    edges: int = 0


_UNWRITTEN = object()
_WRITE = OpKind.WRITE


class ConsistencyMonitor:
    """Online checker for SI / SER / PSI over an observed commit stream.

    Args:
        model: ``"SI"`` (default), ``"SER"`` or ``"PSI"``.
        initial_values: object → initial value; an implicit initialisation
            transaction owns these versions.  The mapping is shared,
            not copied, and must not change afterwards: an object's
            writer sequence is built from it when a commit first writes
            the object, so construction costs nothing per object.
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
        initial_values: Optional[Mapping[Obj, Value]] = None,
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
        self.init_tid = init_tid
        self.window = window
        # The graph's nodes, in commit order (oldest first), and their
        # tids by commit_ts, which is how sources name them.
        self._records: Dict[str, _TxnRecord] = {}
        self._by_ts: Dict[int, str] = {}
        self._last_ts = 0
        # Per session: its newest retained transaction.
        self._sessions: Dict[str, str] = {}
        # The implicit initialisation transaction's writes.  An
        # object's writer sequence is built from them on its first
        # write; until then the object has only its initial version.
        self._initial: Mapping[Obj, Value] = initial_values or {}
        # Per object: the retained committed writer sequence.
        self._writers: Dict[Obj, List[str]] = {}
        # Per object: the readers observed since its newest write, the
        # only ones whose anti-dependency into the next writer is not
        # implied by an edge already in the graph.
        self._fresh_readers: Dict[Obj, Dict[str, None]] = {}
        # Edges fed to the certifier and not yet evicted.
        self._edge_count = 0
        self._core: Optional[IncrementalChecker] = (
            make_checker(model) if checker == "incremental" else None
        )
        self.evicted_count = 0
        self.violations: List[Violation] = []

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def observe_commit(self, record: CommitRecord) -> Optional[Violation]:
        """Feed one committed transaction (in real commit order).

        ``record`` is a :class:`CommitRecord` or a
        :class:`SourcedCommit`.

        Returns a :class:`Violation` if the accumulated behaviour is no
        longer allowed by the model, else ``None``.  Monitoring continues
        after a violation (further commits are still processed).  In
        windowed mode the oldest commits are then evicted, down to the
        window — or one commit over it after a violation, so that
        :meth:`dependency_edges` still holds every step of the witness
        until the next commit.

        Raises:
            MonitorError: a retained tid, a ``commit_ts`` that does not
                rise, or a source that is unknown, miscounted or did
                not write the value read; nothing is recorded.
        """
        tid = record.tid
        commit_ts = record.commit_ts
        if tid in self._records:
            raise MonitorError(f"transaction {tid!r} observed twice")
        if commit_ts <= self._last_ts:
            raise MonitorError(
                f"{tid}: commit_ts {commit_ts} does not rise above the "
                f"last observed #{self._last_ts}"
            )
        if self.window is not None:
            # Only the commit over the window a violation left behind.
            while len(self._records) > self.window:
                self._evict(next(iter(self._records)))
        reads, writes = _sourced_footprint(record)
        # Resolve every read before touching any state, so that a
        # rejected commit leaves the monitor as it was.
        oldest = next(iter(self._by_ts), commit_ts)
        read_versions = tuple(
            (obj, self._writer_of(tid, obj, *reads[obj], oldest))
            for obj in sorted(reads)
        )

        # This commit's edges of the transitive reduction, each once, in
        # discovery order: the tids with a dep edge into ``tid``, the
        # overwriters ``tid`` anti-depends on and the readers that
        # anti-depend on ``tid``.
        deps_in: Dict[str, None] = {}
        rw_out: Dict[str, None] = {}
        rw_in: Dict[str, None] = {}

        # SO: an edge from the session's previous retained transaction;
        # the earlier ones reach ``tid`` through it.
        session = record.session
        last = self._sessions.get(session)
        if last is not None:
            deps_in[last] = None
        self._sessions[session] = tid

        # WR and RW-out from the external reads.
        for obj, writer in read_versions:
            self._fresh_readers.setdefault(obj, {})[tid] = None
            if writer in self._records:
                deps_in[writer] = None
            # A stale read: RW to every overwriter already committed.
            # Later overwriters are reached through the fresh-readers
            # list and WW.
            for later in self._overwriters(obj, writer):
                rw_out[later] = None

        # WW and RW-in for writes: this transaction overwrites the
        # current last version of each object it writes.  Readers from
        # before the previous write already reach that writer, and WW
        # carries them on to ``tid``.
        for obj in sorted(writes):
            seq = self._writers.get(obj)
            if seq is None:
                seq = [self.init_tid] if obj in self._initial else []
                self._writers[obj] = seq
            if seq and seq[-1] in self._records:
                deps_in[seq[-1]] = None
            for reader in self._fresh_readers.pop(obj, ()):
                if reader != tid:
                    rw_in[reader] = None
            seq.append(tid)

        self._records[tid] = _TxnRecord(
            session, commit_ts, read_versions, writes
        )
        self._by_ts[commit_ts] = tid
        self._last_ts = commit_ts
        # Charge each edge to its older endpoint, the one that is not
        # ``tid``.
        for older in (deps_in, rw_out, rw_in):
            for other in older:
                self._records[other].edges += 1
            self._edge_count += len(older)

        if self._core is not None:
            cycle = self._core.observe(tid, deps_in, rw_out, rw_in)
            violation = None if cycle is None else self._violation(tid, cycle)
        else:
            violation = self._check_rebuild(tid)
        if violation is not None:
            self.violations.append(violation)
        if self.window is not None:
            while len(self._records) > self.window + (violation is not None):
                self._evict(next(iter(self._records)))
        return violation

    def _writer_of(
        self, tid: str, obj: Obj, value: Value, source: int, oldest: int
    ) -> Optional[str]:
        """The writer that ``source`` names (``None`` if evicted), after
        checking that it wrote ``value`` to ``obj``."""
        if source == 0:
            writer = self.init_tid
            wrote = self._initial.get(obj, _UNWRITTEN)
        elif source in self._by_ts:
            writer = self._by_ts[source]
            wrote = self._records[writer].writes.get(obj, _UNWRITTEN)
        elif 0 < source < oldest:
            return None
        else:
            raise MonitorError(
                f"{tid}: read of {obj} names commit #{source}, which "
                f"the monitor has not observed"
            )
        if wrote is _UNWRITTEN or (value is not wrote and value != wrote):
            did = (f"did not write {obj}" if wrote is _UNWRITTEN
                   else f"wrote {wrote!r}")
            raise MonitorError(
                f"{tid}: read {obj}={value!r}, but its source {writer} "
                f"(#{source}) {did}"
            )
        return writer

    def _overwriters(self, obj: Obj, version: Optional[str]) -> List[str]:
        """The retained writers of ``obj`` that overwrote ``version``:
        all but the initialisation writer for an evicted one (``None``),
        which precedes them (eviction follows commit order)."""
        seq = self._writers.get(obj)
        if not seq or seq[-1] == version:
            return []
        for i in range(len(seq) - 2, -1, -1):
            if seq[i] == version:
                return seq[i + 1 :]
        return [t for t in seq if t != self.init_tid]

    # ------------------------------------------------------------------
    # Garbage collection (windowed mode)
    # ------------------------------------------------------------------

    def _evict(self, old: str) -> None:
        """Remove ``old`` and every incident edge from the graph."""
        record = self._records.pop(old)
        del self._by_ts[record.commit_ts]
        self.evicted_count += 1
        if self._core is not None:
            self._core.remove_node(old)
        # Eviction is oldest first: a session whose newest retained
        # transaction leaves has none left.
        if self._sessions[record.session] == old:
            del self._sessions[record.session]
        self._edge_count -= record.edges
        for obj, _ in record.reads:
            readers = self._fresh_readers.get(obj)
            if readers is not None:
                readers.pop(old, None)
                if not readers:
                    del self._fresh_readers[obj]
        for obj in record.writes:
            self._writers[obj].remove(old)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

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

    def _check_rebuild(self, tid: str) -> Optional[Violation]:
        """Full re-derivation of the model's graph condition (oracle)."""
        universe = set(self._records)
        universe.add(self.init_tid)
        edges = self.dependency_edges()
        so, wr, ww, rw = (
            Relation(edges[kind], universe)
            for kind in ("SO", "WR", "WW", "RW")
        )
        deps = so.union(wr, ww)
        if self.model == "SER":
            target = deps.union(rw)
            if target.is_acyclic():
                return None
            cycle = target.find_cycle() or []
        elif self.model == "SI":
            target = deps.compose(rw.reflexive())
            if target.is_acyclic():
                return None
            cycle = _si_witness(deps, rw, target.find_cycle() or [])
        else:  # PSI
            closure = deps.transitive_closure()
            if closure.compose(rw.reflexive()).is_irreflexive():
                return None
            cycle = _psi_witness(deps, rw, closure)
        return self._violation(tid, cycle)

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
        """The full SO/WR/WW/RW relations over the retained tids.

        Derived on demand from the retained records (in commit order)
        and the per-object writer sequences, so they are the paper's
        relations, not the transitive reduction the incremental checker
        certifies.
        """
        records = self._records
        by_session: Dict[str, List[str]] = {}
        for tid, record in records.items():
            by_session.setdefault(record.session, []).append(tid)
        so: Set[Tuple[str, str]] = set()
        for tids in by_session.values():
            so.update(_chain_pairs(tids))
        writers = {
            obj: [t for t in seq if t in records]
            for obj, seq in self._writers.items()
        }
        ww: Set[Tuple[str, str]] = set()
        for seq in writers.values():
            ww.update(_chain_pairs(seq))
        wr: Set[Tuple[str, str]] = set()
        rw: Set[Tuple[str, str]] = set()
        for reader, record in records.items():
            for obj, version in record.reads:
                seq = writers.get(obj, [])
                if version in records:
                    wr.add((version, reader))
                    later = seq[seq.index(version) + 1 :]
                else:
                    # The initial version, or one whose writer was
                    # evicted: every retained writer overwrote it.
                    later = seq
                rw.update((reader, w) for w in later if w != reader)
        return {"SO": so, "WR": wr, "WW": ww, "RW": rw}

    def state_size(self) -> Dict[str, int]:
        """Rough sizes of the GC-bounded structures (for tests/benches).

        ``edges`` counts the transitive-reduction edges fed to the
        certifier that are still in the graph; ``written_objects`` the
        objects whose writer sequence has been built (those written at
        least once).
        """
        return {
            "records": len(self._records),
            "edges": self._edge_count,
            "read_versions": sum(
                len(record.reads) for record in self._records.values()
            ),
            "fresh_readers": sum(
                len(readers) for readers in self._fresh_readers.values()
            ),
            "written_objects": len(self._writers),
        }


def _sourced_footprint(
    record: CommitRecord,
) -> Tuple[Dict[Obj, Tuple[Value, int]], Dict[Obj, Value]]:
    """``record``'s footprint, each external read with its source (the
    sources follow :func:`~repro.mvcc.engine.store_reads`)."""
    sources = record.sources
    reads: Dict[Obj, Tuple[Value, int]] = {}
    writes: Dict[Obj, Value] = {}
    served = 0
    for op in record.events:
        obj = op.obj
        if op.kind is _WRITE:
            writes[obj] = op.value
        elif obj not in writes:
            if served < len(sources) and obj not in reads:
                reads[obj] = (op.value, sources[served])
            served += 1
    if served != len(sources):
        raise MonitorError(
            f"{record.tid}: {len(sources)} source(s) for {served} "
            f"read(s) served from the store"
        )
    return reads, writes


def _chain_pairs(chain: Sequence[str]) -> List[Tuple[str, str]]:
    """Every ordered pair ``(earlier, later)`` of a total order."""
    return [
        (earlier, later)
        for i, earlier in enumerate(chain)
        for later in chain[i + 1 :]
    ]


def _si_witness(
    deps: Relation, rw: Relation, cycle: Sequence[str]
) -> List[str]:
    """A cycle of ``deps ; rw?`` as the dependency cycle it stands for.

    Each composed pair ``(u, w)`` that is not a dependency becomes
    ``u -> v -> w`` through a middle ``v`` with ``deps(u, v)`` and
    ``rw(v, w)``, so a lost update reads ``[t1, t2, t1]``, not
    ``[t1, t1]``.
    """
    if not cycle:
        return []
    succ = deps.successors_map()
    pred = rw.predecessors_map()
    witness = [cycle[0]]
    for u, w in zip(cycle, cycle[1:]):
        if (u, w) not in deps:
            witness.append(min(succ[u] & pred[w]))
        witness.append(w)
    return witness


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
    initial values provide the implicit initialisation versions, and its
    records their own sources.
    """
    monitor = ConsistencyMonitor(
        model=model,
        initial_values=engine.initial,
        init_tid=engine.init_tid,
    )
    for record in sorted(engine.committed, key=lambda r: r.commit_ts):
        monitor.observe_commit(record)
    return monitor, list(monitor.violations)


class SourcedCommit(NamedTuple):
    """A black-box commit with sources, as :func:`sourced_commits`
    gives it to the monitor."""

    tid: str
    session: str
    commit_ts: int
    events: Tuple[Op, ...]
    sources: Tuple[int, ...]


def sourced_commits(
    history: Iterable[Tuple[str, str, Sequence[Op]]],
    initial_values: Mapping[Obj, Value],
    lenient: bool = False,
) -> Iterator[SourcedCommit]:
    """Source a commit-ordered black-box history's reads by value.

    The ``i``-th ``(tid, session, events)`` becomes commit ``i``, and a
    read's source is the latest earlier commit that wrote its value to
    the object (0: the initial value).  Unwindowed and lazy.  Raises
    :class:`MonitorError` for a value nobody wrote, or, unless
    ``lenient``, several did.
    """
    tables: Dict[Obj, Dict[Value, int]] = {}  # the values commits wrote
    ambiguous: Set[Tuple[Obj, Value]] = set()
    for commit_ts, (tid, session, events) in enumerate(history, 1):
        events = tuple(events)
        sources = []
        for op in store_reads(events):
            obj, value = op.obj, op.value
            if not lenient and (obj, value) in ambiguous:
                raise MonitorError(
                    f"{tid}: read of {obj}={value!r} is ambiguous — "
                    f"several transactions wrote that value"
                )
            if value in tables.get(obj, ()):
                sources.append(tables[obj][value])
            elif initial_values.get(obj, _UNWRITTEN) == value:
                sources.append(0)
            else:
                raise MonitorError(
                    f"{tid}: read of {obj}={value!r} matches no "
                    f"committed write"
                )
        for obj, value in final_writes(events).items():
            table = tables.setdefault(obj, {})
            if value in table or initial_values.get(obj, _UNWRITTEN) == value:
                ambiguous.add((obj, value))
            table[value] = commit_ts
        yield SourcedCommit(tid, session, commit_ts, events, tuple(sources))
