"""Incremental certification: amortised per-commit cycle checking.

:class:`~repro.monitor.online.ConsistencyMonitor` originally re-derived
the model's graph condition from scratch after every commit — a full
acyclicity test over the composed relation for SI/SER and a transitive
closure for PSI, i.e. ``O(V+E)`` (resp. ``O(V·E)``) *per commit*.  This
module replaces that with an **incremental certification core**: the
monitor's composed relation is maintained as a DAG with a dynamic
topological order (Pearce & Kelly, *A dynamic topological sort algorithm
for directed acyclic graphs*, JEA 2006), updated edge-by-edge as
``observe_commit`` discovers new SO/WR/WW/RW edges.  Inserting an edge
that respects the current order is O(1); an order-violating insertion
only reorders the *affected region* between the edge's endpoints; and an
insertion that would close a cycle is detected during that same bounded
discovery, yielding the violation witness for free.  In the common
no-violation case certification is near-amortised-constant per commit.

Three checkers share the core, one per model condition:

* **SER** (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — every dependency
  and anti-dependency edge goes straight into one dynamic DAG.
* **SI** (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic — the *composed*
  relation is maintained incrementally.  Each new dep edge ``(u, v)``
  contributes the composed edges ``(u, v)`` (via the reflexive part of
  ``RW?``) plus ``(u, w)`` for every RW-successor ``w`` of ``v``; each
  new RW edge ``(v, w)`` contributes ``(u, w)`` for every dep-predecessor
  ``u`` of ``v``.  Per-node dep-predecessor / RW-successor indexes make
  these deltas enumerable in output-sensitive time, and composed edges
  carry multiplicities (a pair may have several middle-node witnesses)
  so windowed eviction can decrement exactly.
* **PSI** (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive — i.e. the
  dep relation is acyclic *and* no RW edge ``(c, a)`` has a dep path
  ``a ⇒ c``.  The dep DAG's topological order prunes the reachability
  queries: a new RW edge asks one order-bounded DFS, a new dep edge
  ``(u, v)`` intersects dep-ancestors of ``u`` with dep-descendants of
  ``v`` against the RW-edge index (skipped outright while no RW edge
  exists).  No transitive closure is ever materialised.

All three checkers support :meth:`remove_node`, used by the windowed
:class:`~repro.monitor.online.ConsistencyMonitor`'s garbage collection:
deleting nodes/edges from a DAG never invalidates its topological
order, so eviction is pure bookkeeping — no re-check, no reorder.

On a violation the cycle-closing edge is *not* inserted (the core must
stay acyclic to keep certifying); the monitor reports the witness cycle
and subsequent commits are checked against the remaining — still
acyclic — graph.  The full-rebuild checker, by contrast, keeps the
cyclic graph and re-flags it at every later commit; differential tests
therefore compare the two up to the first violation
(``tests/monitor/test_parity.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

Edge = Tuple[str, str]


class DynamicTopoOrder:
    """A DAG maintained under edge insertion with a dynamic topological
    order (the Pearce–Kelly PK algorithm).

    Edges carry multiplicities: inserting an existing edge just bumps a
    counter (no search), removing decrements, and the structural edge
    disappears when the count hits zero.  Node and edge removal never
    reorder — a topological order of a graph is a topological order of
    every subgraph.
    """

    def __init__(self) -> None:
        self._ord: Dict[str, int] = {}
        self._next_index = 0
        self._succ: Dict[str, Dict[str, int]] = {}
        self._pred: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def add_node(self, node: str) -> None:
        """Register ``node`` (appended at the end of the order)."""
        if node in self._ord:
            return
        self._ord[node] = self._next_index
        self._next_index += 1
        self._succ[node] = {}
        self._pred[node] = {}

    def remove_node(self, node: str) -> None:
        """Delete ``node`` and every incident edge (order stays valid)."""
        if node not in self._ord:
            return
        for other in self._succ.pop(node):
            del self._pred[other][node]
        for other in self._pred.pop(node):
            del self._succ[other][node]
        del self._ord[node]

    def order_index(self, node: str) -> int:
        """The node's current position in the maintained order."""
        return self._ord[node]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def edge_count(self, a: str, b: str) -> int:
        """The multiplicity of edge ``a -> b`` (0 when absent)."""
        return self._succ.get(a, {}).get(b, 0)

    def edges(self) -> Iterable[Edge]:
        """Every structural edge (ignoring multiplicity)."""
        for a, targets in self._succ.items():
            for b in targets:
                yield (a, b)

    def add_edge(self, a: str, b: str) -> Optional[List[str]]:
        """Insert ``a -> b``; both nodes must be registered.

        Returns ``None`` on success.  If the edge would close a cycle it
        is **not** inserted and the witness cycle ``[a, b, ..., a]`` is
        returned instead.
        """
        if a == b:
            return [a, a]
        succ_a = self._succ[a]
        if b in succ_a:  # structural edge exists: no search needed
            succ_a[b] += 1
            self._pred[b][a] += 1
            return None
        lower, upper = self._ord[b], self._ord[a]
        if lower < upper:
            # The new edge contradicts the current order: discover the
            # affected region (PK), detecting a b =>* a path on the way.
            forward, cycle_tail = self._discover_forward(b, upper)
            if cycle_tail is not None:
                return [a] + cycle_tail
            backward = self._discover_backward(a, lower)
            self._reorder(backward, forward)
        succ_a[b] = 1
        self._pred[b][a] = 1
        return None

    def remove_edge(self, a: str, b: str) -> None:
        """Decrement ``a -> b``; drops the structural edge at zero."""
        succ_a = self._succ[a]
        count = succ_a[b] - 1
        if count:
            succ_a[b] = count
            self._pred[b][a] = count
        else:
            del succ_a[b]
            del self._pred[b][a]

    # ------------------------------------------------------------------
    # PK discovery and reordering
    # ------------------------------------------------------------------

    def _discover_forward(
        self, start: str, upper: int
    ) -> Tuple[List[str], Optional[List[str]]]:
        """DFS from ``start`` over nodes ordered strictly below ``upper``.

        Returns ``(visited, cycle_tail)`` where ``cycle_tail`` is the
        path ``[start, ..., x]`` to the node ``x`` at position ``upper``
        if it is reachable (the cycle case), else ``None``.
        """
        ord_ = self._ord
        parent: Dict[str, Optional[str]] = {start: None}
        visited: List[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            visited.append(node)
            for nxt in self._succ[node]:
                position = ord_[nxt]
                if position == upper:
                    # Reached the edge's source: closing this edge would
                    # create a cycle.  Reconstruct start -> ... -> nxt.
                    tail = [nxt, node]
                    cursor = parent[node]
                    while cursor is not None:
                        tail.append(cursor)
                        cursor = parent[cursor]
                    tail.reverse()
                    return visited, tail
                if position < upper and nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        return visited, None

    def _discover_backward(self, start: str, lower: int) -> List[str]:
        """DFS over predecessors of ``start`` ordered above ``lower``."""
        ord_ = self._ord
        seen: Set[str] = {start}
        visited: List[str] = []
        stack = [start]
        while stack:
            node = stack.pop()
            visited.append(node)
            for nxt in self._pred[node]:
                if ord_[nxt] > lower and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return visited

    def _reorder(self, backward: List[str], forward: List[str]) -> None:
        """Reassign the affected region's indices: everything that must
        precede the edge's source, then everything reachable from its
        target, each group keeping its internal relative order."""
        ord_ = self._ord
        backward.sort(key=ord_.__getitem__)
        forward.sort(key=ord_.__getitem__)
        pool = sorted(ord_[node] for node in backward + forward)
        for node, index in zip(backward + forward, pool):
            ord_[node] = index

    # ------------------------------------------------------------------
    # Reachability (order-pruned)
    # ------------------------------------------------------------------

    def find_path(self, a: str, b: str) -> Optional[List[str]]:
        """A path ``[a, ..., b]`` if one exists, else ``None``.

        The search only expands nodes ordered at or below ``b`` — on a
        maintained topological order no path can leave that region.
        """
        if a not in self._ord or b not in self._ord:
            return None
        if a == b:
            return [a]
        bound = self._ord[b]
        if self._ord[a] > bound:
            return None
        parent: Dict[str, Optional[str]] = {a: None}
        stack = [a]
        while stack:
            node = stack.pop()
            for nxt in self._succ[node]:
                if nxt == b:
                    path = [b, node]
                    cursor = parent[node]
                    while cursor is not None:
                        path.append(cursor)
                        cursor = parent[cursor]
                    path.reverse()
                    return path
                if self._ord[nxt] < bound and nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        return None


class IncrementalChecker:
    """Base class: one model's graph condition, maintained edge-by-edge.

    The monitor feeds each commit's *new* dependency (``SO ∪ WR ∪ WW``)
    and anti-dependency (``RW``) edges through :meth:`observe`, each
    edge once; the checker returns the first witness cycle the deltas
    close, or ``None``.  A cycle-closing edge is dropped (with all of
    its already applied composed deltas rolled back) so the maintained
    structure stays acyclic and certification continues.
    """

    #: Human-readable name of the maintained target relation.
    target = "dependency graph"

    def add_node(self, tid: str) -> None:
        raise NotImplementedError

    def remove_node(self, tid: str) -> None:
        raise NotImplementedError

    def observe(
        self, dep_edges: Iterable[Edge], rw_edges: Iterable[Edge]
    ) -> Optional[List[str]]:
        """Apply one commit's edge deltas; return the first cycle."""
        witness: Optional[List[str]] = None
        for edge in dep_edges:
            cycle = self._insert_dep(edge)
            if witness is None:
                witness = cycle
        for edge in rw_edges:
            cycle = self._insert_rw(edge)
            if witness is None:
                witness = cycle
        return witness

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        raise NotImplementedError

    def _insert_rw(self, edge: Edge) -> Optional[List[str]]:
        raise NotImplementedError


class SerIncrementalChecker(IncrementalChecker):
    """SER (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — one dynamic DAG
    holds every edge directly."""

    target = "SO ∪ WR ∪ WW ∪ RW"

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()

    def add_node(self, tid: str) -> None:
        self._dag.add_node(tid)

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        return self._dag.add_edge(*edge)

    _insert_rw = _insert_dep


class SiIncrementalChecker(IncrementalChecker):
    """SI (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic.

    The composed relation is maintained in the dynamic DAG; per-node
    dep-predecessor and RW-successor indexes translate each new dep/RW
    edge into its composed-edge deltas.  Composed multiplicities count
    middle-node witnesses so node eviction can decrement exactly; an
    edge already in the indexes is skipped so no witness counts twice.
    """

    target = "(SO ∪ WR ∪ WW) ; RW?"

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()
        self._dep_pred: Dict[str, Set[str]] = {}
        self._dep_succ: Dict[str, Set[str]] = {}
        self._rw_pred: Dict[str, Set[str]] = {}
        self._rw_succ: Dict[str, Set[str]] = {}

    def add_node(self, tid: str) -> None:
        if tid in self._dag:
            return
        self._dag.add_node(tid)
        self._dep_pred[tid] = set()
        self._dep_succ[tid] = set()
        self._rw_pred[tid] = set()
        self._rw_succ[tid] = set()

    def remove_node(self, tid: str) -> None:
        if tid not in self._dag:
            return
        # Composed edges with `tid` as the *middle* node (u -dep-> tid
        # -RW-> w) are not incident to it in the DAG: decrement each
        # witness explicitly, then drop everything incident wholesale.
        for u in self._dep_pred[tid]:
            for w in self._rw_succ[tid]:
                if u != tid and w != tid:
                    self._dag.remove_edge(u, w)
        self._dag.remove_node(tid)
        for u in self._dep_pred.pop(tid):
            self._dep_succ[u].discard(tid)
        for w in self._dep_succ.pop(tid):
            self._dep_pred[w].discard(tid)
        for u in self._rw_pred.pop(tid):
            self._rw_succ[u].discard(tid)
        for w in self._rw_succ.pop(tid):
            self._rw_pred[w].discard(tid)

    def _apply(self, deltas: List[Edge]) -> Optional[List[str]]:
        """Insert composed deltas atomically: on a cycle, roll back the
        already-applied ones so multiplicities stay witness-exact."""
        applied: List[Edge] = []
        for u, w in deltas:
            cycle = self._dag.add_edge(u, w)
            if cycle is not None:
                for edge in applied:
                    self._dag.remove_edge(*edge)
                return cycle
            applied.append((u, w))
        return None

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        u, v = edge
        if v in self._dep_succ[u]:
            return None
        deltas: List[Edge] = [(u, v)]
        deltas.extend((u, w) for w in self._rw_succ[v])
        cycle = self._apply(deltas)
        if cycle is None:
            self._dep_succ[u].add(v)
            self._dep_pred[v].add(u)
        return cycle

    def _insert_rw(self, edge: Edge) -> Optional[List[str]]:
        v, w = edge
        if w in self._rw_succ[v]:
            return None
        deltas = [(u, w) for u in self._dep_pred[v]]
        cycle = self._apply(deltas)
        if cycle is None:
            self._rw_succ[v].add(w)
            self._rw_pred[w].add(v)
        return cycle


class PsiIncrementalChecker(IncrementalChecker):
    """PSI (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive.

    Equivalently: the dep relation is acyclic *and* no RW edge
    ``(c, a)`` coexists with a dep path ``a ⇒ c``.  The dep DAG's
    dynamic topological order both certifies the first conjunct (PK
    insertion) and prunes the reachability queries of the second; no
    transitive closure is ever built.
    """

    target = "(SO ∪ WR ∪ WW)+ ; RW?"

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()
        # rw(c, a) indexed both ways for eviction and loop queries.
        self._rw_out: Dict[str, Set[str]] = {}
        self._rw_in: Dict[str, Set[str]] = {}

    def add_node(self, tid: str) -> None:
        self._dag.add_node(tid)

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)
        for a in self._rw_out.pop(tid, ()):
            self._rw_in[a].discard(tid)
        for c in self._rw_in.pop(tid, ()):
            self._rw_out[c].discard(tid)

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        u, v = edge
        cycle = self._dag.add_edge(u, v)
        if cycle is not None:
            return cycle
        # The new dep edge may have completed a dep path a => c closing
        # some existing RW edge (c, a): intersect dep-ancestors of u
        # with dep-descendants of v against the RW index.
        loop = self._dep_edge_closes_rw(u, v)
        if loop is not None:
            # Keep the dep edge (the dep DAG is still acyclic); the
            # loop is reported once, at this closing commit.
            return loop
        return None

    def _insert_rw(self, edge: Edge) -> Optional[List[str]]:
        c, a = edge
        path = self._dag.find_path(a, c)
        if path is not None:
            return path + [a]
        self._rw_out.setdefault(c, set()).add(a)
        self._rw_in.setdefault(a, set()).add(c)
        return None

    def _dep_edge_closes_rw(self, u: str, v: str) -> Optional[List[str]]:
        if not self._rw_out:
            return None
        succ, pred = self._dag._succ, self._dag._pred
        # Descendants of v (dep paths v => c), with path parents.
        desc: Dict[str, Optional[str]] = {v: None}
        stack = [v]
        while stack:
            node = stack.pop()
            for nxt in succ[node]:
                if nxt not in desc:
                    desc[nxt] = node
                    stack.append(nxt)
        # Ancestors of u (dep paths a => u); anc[x] is the next node on
        # the dep path from x towards u.
        anc: Dict[str, Optional[str]] = {u: None}
        stack = [u]
        while stack:
            node = stack.pop()
            for nxt in pred[node]:
                if nxt not in anc:
                    anc[nxt] = node
                    stack.append(nxt)
        for c, targets in self._rw_out.items():
            if c not in desc:
                continue
            for a in targets:
                if a not in anc:
                    continue
                # Loop: a => u -> v => c -RW-> a.
                head: List[str] = [a]
                cursor = anc[a]
                while cursor is not None:
                    head.append(cursor)
                    cursor = anc[cursor]
                tail: List[str] = [c]
                cursor = desc[c]
                while cursor is not None:
                    tail.append(cursor)
                    cursor = desc[cursor]
                tail.reverse()
                return head + tail + [a]
        return None


CHECKERS = {
    "SER": SerIncrementalChecker,
    "SI": SiIncrementalChecker,
    "PSI": PsiIncrementalChecker,
}
"""Model name → incremental checker class."""


def make_checker(model: str) -> IncrementalChecker:
    """Build the incremental checker for ``model`` (SI/SER/PSI)."""
    return CHECKERS[model]()
