"""Incremental certification: amortised per-commit cycle checking.

:class:`~repro.monitor.online.ConsistencyMonitor` originally re-derived
the model's graph condition from scratch after every commit — a full
acyclicity test over the composed relation for SI/SER and a transitive
closure for PSI, i.e. ``O(V+E)`` (resp. ``O(V·E)``) *per commit*.  This
module replaces that with an **incremental certification core**: a
graph with the same cycles as the model's condition is maintained as a
DAG with a dynamic topological order (Pearce & Kelly, *A dynamic
topological sort algorithm for directed acyclic graphs*, JEA 2006),
updated edge-by-edge as
``observe_commit`` discovers new SO/WR/WW/RW edges.  Inserting an edge
that respects the current order is O(1); an order-violating insertion
only reorders the *affected region* between the edge's endpoints; and an
insertion that would close a cycle is detected during that same bounded
discovery, yielding the violation witness for free.  In the common
no-violation case certification is near-amortised-constant per commit.

Three checkers share the core, one per model condition:

* **SER** (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — every dependency
  and anti-dependency edge goes straight into one dynamic DAG.
* **SI** (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic — certified as
  plain acyclicity of a *split graph*.  Each transaction ``t`` has a
  twin node ``^t`` that is entered only by RW edges and left only by
  copies of ``t``'s dep edges: a dep edge ``(u, v)`` inserts ``u -> v``
  and ``^u -> v``, an RW edge ``(v, w)`` inserts ``v -> ^w``.  A cycle
  of the split graph never takes two RW edges in a row, so it has a
  cycle iff the composed relation does, and mapping ``^t`` back to
  ``t`` turns it into a dependency cycle of the history.
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

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

Edge = Tuple[str, str]
Node = Hashable


class DynamicTopoOrder:
    """A DAG maintained under edge insertion with a dynamic topological
    order (the Pearce–Kelly PK algorithm).

    Inserting an existing edge is a no-op.  Node and edge removal never
    reorder — a topological order of a graph is a topological order of
    every subgraph.  Adjacency is kept in insertion-ordered dicts, so
    searches, and the witnesses they return, do not depend on hash
    seeds.
    """

    def __init__(self) -> None:
        self._ord: Dict[Node, int] = {}
        self._next_index = 0
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._ord

    def __len__(self) -> int:
        return len(self._ord)

    def add_node(self, node: Node) -> None:
        """Register ``node`` (appended at the end of the order)."""
        if node in self._ord:
            return
        self._ord[node] = self._next_index
        self._next_index += 1
        self._succ[node] = {}
        self._pred[node] = {}

    def remove_node(self, node: Node) -> None:
        """Delete ``node`` and every incident edge (order stays valid)."""
        if node not in self._ord:
            return
        for other in self._succ.pop(node):
            del self._pred[other][node]
        for other in self._pred.pop(node):
            del self._succ[other][node]
        del self._ord[node]

    def order_index(self, node: Node) -> int:
        """The node's current position in the maintained order."""
        return self._ord[node]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def edges(self) -> Iterable[Tuple[Node, Node]]:
        """Every edge, in insertion order per source node."""
        for a, targets in self._succ.items():
            for b in targets:
                yield (a, b)

    def add_edge(self, a: Node, b: Node) -> Optional[List[Node]]:
        """Insert ``a -> b``; both nodes must be registered.

        Returns ``None`` on success or if the edge is already present.
        If the edge would close a cycle it is **not** inserted and the
        witness cycle ``[a, b, ..., a]`` is returned instead.
        """
        if a == b:
            return [a, a]
        succ_a = self._succ[a]
        if b in succ_a:
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
        succ_a[b] = None
        self._pred[b][a] = None
        return None

    def remove_edge(self, a: Node, b: Node) -> None:
        """Delete the edge ``a -> b`` (order stays valid)."""
        del self._succ[a][b]
        del self._pred[b][a]

    # ------------------------------------------------------------------
    # PK discovery and reordering
    # ------------------------------------------------------------------

    def _discover_forward(
        self, start: Node, upper: int
    ) -> Tuple[List[Node], Optional[List[Node]]]:
        """DFS from ``start`` over nodes ordered strictly below ``upper``.

        Returns ``(visited, cycle_tail)`` where ``cycle_tail`` is the
        path ``[start, ..., x]`` to the node ``x`` at position ``upper``
        if it is reachable (the cycle case), else ``None``.
        """
        ord_ = self._ord
        parent: Dict[Node, Optional[Node]] = {start: None}
        visited: List[Node] = []
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

    def _discover_backward(self, start: Node, lower: int) -> List[Node]:
        """DFS over predecessors of ``start`` ordered above ``lower``."""
        ord_ = self._ord
        seen: Set[Node] = {start}
        visited: List[Node] = []
        stack = [start]
        while stack:
            node = stack.pop()
            visited.append(node)
            for nxt in self._pred[node]:
                if ord_[nxt] > lower and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return visited

    def _reorder(self, backward: List[Node], forward: List[Node]) -> None:
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

    def find_path(self, a: Node, b: Node) -> Optional[List[Node]]:
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
        parent: Dict[Node, Optional[Node]] = {a: None}
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
    close, or ``None``.  An edge that would close a cycle of the
    maintained DAG is not inserted, so the DAG stays acyclic and
    certification continues.
    """

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

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()

    def add_node(self, tid: str) -> None:
        self._dag.add_node(tid)

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        return self._dag.add_edge(*edge)

    _insert_rw = _insert_dep


class _Twin:
    """The split-graph node ``^t`` of transaction ``t``.  It compares by
    identity, so it never equals a tid."""

    __slots__ = ("tid",)

    def __init__(self, tid: str) -> None:
        self.tid = tid


class SiIncrementalChecker(IncrementalChecker):
    """SI (Theorem 9): ``(SO ∪ WR ∪ WW) ; RW?`` acyclic, certified as
    acyclicity of a split graph.

    Each transaction ``t`` has a twin ``^t``, entered only by RW edges
    and left only by copies of ``t``'s dep edges: a dep edge ``(u, v)``
    inserts ``u -> v`` and ``^u -> v``, an RW edge ``(v, w)`` inserts
    ``v -> ^w``.  A cycle never takes two RW edges in a row, so the
    split graph is acyclic iff the composed relation is; witnesses map
    ``^t`` back to ``t``.
    """

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()
        self._twin: Dict[str, _Twin] = {}

    def add_node(self, tid: str) -> None:
        if tid in self._twin:
            return
        twin = self._twin[tid] = _Twin(tid)
        self._dag.add_node(tid)
        self._dag.add_node(twin)

    def remove_node(self, tid: str) -> None:
        twin = self._twin.pop(tid, None)
        if twin is None:
            return
        self._dag.remove_node(tid)
        self._dag.remove_node(twin)

    def _insert_dep(self, edge: Edge) -> Optional[List[str]]:
        u, v = edge
        cycle = self._dag.add_edge(u, v)
        if cycle is None:
            cycle = self._dag.add_edge(self._twin[u], v)
            if cycle is not None:
                # The two edges come and go together, so ``u -> v`` was
                # new: take it back out.
                self._dag.remove_edge(u, v)
        return _untwin(cycle)

    def _insert_rw(self, edge: Edge) -> Optional[List[str]]:
        v, w = edge
        return _untwin(self._dag.add_edge(v, self._twin[w]))


def _untwin(cycle: Optional[List[Node]]) -> Optional[List[str]]:
    """A split-graph cycle as the dependency cycle it stands for."""
    if cycle is None:
        return None
    return [node.tid if type(node) is _Twin else node for node in cycle]


class PsiIncrementalChecker(IncrementalChecker):
    """PSI (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive.

    Equivalently: the dep relation is acyclic *and* no RW edge
    ``(c, a)`` coexists with a dep path ``a ⇒ c``.  The dep DAG's
    dynamic topological order both certifies the first conjunct (PK
    insertion) and prunes the reachability queries of the second; no
    transitive closure is ever built.
    """

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
