"""Incremental certification: amortised per-commit cycle checking.

:class:`~repro.monitor.online.ConsistencyMonitor` originally re-derived
the model's graph condition from scratch after every commit — a full
acyclicity test over the composed relation for SI/SER and a transitive
closure for PSI, i.e. ``O(V+E)`` (resp. ``O(V·E)``) *per commit*.  This
module replaces that with an **incremental certification core**: a
graph with the same cycles as the model's condition is maintained as a
DAG with a dynamic topological order (Pearce & Kelly, *A dynamic
topological sort algorithm for directed acyclic graphs*, JEA 2006).
Inserting an edge that respects the current order is O(1); an
order-violating insertion only reorders the *affected region* between
the edge's endpoints; and an insertion that would close a cycle is
detected during that same bounded discovery, yielding the violation
witness for free.

The checkers take **one commit per call**:
``observe(tid, deps_in, rw_out, rw_in)`` registers the new transaction
with the tids that have a dep edge (``SO ∪ WR ∪ WW``) into it, the
overwriters it anti-depends on (its stale reads) and the readers that
anti-depend on it.  Commits arrive in commit order, so every dep edge
enters the newest node, which has no out-edges yet: dep edges never
close a cycle and never reorder, and only the commit's anti-dependencies
can (Biswas–Enea: checking is easy once the commit order is known).

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
  ``a ⇒ c``.  The DAG holds dep edges only, which is acyclic by
  construction; each stale read ``(tid, w)`` asks one reachability
  query ``w ⇒ tid``, pruned by the topological order.  A reader's
  anti-dependency ``(r, tid)`` would need a dep path from ``tid`` back
  to the older ``r``, and dep paths only run forward in commit order,
  so it is never stored.

All three checkers support :meth:`remove_node`, used by the windowed
:class:`~repro.monitor.online.ConsistencyMonitor`'s garbage collection:
deleting nodes from a DAG never invalidates its topological order, so
eviction is pure bookkeeping — no re-check, no reorder.

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

Node = Hashable


class DynamicTopoOrder:
    """A DAG maintained under edge insertion with a dynamic topological
    order (the Pearce–Kelly PK algorithm).

    Inserting an existing edge is a no-op.  Node removal never reorders
    — a topological order of a graph is a topological order of every
    subgraph.  Adjacency is kept in insertion-ordered dicts, so
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
    """Base class: one model's graph condition, certified one commit at
    a time.

    The monitor feeds commits in commit order through :meth:`observe`.
    Every dependency edge (``SO ∪ WR ∪ WW``) points from an older
    transaction into the newest one, so the commit's dep edges enter a
    node with no out-edges and cannot close a cycle; only its
    anti-dependencies can.  A cycle-closing edge is not inserted, so the
    maintained graph stays acyclic and certification continues.
    """

    def observe(
        self,
        tid: str,
        deps_in: Iterable[str],
        rw_out: Iterable[str],
        rw_in: Iterable[str],
    ) -> Optional[List[str]]:
        """Register commit ``tid`` and its edges; return the first cycle.

        ``deps_in`` are the tids with a dep edge into ``tid``,
        ``rw_out`` the overwriters ``tid`` anti-depends on (its stale
        reads) and ``rw_in`` the readers that anti-depend on ``tid``;
        all are already registered.  Edges are inserted in that order.
        """
        raise NotImplementedError

    def remove_node(self, tid: str) -> None:
        raise NotImplementedError


class SerIncrementalChecker(IncrementalChecker):
    """SER (Theorem 8): ``SO ∪ WR ∪ WW ∪ RW`` acyclic — one dynamic DAG
    holds every edge directly."""

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)

    def observe(
        self,
        tid: str,
        deps_in: Iterable[str],
        rw_out: Iterable[str],
        rw_in: Iterable[str],
    ) -> Optional[List[str]]:
        dag = self._dag
        dag.add_node(tid)
        for u in deps_in:
            dag.add_edge(u, tid)
        witness = None
        for w in rw_out:
            cycle = dag.add_edge(tid, w)
            witness = witness or cycle
        for r in rw_in:
            cycle = dag.add_edge(r, tid)
            witness = witness or cycle
        return witness


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
    and left only by copies of ``t``'s dep edges: a dep edge ``(u, t)``
    inserts ``u -> t`` and ``^u -> t``, an RW edge ``(v, w)`` inserts
    ``v -> ^w``.  A cycle never takes two RW edges in a row, so the
    split graph is acyclic iff the composed relation is; witnesses map
    ``^t`` back to ``t``.
    """

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()
        self._twin: Dict[str, _Twin] = {}

    def remove_node(self, tid: str) -> None:
        twin = self._twin.pop(tid, None)
        if twin is None:
            return
        self._dag.remove_node(tid)
        self._dag.remove_node(twin)

    def observe(
        self,
        tid: str,
        deps_in: Iterable[str],
        rw_out: Iterable[str],
        rw_in: Iterable[str],
    ) -> Optional[List[str]]:
        dag, twins = self._dag, self._twin
        twin = twins[tid] = _Twin(tid)
        dag.add_node(tid)
        dag.add_node(twin)
        for u in deps_in:
            dag.add_edge(u, tid)
            dag.add_edge(twins[u], tid)
        witness = None
        for w in rw_out:
            cycle = dag.add_edge(tid, twins[w])
            witness = witness or cycle
        for r in rw_in:
            cycle = dag.add_edge(r, twin)
            witness = witness or cycle
        return _untwin(witness)


def _untwin(cycle: Optional[List[Node]]) -> Optional[List[str]]:
    """A split-graph cycle as the dependency cycle it stands for."""
    if cycle is None:
        return None
    return [node.tid if type(node) is _Twin else node for node in cycle]


class PsiIncrementalChecker(IncrementalChecker):
    """PSI (Theorem 21): ``(SO ∪ WR ∪ WW)+ ; RW?`` irreflexive.

    Equivalently: the dep relation is acyclic *and* no RW edge
    ``(c, a)`` coexists with a dep path ``a ⇒ c``.  Dep edges only ever
    enter the newest commit, so the dep DAG stays acyclic by
    construction, and a loop can only be closed by the new commit's
    stale reads: one order-pruned ``find_path(w, tid)`` per ``rw_out``.
    ``rw_in`` is ignored, because no dep path leaves ``tid`` toward an
    older reader, and no RW edge is kept: a later dep edge cannot reach
    back to close it.
    """

    def __init__(self) -> None:
        self._dag = DynamicTopoOrder()

    def remove_node(self, tid: str) -> None:
        self._dag.remove_node(tid)

    def observe(
        self,
        tid: str,
        deps_in: Iterable[str],
        rw_out: Iterable[str],
        rw_in: Iterable[str],
    ) -> Optional[List[str]]:
        dag = self._dag
        dag.add_node(tid)
        for u in deps_in:
            dag.add_edge(u, tid)
        for w in rw_out:
            path = dag.find_path(w, tid)
            if path is not None:
                return path + [w]
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
