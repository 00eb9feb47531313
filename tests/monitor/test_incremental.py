"""Unit tests for the incremental certification core.

The dynamic-topological-order DAG (Pearce–Kelly) and the three
per-model checkers are exercised directly here; end-to-end equivalence
with the full-rebuild oracle lives in ``test_parity.py``.
"""

import random

import pytest

from repro.core.events import read, write
from repro.monitor import ConsistencyMonitor
from repro.monitor.incremental import (
    DynamicTopoOrder,
    PsiIncrementalChecker,
    SerIncrementalChecker,
    SiIncrementalChecker,
    make_checker,
)
from tests.monitor.streams import observe


class TestDynamicTopoOrder:
    def test_insert_respecting_order_keeps_indices(self):
        dag = DynamicTopoOrder()
        for node in "abc":
            dag.add_node(node)
        assert dag.add_edge("a", "b") is None
        assert dag.add_edge("b", "c") is None
        assert (
            dag.order_index("a")
            < dag.order_index("b")
            < dag.order_index("c")
        )

    def test_order_violating_insert_reorders_affected_region(self):
        dag = DynamicTopoOrder()
        for node in "abcd":
            dag.add_node(node)
        # Registration order is a, b, c, d; the edge d -> a contradicts
        # it and must move d before a.
        assert dag.add_edge("d", "a") is None
        assert dag.order_index("d") < dag.order_index("a")
        # Order stays topological for every present edge.
        assert dag.add_edge("a", "b") is None
        assert dag.add_edge("d", "b") is None
        for x, y in dag.edges():
            assert dag.order_index(x) < dag.order_index(y)

    def test_cycle_rejected_with_witness_path(self):
        dag = DynamicTopoOrder()
        for node in "abc":
            dag.add_node(node)
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        cycle = dag.add_edge("c", "a")
        assert cycle == ["c", "a", "b", "c"]
        # The offending edge was not inserted.
        assert ("c", "a") not in list(dag.edges())
        assert dag.find_path("c", "a") is None

    def test_self_loop_is_a_cycle(self):
        dag = DynamicTopoOrder()
        dag.add_node("a")
        assert dag.add_edge("a", "a") == ["a", "a"]

    def test_reinserting_an_edge_is_a_no_op(self):
        dag = DynamicTopoOrder()
        dag.add_node("a"), dag.add_node("b")
        assert dag.add_edge("a", "b") is None
        assert dag.add_edge("a", "b") is None
        assert list(dag.edges()) == [("a", "b")]
        assert dag.add_edge("b", "a") == ["b", "a", "b"]

    def test_remove_node_clears_incident_edges(self):
        dag = DynamicTopoOrder()
        for node in "abc":
            dag.add_node(node)
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        dag.remove_node("b")
        assert "b" not in dag
        assert list(dag.edges()) == []
        # A previously cycle-closing edge is now legal.
        assert dag.add_edge("c", "a") is None

    def test_find_path(self):
        dag = DynamicTopoOrder()
        for node in "abcd":
            dag.add_node(node)
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        assert dag.find_path("a", "c") == ["a", "b", "c"]
        assert dag.find_path("a", "a") == ["a"]
        assert dag.find_path("c", "a") is None
        assert dag.find_path("a", "d") is None

    @pytest.mark.parametrize("seed", range(10))
    def test_random_insertions_agree_with_offline_check(self, seed):
        """PK accepts exactly the edges an offline cycle test accepts,
        and the maintained order stays topological throughout."""
        from repro.core.relations import Relation

        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(12)]
        dag = DynamicTopoOrder()
        for node in nodes:
            dag.add_node(node)
        accepted = set()
        for _ in range(60):
            a, b = rng.sample(nodes, 2)
            offline_ok = Relation(accepted | {(a, b)}).is_acyclic()
            cycle = dag.add_edge(a, b)
            assert (cycle is None) == offline_ok, (a, b, accepted)
            if cycle is None:
                accepted.add((a, b))
                for x, y in accepted:
                    assert dag.order_index(x) < dag.order_index(y)
            else:
                assert cycle[0] == cycle[-1] == a
                assert cycle[1] == b
                # Witness edges b -> ... -> a all exist in the DAG.
                for x, y in zip(cycle[1:], cycle[2:]):
                    assert (x, y) in accepted


class TestCheckerFactories:
    def test_make_checker(self):
        assert isinstance(make_checker("SER"), SerIncrementalChecker)
        assert isinstance(make_checker("SI"), SiIncrementalChecker)
        assert isinstance(make_checker("PSI"), PsiIncrementalChecker)


def condition_holds(model, dep, rw, nodes):
    """The model's graph condition, tested offline on plain relations:
    SER ``dep ∪ RW`` acyclic, SI ``dep ; RW?`` acyclic, PSI
    ``dep⁺ ; RW?`` irreflexive."""
    from repro.core.relations import Relation

    deps, rws = Relation(dep, nodes), Relation(rw, nodes)
    if model == "SER":
        return deps.union(rws).is_acyclic()
    if model == "SI":
        return deps.compose(rws.reflexive()).is_acyclic()
    return deps.transitive_closure().compose(rws.reflexive()).is_irreflexive()


def random_commit_stream(seed, steps=100, max_live=10):
    """A seeded commit-shaped stream with interleaved removals.

    Yields ``("commit", (tid, deps_in, rw_out, rw_in))`` — each list a
    random sample of the live, older tids — or ``("remove", tid)`` for
    a random live tid (not necessarily the oldest).
    """
    rng = random.Random(seed)
    live = []
    for step in range(steps):
        if len(live) >= max_live or (len(live) > 3 and rng.random() < 0.2):
            yield "remove", live.pop(rng.randrange(len(live)))
            continue
        tid = f"t{step}"
        deps_in, rw_out, rw_in = (
            rng.sample(live, min(len(live), rng.randint(0, k)))
            for k in (3, 2, 2)
        )
        live.append(tid)
        yield "commit", (tid, deps_in, rw_out, rw_in)


def assert_agrees_with_condition(model, seed):
    """The checker flags exactly the commits whose edges, inserted in
    ``deps_in``, ``rw_out``, ``rw_in`` order with each cycle-closing
    edge dropped, break the model's offline condition; every witness is
    a cycle of kept edges and the first dropped one."""
    checker = make_checker(model)
    live, dep, rw = set(), set(), set()
    flagged = commits = 0
    for kind, item in random_commit_stream(seed):
        if kind == "remove":
            checker.remove_node(item)
            live.discard(item)
            dep = {e for e in dep if item not in e}
            rw = {e for e in rw if item not in e}
            continue
        tid, deps_in, rw_out, rw_in = item
        commits += 1
        live.add(tid)
        first_dropped = None
        edges = (
            [(u, tid, True) for u in deps_in]
            + [(tid, w, False) for w in rw_out]
            + [(r, tid, False) for r in rw_in]
        )
        for a, b, is_dep in edges:
            new_dep = dep | {(a, b)} if is_dep else dep
            new_rw = rw if is_dep else rw | {(a, b)}
            if condition_holds(model, new_dep, new_rw, live):
                dep, rw = new_dep, new_rw
            elif first_dropped is None:
                first_dropped = (a, b)
        cycle = checker.observe(tid, deps_in, rw_out, rw_in)
        assert (cycle is None) == (first_dropped is None), (item, cycle)
        if cycle is not None:
            flagged += 1
            assert cycle[0] == cycle[-1]
            assert len(set(cycle)) >= 2, cycle
            kept = dep | rw | {first_dropped}
            for pair in zip(cycle, cycle[1:]):
                assert pair in kept, (cycle, pair)
    # The stream exercises both verdicts.
    assert 0 < flagged < commits, (model, seed, flagged, commits)


class TestSerChecker:
    def test_write_skew_is_a_cycle(self):
        # t1 -dep-> t2 -rw-> t3 -rw-> t1: two anti-dependencies in a
        # row still form a SER cycle.
        checker = make_checker("SER")
        assert checker.observe("t1", [], [], []) is None
        assert checker.observe("t2", ["t1"], [], []) is None
        cycle = checker.observe("t3", [], ["t1"], ["t2"])
        assert cycle == ["t2", "t3", "t1", "t2"]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_commits_agree_with_union_acyclic(self, seed):
        assert_agrees_with_condition("SER", seed)


class TestSiChecker:
    def test_dep_then_rw_composes_to_self_loop(self):
        # The lost update: t2 reads t1's write and anti-depends on it.
        checker = make_checker("SI")
        assert checker.observe("t1", [], [], []) is None
        cycle = checker.observe("t2", ["t1"], ["t1"], [])
        assert cycle == ["t2", "t1", "t2"]

    def test_two_rw_steps_do_not_compose(self):
        # dep;rw? takes at most one RW step: t1 -dep-> t2 -rw-> t3 and
        # t3 -rw-> t1 is SI-consistent (the write-skew shape).
        checker = make_checker("SI")
        assert checker.observe("t1", [], [], []) is None
        assert checker.observe("t2", ["t1"], [], []) is None
        assert checker.observe("t3", [], ["t1"], ["t2"]) is None

    def test_evicting_middle_node_accepts_closing_edge(self):
        # t1 -dep-> t2 -rw-> t3 -dep-> t4 -rw-> t1 composes to the
        # cycle (t1, t3), (t3, t1); the witness is the real dependency
        # path.  With t2 evicted first, the same commit is clean.
        for evict in (False, True):
            checker = make_checker("SI")
            checker.observe("t1", [], [], [])
            checker.observe("t2", ["t1"], [], [])
            checker.observe("t3", [], [], ["t2"])
            if evict:
                checker.remove_node("t2")
            cycle = checker.observe("t4", ["t3"], ["t1"], [])
            if evict:
                assert cycle is None
            else:
                assert cycle == ["t4", "t1", "t2", "t3", "t4"]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_edges_agree_with_composed_relation(self, seed):
        assert_agrees_with_condition("SI", seed)


class TestPsiChecker:
    def test_rw_edge_closing_dep_path_detected_with_real_path(self):
        checker = make_checker("PSI")
        assert checker.observe("t1", [], [], []) is None
        assert checker.observe("t2", ["t1"], [], []) is None
        cycle = checker.observe("t3", ["t2"], ["t1"], [])
        assert cycle == ["t1", "t2", "t3", "t1"]

    def test_two_rw_steps_allowed(self):
        # The long-fork shape: loops needing two anti-dependency steps
        # are PSI-consistent.
        checker = make_checker("PSI")
        assert checker.observe("t1", [], [], []) is None
        assert checker.observe("t2", [], [], []) is None
        assert checker.observe("t3", ["t1"], ["t2"], []) is None
        assert checker.observe("t4", ["t2"], ["t1"], []) is None

    def test_eviction_removes_dep_paths(self):
        # t4's stale read of t1 closes a loop only through t2.
        for evict in (False, True):
            checker = make_checker("PSI")
            checker.observe("t1", [], [], [])
            checker.observe("t2", ["t1"], [], [])
            checker.observe("t3", ["t2"], [], [])
            if evict:
                checker.remove_node("t2")
            cycle = checker.observe("t4", ["t3"], ["t1"], [])
            if evict:
                assert cycle is None
            else:
                assert cycle == ["t1", "t2", "t3", "t4", "t1"]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_commits_agree_with_closure_condition(self, seed):
        assert_agrees_with_condition("PSI", seed)


class TestMonitorKnob:
    def test_unknown_checker_rejected(self):
        from repro.monitor import MonitorError

        with pytest.raises(MonitorError):
            ConsistencyMonitor("SI", checker="eager")

    def test_checker_recorded(self):
        assert ConsistencyMonitor("SI").checker == "incremental"
        assert (
            ConsistencyMonitor("SI", checker="rebuild").checker == "rebuild"
        )

    @pytest.mark.parametrize("checker", ["incremental", "rebuild"])
    def test_lost_update_flagged_by_both_backends(self, checker):
        for model in ConsistencyMonitor.MODELS:
            monitor = ConsistencyMonitor(
                model, {"acct": 0}, checker=checker
            )
            assert observe(
                monitor, "t1", "s1", [read("acct", 0), write("acct", 50)]
            ) is None
            violation = observe(
                monitor, "t2", "s2", [read("acct", 0), write("acct", 25)]
            )
            assert violation is not None, (model, checker)
            assert violation.tid == "t2"
            cycle = violation.cycle
            assert cycle[0] == cycle[-1]
            # A real dependency cycle, not a degenerate [t, t] pair.
            assert len(set(cycle)) >= 2, (model, checker, cycle)

    def test_psi_violation_reports_real_dependency_path(self):
        """The witness is the actual loop (dep path closed by an
        anti-dependency), not a fake two-node [t, t] pair."""
        for checker in ("incremental", "rebuild"):
            monitor = ConsistencyMonitor(
                "PSI", {"acct": 0}, checker=checker
            )
            observe(
                monitor, "t1", "s1", [read("acct", 0), write("acct", 50)]
            )
            violation = observe(
                monitor, "t2", "s2", [read("acct", 0), write("acct", 25)]
            )
            assert violation is not None
            cycle = violation.cycle
            assert cycle[0] == cycle[-1]
            assert len(set(cycle)) >= 2, (checker, cycle)
            assert set(cycle) == {"t1", "t2"}

    def test_incremental_keeps_certifying_after_violation(self):
        monitor = ConsistencyMonitor("SI", {"acct": 0, "x": 0})
        observe(
            monitor, "t1", "s1", [read("acct", 0), write("acct", 50)]
        )
        assert observe(
            monitor, "t2", "s2", [read("acct", 0), write("acct", 25)]
        ) is not None
        # A clean commit after the violation is clean...
        assert observe(
            monitor, "t3", "s3", [read("x", 0), write("x", 1)]
        ) is None
        # ... and a *new* violation is still caught.
        assert observe(
            monitor, "t4", "s4", [read("x", 0), write("x", 2)]
        ) is not None
        assert len(monitor.violations) == 2

    def test_windowed_incremental_certifies_across_evictions(self):
        values = {"acct1": 70, "acct2": 80}
        values.update({f"p{i}": 0 for i in range(5)})
        monitor = ConsistencyMonitor("SER", values, window=8)
        for i in range(50):
            assert observe(
                monitor, f"pad{i}", f"s{i % 7}", [write(f"p{i % 5}", i + 1)]
            ) is None
        assert monitor.retained_count == 8
        assert observe(
            monitor, "ws1", "alice",
            [read("acct1", 70), read("acct2", 80), write("acct1", -30)],
        ) is None
        violation = observe(
            monitor, "ws2", "bob",
            [read("acct1", 70), read("acct2", 80), write("acct2", -20)],
        )
        assert violation is not None and violation.tid == "ws2"
