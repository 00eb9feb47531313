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
        # Edges carry no count: one removal deletes the edge, after
        # which the reverse edge is legal.
        dag.remove_edge("a", "b")
        assert list(dag.edges()) == []
        assert dag.add_edge("b", "a") is None

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


class TestSiChecker:
    def test_dep_then_rw_composes_to_self_loop(self):
        checker = make_checker("SI")
        for tid in ("t1", "t2"):
            checker.add_node(tid)
        assert checker.observe([("t1", "t2")], []) is None
        cycle = checker.observe([], [("t2", "t1")])
        assert cycle is not None and cycle[0] == cycle[-1]

    def test_rw_then_dep_composes_to_self_loop(self):
        checker = make_checker("SI")
        for tid in ("t1", "t2"):
            checker.add_node(tid)
        assert checker.observe([], [("t2", "t1")]) is None
        cycle = checker.observe([("t1", "t2")], [])
        assert cycle is not None and cycle[0] == cycle[-1]

    def test_two_rw_steps_do_not_compose(self):
        # dep;rw? takes at most one RW step: t1 -dep-> t2 -rw-> t3 and
        # t3 -rw-> t1 is SI-consistent (the write-skew shape).
        checker = make_checker("SI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        assert checker.observe([("t1", "t2")], [("t2", "t3")]) is None
        assert checker.observe([], [("t3", "t1")]) is None

    def test_evicting_middle_node_accepts_closing_edge(self):
        # t1 -dep-> t2 -rw-> t3 composes to (t1, t3), so the dep edge
        # (t3, t1) closes a cycle through t2 and is rejected with the
        # real dependency path; once t2 is evicted it is accepted.
        checker = make_checker("SI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        assert checker.observe([("t1", "t2")], [("t2", "t3")]) is None
        cycle = checker.observe([("t3", "t1")], [])
        assert cycle == ["t3", "t1", "t2", "t3"]
        checker.remove_node("t2")
        assert checker.observe([("t3", "t1")], []) is None

    def test_repeated_dep_edge_counts_one_witness(self):
        # Feeding the same dep edge twice stores it once: evicting t2
        # removes every path through it.
        checker = make_checker("SI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        checker.observe([("t1", "t2")], [("t2", "t3")])
        assert checker.observe([("t1", "t2")], []) is None
        checker.remove_node("t2")
        assert checker.observe([("t3", "t1")], []) is None

    def test_violation_rolls_back_partial_deltas(self):
        # A rejected dep edge leaves no state behind.
        checker = make_checker("SI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        checker.observe([("t2", "t3")], [])
        checker.observe([], [("t2", "t1"), ("t3", "t1")])
        # dep (t1, t2) closes t1 -dep-> t2 -rw-> t1.
        assert checker.observe([("t1", "t2")], []) == ["t1", "t2", "t1"]
        # Had (t1, t2) stayed in the graph, (t2, t1) would close a
        # dependency cycle; without it the edge is legal.
        assert checker.observe([("t2", "t1")], []) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_random_edges_agree_with_composed_relation(self, seed):
        """The checker accepts exactly the edges that keep
        ``dep ; RW?`` acyclic, across arbitrary evictions, and every
        witness is a cycle of accepted edges and the rejected one."""
        from repro.core.relations import Relation

        rng = random.Random(seed)
        checker = make_checker("SI")
        live = []
        dep, rw = set(), set()
        for step in range(150):
            if len(live) < 2 or rng.random() < 0.1:
                tid = f"t{step}"
                checker.add_node(tid)
                live.append(tid)
                continue
            if len(live) > 4 and rng.random() < 0.1:
                gone = live.pop(rng.randrange(len(live)))
                checker.remove_node(gone)
                dep = {e for e in dep if gone not in e}
                rw = {e for e in rw if gone not in e}
                continue
            edge = tuple(rng.sample(live, 2))
            is_dep = rng.random() < 0.5
            new_dep = dep | {edge} if is_dep else dep
            new_rw = rw if is_dep else rw | {edge}
            offline_ok = (
                Relation(new_dep, live)
                .compose(Relation(new_rw, live).reflexive())
                .is_acyclic()
            )
            cycle = (
                checker.observe([edge], []) if is_dep
                else checker.observe([], [edge])
            )
            assert (cycle is None) == offline_ok, (edge, is_dep, dep, rw)
            if cycle is None:
                dep, rw = new_dep, new_rw
            else:
                assert cycle[0] == cycle[-1]
                assert len(set(cycle)) >= 2, cycle
                for pair in zip(cycle, cycle[1:]):
                    assert pair in new_dep | new_rw, (cycle, pair)


class TestPsiChecker:
    def test_dep_cycle_detected(self):
        checker = make_checker("PSI")
        for tid in ("t1", "t2"):
            checker.add_node(tid)
        assert checker.observe([("t1", "t2")], []) is None
        cycle = checker.observe([("t2", "t1")], [])
        assert cycle == ["t2", "t1", "t2"]

    def test_rw_edge_closing_dep_path_detected_with_real_path(self):
        checker = make_checker("PSI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        checker.observe([("t1", "t2"), ("t2", "t3")], [])
        cycle = checker.observe([], [("t3", "t1")])
        assert cycle == ["t1", "t2", "t3", "t1"]

    def test_dep_edge_closing_existing_rw_detected(self):
        checker = make_checker("PSI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        assert checker.observe([("t1", "t2")], [("t3", "t1")]) is None
        cycle = checker.observe([("t2", "t3")], [])
        assert cycle == ["t1", "t2", "t3", "t1"]

    def test_two_rw_steps_allowed(self):
        # The long-fork shape: loops needing two anti-dependency steps
        # are PSI-consistent.
        checker = make_checker("PSI")
        for tid in ("t1", "t2", "t3", "t4"):
            checker.add_node(tid)
        assert checker.observe(
            [("t1", "t3"), ("t2", "t4")], [("t3", "t2"), ("t4", "t1")]
        ) is None

    def test_eviction_clears_rw_index(self):
        checker = make_checker("PSI")
        for tid in ("t1", "t2", "t3"):
            checker.add_node(tid)
        checker.observe([("t1", "t2")], [("t3", "t1")])
        checker.remove_node("t3")
        # After eviction the rw edge is gone: a dep edge that would have
        # closed the loop through t3 is now fine.
        checker.add_node("t3")
        assert checker.observe([("t2", "t3")], []) is None


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
            assert monitor.observe_commit(
                "t1", "s1", [read("acct", 0), write("acct", 50)]
            ) is None
            violation = monitor.observe_commit(
                "t2", "s2", [read("acct", 0), write("acct", 25)]
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
            monitor.observe_commit(
                "t1", "s1", [read("acct", 0), write("acct", 50)]
            )
            violation = monitor.observe_commit(
                "t2", "s2", [read("acct", 0), write("acct", 25)]
            )
            assert violation is not None
            cycle = violation.cycle
            assert cycle[0] == cycle[-1]
            assert len(set(cycle)) >= 2, (checker, cycle)
            assert set(cycle) == {"t1", "t2"}

    def test_incremental_keeps_certifying_after_violation(self):
        monitor = ConsistencyMonitor("SI", {"acct": 0, "x": 0})
        monitor.observe_commit(
            "t1", "s1", [read("acct", 0), write("acct", 50)]
        )
        assert monitor.observe_commit(
            "t2", "s2", [read("acct", 0), write("acct", 25)]
        ) is not None
        # A clean commit after the violation is clean...
        assert monitor.observe_commit(
            "t3", "s3", [read("x", 0), write("x", 1)]
        ) is None
        # ... and a *new* violation is still caught.
        assert monitor.observe_commit(
            "t4", "s4", [read("x", 0), write("x", 2)]
        ) is not None
        assert len(monitor.violations) == 2

    def test_windowed_incremental_certifies_across_evictions(self):
        values = {"acct1": 70, "acct2": 80}
        values.update({f"p{i}": 0 for i in range(5)})
        monitor = ConsistencyMonitor("SER", values, window=8)
        for i in range(50):
            assert monitor.observe_commit(
                f"pad{i}", f"s{i % 7}", [write(f"p{i % 5}", i + 1)]
            ) is None
        assert monitor.retained_count == 8
        assert monitor.observe_commit(
            "ws1", "alice",
            [read("acct1", 70), read("acct2", 80), write("acct1", -30)],
        ) is None
        violation = monitor.observe_commit(
            "ws2", "bob",
            [read("acct1", 70), read("acct2", 80), write("acct2", -20)],
        )
        assert violation is not None and violation.tid == "ws2"
