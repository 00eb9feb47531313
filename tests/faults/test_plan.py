"""FaultPlan semantics: rule validation, hit windows, seeded
determinism, serialisation, presets, and the injector registry."""

import pytest

from repro.core.errors import FaultInjected, StoreError
from repro.faults import (
    FAULTS,
    FaultPlan,
    FaultRule,
    PROFILES,
    armed,
    preset,
)


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(StoreError, match="unknown fault kind"):
            FaultRule("wal.write", "explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(StoreError, match="probability"):
            FaultRule("wal.write", "delay", probability=1.5)

    def test_bad_window_rejected(self):
        with pytest.raises(StoreError, match="stop"):
            FaultRule("wal.write", "delay", start=5, stop=5)
        with pytest.raises(StoreError, match="limit"):
            FaultRule("wal.write", "delay", limit=0)

    def test_unknown_doc_key_rejected(self):
        with pytest.raises(StoreError, match="unknown fault rule key"):
            FaultRule.from_doc(
                {"point": "wal.write", "kind": "delay", "oops": 1}
            )

    def test_unknown_point_rejected(self):
        with pytest.raises(StoreError, match="unknown failpoint"):
            FaultRule("wal.fsyncc", "delay", delay=0.001)

    def test_unknown_doc_point_rejected(self):
        with pytest.raises(StoreError, match="unknown failpoint"):
            FaultRule.from_doc({"point": "wal.fsyncc", "kind": "delay"})
        with pytest.raises(StoreError, match="unknown failpoint"):
            FaultPlan.from_doc(
                {"rules": [{"point": "monitor.observ", "kind": "delay"}]}
            )


class TestFireSemantics:
    def test_io_error_raises_oserror(self):
        plan = FaultPlan([FaultRule("wal.write", "io_error")])
        with pytest.raises(OSError, match="injected I/O error"):
            plan.fire("wal.write")

    def test_abort_raises_fault_injected_with_point(self):
        plan = FaultPlan([FaultRule("service.commit", "abort")])
        with pytest.raises(FaultInjected) as excinfo:
            plan.fire("service.commit")
        assert excinfo.value.point == "service.commit"

    def test_unmatched_point_is_noop(self):
        plan = FaultPlan([FaultRule("wal.write", "io_error")])
        plan.fire("store.read")  # no rule targets it
        assert plan.total_triggers == 0
        assert plan.hit_counts() == {"store.read": 1}

    def test_start_stop_limit_window(self):
        plan = FaultPlan(
            [FaultRule("service.commit", "abort", start=2, stop=5, limit=2)]
        )
        fired = []
        for hit in range(8):
            try:
                plan.fire("service.commit")
            except FaultInjected:
                fired.append(hit)
        # Eligible hits are 2, 3, 4 (0-based), capped at 2 triggers.
        assert fired == [2, 3]
        assert plan.trigger_counts() == {"service.commit": 2}
        assert plan.hit_counts() == {"service.commit": 8}

    def test_probability_stream_is_seeded(self):
        def run(seed):
            plan = FaultPlan(
                [FaultRule("service.commit", "abort", probability=0.5)], seed=seed
            )
            outcomes = []
            for _ in range(50):
                try:
                    plan.fire("service.commit")
                    outcomes.append(False)
                except FaultInjected:
                    outcomes.append(True)
            return outcomes

        assert run(1) == run(1)
        assert run(1) != run(2)  # astronomically unlikely to collide
        assert any(run(1)) and not all(run(1))


class TestSerialisation:
    def test_round_trip_preserves_decisions(self):
        plan = preset("mixed", intensity=0.7, seed=9)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.name == plan.name
        assert clone.seed == plan.seed
        assert [r.to_doc() for r in clone.rules] == [
            r.to_doc() for r in plan.rules
        ]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(preset("disk", intensity=0.4, seed=3).to_json())
        plan = FaultPlan.load(str(path))
        assert plan.points == ["wal.fsync", "wal.write"]


class TestPresets:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_profiles_build(self, profile):
        plan = preset(profile, intensity=0.5, seed=1)
        assert plan.rules
        assert plan.name == f"{profile}@0.5"

    def test_zero_intensity_is_empty(self):
        assert not preset("mixed", intensity=0.0).rules

    def test_only_poison_poisons_wal(self):
        for profile in PROFILES:
            plan = preset(profile, intensity=0.5)
            assert plan.poisons_wal() == (profile == "poison")

    def test_unknown_profile_rejected(self):
        with pytest.raises(StoreError, match="unknown chaos profile"):
            preset("gremlins")


class TestInjector:
    def test_disarmed_fire_is_noop(self):
        assert not FAULTS.armed
        FAULTS.fire("wal.write")  # nothing armed: must not raise

    def test_armed_context_routes_and_disarms(self):
        plan = FaultPlan([FaultRule("service.commit", "abort")])
        with armed(plan):
            assert FAULTS.armed
            with pytest.raises(FaultInjected):
                FAULTS.fire("service.commit")
        assert not FAULTS.armed
        assert FAULTS.plan is None

    def test_double_arm_refused(self):
        with armed(FaultPlan([])):
            with pytest.raises(StoreError, match="already"):
                FAULTS.arm(FaultPlan([]))

    def test_disarm_even_on_error(self):
        with pytest.raises(RuntimeError):
            with armed(FaultPlan([])):
                raise RuntimeError("storm logic failed")
        assert not FAULTS.armed
