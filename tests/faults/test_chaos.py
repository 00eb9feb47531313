"""The chaos harness end to end (small storms — the full grid is
benchmark E27)."""

import pytest

from repro.faults import PROFILES, preset
from repro.faults.chaos import run_chaos
from repro.mvcc import ENGINE_MODELS
from repro.wal import audit_log

CHAOS_KWARGS = dict(
    workers=3,
    txns_per_worker=10,
    calm_txns_per_worker=4,
    recovery_window=15.0,
)


class TestRunChaos:
    def test_mixed_storm_upholds_all_invariants(self, tmp_path):
        report = run_chaos(
            "SI",
            preset("mixed", intensity=0.6, seed=21),
            str(tmp_path / "wal"),
            seed=4,
            **CHAOS_KWARGS,
        )
        assert report.ok, report.invariants
        assert report.total_triggers > 0  # the storm actually stormed
        assert report.violations == 0
        assert report.end_state == "healthy"
        assert report.time_to_healthy is not None
        assert report.recovered_contiguous
        assert report.recovered_records >= report.durable_ts

    def test_clean_plan_is_a_baseline(self, tmp_path):
        report = run_chaos(
            "SI",
            preset("mixed", intensity=0.0, seed=1),
            str(tmp_path / "wal"),
            seed=4,
            **CHAOS_KWARGS,
        )
        assert report.ok
        assert report.total_triggers == 0
        assert report.storm["committed"] == 30

    def test_poison_read_only_keeps_serving_reads(self, tmp_path):
        # The poison preset delays its strike until mid-storm, so the
        # storm must be long enough to reach it.
        report = run_chaos(
            "SI",
            preset("poison", intensity=0.9, seed=33),
            str(tmp_path / "wal"),
            seed=4,
            on_wal_failure="read_only",
            **dict(CHAOS_KWARGS, txns_per_worker=20),
        )
        assert report.ok, report.invariants
        assert report.wal_failed
        assert report.read_only
        assert report.end_state == "degraded"
        # The durable prefix survived and certifies.
        assert report.audit_consistent
        result = audit_log(str(tmp_path / "wal"))
        assert result.consistent

    def test_report_doc_round_trips_to_json(self, tmp_path):
        import json

        report = run_chaos(
            "SER",
            preset("contention", intensity=0.4, seed=5),
            str(tmp_path / "wal"),
            seed=2,
            **CHAOS_KWARGS,
        )
        doc = json.loads(json.dumps(report.to_doc()))
        assert doc["ok"] == report.ok
        assert set(doc["invariants"]) == {
            "no_false_violations",
            "durable_prefix_recovered",
            "audit_clean",
            "recovered_in_window",
        }
        assert "chaos:" in report.describe()

    @pytest.mark.parametrize("engine", list(ENGINE_MODELS))
    def test_every_engine_survives_a_storm(self, tmp_path, engine):
        report = run_chaos(
            engine,
            preset("mixed", intensity=0.5, seed=77),
            str(tmp_path / "wal"),
            seed=6,
            **CHAOS_KWARGS,
        )
        assert report.ok, f"{engine}: {report.invariants}"
        assert report.violations == 0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_preset_point_fires(self, tmp_path, profile):
        # A preset rule over a failpoint the serving stack never reaches
        # would make its storm silently weaker than its name says.
        plan = preset(profile, intensity=0.5, seed=3)
        report = run_chaos(
            "SI", plan, str(tmp_path / "wal"), seed=3, **CHAOS_KWARGS
        )
        assert report.ok, f"{profile}: {report.invariants}"
        hits = plan.hit_counts()
        assert [p for p in plan.points if not hits.get(p)] == []
