"""Tests for the command-line front-end."""

import json

import pytest

from repro.anomalies import ALL_CASES
from repro.chopping.programs import p1_programs, p2_programs
from repro.io.cli import main
from repro.io.json_format import (
    dump_history,
    dump_programs,
    history_to_json,
)


@pytest.fixture
def write_skew_file(tmp_path):
    path = tmp_path / "write_skew.json"
    dump_history(ALL_CASES["write_skew"]().history, str(path))
    return str(path)


@pytest.fixture
def long_fork_file(tmp_path):
    path = tmp_path / "long_fork.json"
    dump_history(ALL_CASES["long_fork"]().history, str(path))
    return str(path)


class TestCheckHistory:
    def test_allowed_history_exit_zero(self, write_skew_file, capsys):
        assert main(["check-history", write_skew_file, "--model", "SI"]) == 0
        assert "allowed by SI" in capsys.readouterr().out

    def test_disallowed_history_exit_one(self, write_skew_file, capsys):
        assert main(["check-history", write_skew_file, "--model", "SER"]) == 1
        assert "NOT allowed" in capsys.readouterr().out

    def test_all_models(self, long_fork_file, capsys):
        status = main(["check-history", long_fork_file, "--model", "all"])
        out = capsys.readouterr().out
        assert status == 1  # not in HistSI
        assert "PSI: allowed" in out
        assert "SI: NOT allowed" in out

    def test_verbose_prints_witness(self, write_skew_file, capsys):
        main(["check-history", write_skew_file, "--verbose"])
        out = capsys.readouterr().out
        assert "WR" in out

    def test_missing_file_exit_two(self, capsys):
        assert main(["check-history", "/nonexistent.json"]) == 2


class TestCheckChopping:
    def test_incorrect_chopping(self, tmp_path, capsys):
        path = tmp_path / "p1.json"
        dump_programs(p1_programs(), str(path))
        assert main(["check-chopping", str(path)]) == 1
        assert "critical cycle" in capsys.readouterr().out

    def test_correct_chopping(self, tmp_path, capsys):
        path = tmp_path / "p2.json"
        dump_programs(p2_programs(), str(path))
        assert main(["check-chopping", str(path)]) == 0
        assert "correct under SI" in capsys.readouterr().out

    def test_criterion_selection(self, tmp_path):
        from repro.chopping.programs import p3_programs

        path = tmp_path / "p3.json"
        dump_programs(p3_programs(), str(path))
        assert main(["check-chopping", str(path), "--criterion", "SER"]) == 1
        assert main(["check-chopping", str(path), "--criterion", "SI"]) == 0


class TestCheckRobustness:
    def test_vulnerable_app_flagged(self, tmp_path, capsys):
        data = {
            "programs": [
                {"name": "w1", "pieces": [
                    {"reads": ["a", "b"], "writes": ["a"]}]},
                {"name": "w2", "pieces": [
                    {"reads": ["a", "b"], "writes": ["b"]}]},
            ]
        }
        path = tmp_path / "app.json"
        path.write_text(json.dumps(data))
        assert main(["check-robustness", str(path)]) == 1

    def test_robust_app_passes(self, tmp_path):
        data = {
            "programs": [
                {"name": "logger", "pieces": [
                    {"reads": [], "writes": ["log"]}]},
                {"name": "reader", "pieces": [
                    {"reads": ["metrics"], "writes": []}]},
            ]
        }
        path = tmp_path / "app.json"
        path.write_text(json.dumps(data))
        assert main(["check-robustness", str(path)]) == 0
        assert main(["check-robustness", str(path),
                     "--property", "psi-si"]) == 0

    def test_vulnerable_flag(self, tmp_path):
        data = {
            "programs": [
                {"name": "inc", "pieces": [
                    {"reads": ["c"], "writes": ["c"]}]},
            ]
        }
        path = tmp_path / "app.json"
        path.write_text(json.dumps(data))
        assert main(["check-robustness", str(path)]) == 1
        assert main(
            ["check-robustness", str(path), "--vulnerable"]
        ) == 0


class TestDot:
    def test_dot_to_stdout(self, write_skew_file, capsys):
        assert main(["dot", write_skew_file, "--model", "SI"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "RW(" in out

    def test_dot_to_file(self, write_skew_file, tmp_path, capsys):
        target = str(tmp_path / "g.dot")
        assert main(["dot", write_skew_file, "-o", target]) == 0
        text = open(target).read()
        assert text.startswith("digraph")

    def test_dot_refuses_disallowed(self, long_fork_file, capsys):
        assert main(["dot", long_fork_file, "--model", "SI"]) == 1
        assert "NOT allowed" in capsys.readouterr().err

    def test_dump_witness_roundtrip(self, write_skew_file, tmp_path, capsys):
        from repro.graphs import in_graph_si
        from repro.io.json_format import graph_from_json
        import json as _json

        target = str(tmp_path / "w.json")
        assert main(
            ["check-history", write_skew_file, "--dump-witness", target]
        ) == 0
        with open(target) as f:
            graph = graph_from_json(_json.load(f))
        assert in_graph_si(graph)


class TestServeBench:
    def test_si_smallbank_clean_run(self, tmp_path, capsys):
        report_path = tmp_path / "metrics.json"
        status = main(
            [
                "serve-bench",
                "--engine", "SI",
                "--workers", "4",
                "--txns", "5",
                "--seed", "3",
                "--json", str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "0 violations" in out
        report = json.loads(report_path.read_text())
        assert report["workers"] == 4
        engine_report = report["engines"]["SI"]
        assert engine_report["violations"] == 0
        assert engine_report["committed"] > 0
        assert "p99" in engine_report["latency_seconds"]

    def test_json_carries_certifier_progress(self, tmp_path, capsys):
        report_path = tmp_path / "metrics.json"
        status = main(
            ["serve-bench", "--engine", "SI", "--workers", "2",
             "--txns", "20", "--seed", "4", "--json", str(report_path)]
        )
        capsys.readouterr()
        assert status == 0
        engine_report = json.loads(report_path.read_text())["engines"]["SI"]
        # Closed, so drained: every commit certified, none behind.
        assert engine_report["certified_ts"] == engine_report["committed"]
        assert engine_report["certifier_lag"] == 0

    def test_all_engines_and_tpcc_mix(self, capsys):
        status = main(
            [
                "serve-bench",
                "--engine", "all",
                "--mix", "tpcc",
                "--workers", "2",
                "--txns", "3",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        for key in ("SI", "SER", "PSI", "2PL"):
            assert key in out

    def test_admission_limit_accepted(self, capsys):
        status = main(
            [
                "serve-bench",
                "--workers", "4",
                "--txns", "4",
                "--max-concurrent", "2",
            ]
        )
        assert status == 0

    def test_bad_engine_rejected(self):
        assert main(["serve-bench", "--engine", "XXL"]) == 2

    def test_invalid_workers_clean_usage_error(self, capsys):
        assert main(["serve-bench", "--workers", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_window_clean_usage_error(self, capsys):
        assert main(["serve-bench", "--window", "1"]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_report_embeds_run_knobs(self, tmp_path):
        # Regression: reports used to omit the knobs that shaped the
        # run, making BENCH_service.json files ambiguous.
        report_path = tmp_path / "metrics.json"
        assert main(
            [
                "serve-bench",
                "--engine", "SI",
                "--workers", "2",
                "--txns", "3",
                "--seed", "7",
                "--json", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["seed"] == 7
        assert report["engines"]["SI"]["model"] == "SI"
        assert report["max_retries"] >= 0
        assert report["wal"] is None


class TestServeBenchWal:
    def test_wal_dir_produces_recoverable_log(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        report_path = tmp_path / "metrics.json"
        status = main(
            [
                "serve-bench",
                "--engine", "SI",
                "--workers", "2",
                "--txns", "4",
                "--seed", "1",
                "--wal-dir", wal_dir,
                "--fsync-policy", "none",
                "--json", str(report_path),
            ]
        )
        assert status == 0
        assert "wal:" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["wal"] == {"dir": wal_dir, "fsync_policy": "none"}
        engine_report = report["engines"]["SI"]
        assert engine_report["wal"]["dir"] == wal_dir
        assert engine_report["wal"]["appends"] == engine_report["committed"]

        # The log replays and audits cleanly through the CLI verbs.
        assert main(["replay", wal_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert main(["audit-log", wal_dir]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_engine_all_gets_per_engine_subdirs(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        status = main(
            [
                "serve-bench",
                "--engine", "all",
                "--workers", "2",
                "--txns", "2",
                "--wal-dir", wal_dir,
                "--fsync-policy", "none",
            ]
        )
        assert status == 0
        import os

        for key in ("SI", "SER", "PSI", "2PL"):
            assert main(["replay", os.path.join(wal_dir, key)]) == 0

    def test_replay_json_report(self, tmp_path, capsys):
        wal_dir = str(tmp_path / "wal")
        assert main(
            ["serve-bench", "--engine", "SI", "--workers", "2",
             "--txns", "3", "--wal-dir", wal_dir,
             "--fsync-policy", "none"]
        ) == 0
        capsys.readouterr()
        report_path = tmp_path / "replay.json"
        assert main(["replay", wal_dir, "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["records_recovered"] > 0
        assert report["truncated"] is False
        assert report["damage"] == []

    def test_replay_missing_directory_exit_two(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_audit_log_missing_directory_exit_two(self, tmp_path):
        assert main(["audit-log", str(tmp_path / "nope")]) == 2


class TestDemo:
    def test_list_cases(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "write_skew" in out

    def test_run_case(self, capsys):
        assert main(["demo", "long_fork"]) == 0
        out = capsys.readouterr().out
        assert "PSI: allowed" in out
        assert "SI: NOT allowed" in out

    def test_unknown_case(self, capsys):
        assert main(["demo", "phantom"]) == 2

    def test_bad_usage(self):
        assert main(["frobnicate"]) == 2
