"""Command-line front-end to the analyses.

Usage (also available as ``python -m repro``)::

    repro-si check-history log.json [--model SI|SER|PSI|all] [--exact]
    repro-si check-chopping programs.json [--criterion SI|SER|PSI]
    repro-si check-robustness programs.json [--property si-ser|psi-si]
                               [--vulnerable] [--instances N]
    repro-si serve-bench [--engine SI|SER|PSI|2PL|all] [--mix smallbank|tpcc]
                          [--workers N] [--txns N] [--window W] [--json FILE]
                          [--wal-dir DIR] [--fsync-policy always|group|none]
    repro-si chaos-bench [--engine SI|SER|PSI|2PL|all] [--mix ...]
                          [--profile disk|contention|overload|mixed|poison]
                          [--intensity X] [--fault-plan FILE] [--seed N]
                          [--on-wal-failure fail_stop|read_only]
                          [--recovery-window S] [--json FILE]
    repro-si replay WAL_DIR [--engine SI|SER|PSI|2PL] [--json FILE]
    repro-si audit-log WAL_DIR [--model SI|SER|PSI] [--window W]
                               [--checker incremental|rebuild] [--lenient]
    repro-si demo [case]

``check-history`` decides membership of a captured transaction log in the
requested model class (Theorems 8/9/21 through the membership oracle);
``check-chopping`` and ``check-robustness`` run the Section 5/6 static
analyses on read/write-set descriptions; ``serve-bench`` drives a
transaction mix through the concurrent service with a windowed online
monitor attached (optionally persisting every commit to a write-ahead
log); ``chaos-bench`` drives the same stack through a deterministic,
seed-reproducible fault storm (:mod:`repro.faults`) and asserts the
robustness invariants — no false monitor verdicts, durable prefix
recoverable and audit-clean, bounded return to healthy; ``replay``
recovers a write-ahead log directory into a fresh engine and reports
the prefix-consistent state reached; ``audit-log``
streams a log through the offline SI/SER/PSI certifiers; ``demo``
reproduces a catalog anomaly.  See :mod:`repro.io.json_format` for the
file formats and :mod:`repro.wal` for the log format.

Exit status: 0 when the property holds (history allowed / chopping
correct / application robust / serve-bench violation-free / chaos
invariants all held / log recovered / audit consistent), 1 when it
does not, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..anomalies import ALL_CASES, load as load_case
from ..characterisation.membership import classify_history, decide
from ..chopping.criticality import Criterion
from ..chopping.static import analyse_chopping
from ..mvcc import ENGINE_MODELS, build_engine
from ..robustness.static import (
    check_robustness_against_si,
    check_robustness_psi_to_si,
)
from .json_format import load_history, load_programs


def _cmd_check_history(args: argparse.Namespace) -> int:
    history, init_tid = load_history(args.file)
    if args.model == "all":
        verdicts = classify_history(history, init_tid=init_tid)
        for model, allowed in sorted(verdicts.items()):
            print(f"{model}: {'allowed' if allowed else 'NOT allowed'}")
        return 0 if verdicts["SI"] else 1
    decision = decide(history, args.model, init_tid=init_tid)
    if decision.allowed:
        print(f"history is allowed by {args.model} "
              f"({decision.graphs_explored} extension(s) explored)")
        if args.verbose and decision.witness is not None:
            print(decision.witness.describe())
        if args.dump_witness and decision.witness is not None:
            import json as _json

            from .json_format import graph_to_json

            with open(args.dump_witness, "w") as f:
                _json.dump(graph_to_json(decision.witness), f, indent=2)
            print(f"witness dependency graph written to "
                  f"{args.dump_witness}")
        return 0
    print(f"history is NOT allowed by {args.model} "
          f"({decision.graphs_explored} extension(s) explored)")
    return 1


def _cmd_check_chopping(args: argparse.Namespace) -> int:
    programs = load_programs(args.file)
    criterion = Criterion[args.criterion]
    verdict = analyse_chopping(programs, criterion)
    print(verdict)
    return 0 if verdict.correct else 1


def _cmd_check_robustness(args: argparse.Namespace) -> int:
    programs = load_programs(args.file)
    if args.property == "si-ser":
        verdict = check_robustness_against_si(
            programs,
            instances=args.instances,
            require_vulnerable=args.vulnerable,
        )
    else:
        verdict = check_robustness_psi_to_si(
            programs, instances=args.instances
        )
    print(verdict)
    return 0 if verdict.robust else 1


def _cmd_check_log(args: argparse.Namespace) -> int:
    import json as _json

    from ..monitor import ConsistencyMonitor, MonitorError

    with open(args.file) as f:
        data = _json.load(f)
    history, init_tid = load_history(args.file)
    session_of = {
        t.tid: i
        for i, session in enumerate(history.sessions)
        for t in session
    }
    order = data.get("commit_order")
    if order is None:
        order = [
            t.tid
            for session in history.sessions
            for t in session
            if t.tid != (init_tid or "")
        ]
    initial = data.get("init") or {}
    monitor = ConsistencyMonitor(
        model=args.model,
        initial_values=initial,
        strict_values=not args.lenient,
        init_tid=init_tid or "t_init",
        checker=args.checker,
    )
    try:
        for tid in order:
            txn = history.by_tid(tid)
            violation = monitor.observe_commit(
                tid, f"s{session_of[tid]}", [e.op for e in txn.events]
            )
            if violation is not None:
                print(violation)
                return 1
    except (MonitorError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"log is {args.model}-consistent "
        f"({monitor.commit_count} commits observed)"
    )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from ..viz import dependency_graph_to_dot

    history, init_tid = load_history(args.file)
    decision = decide(history, args.model, init_tid=init_tid)
    if not decision.allowed or decision.witness is None:
        print(
            f"history is NOT allowed by {args.model}; nothing to render",
            file=sys.stderr,
        )
        return 1
    dot = dependency_graph_to_dot(decision.witness, name=args.model)
    if args.output:
        with open(args.output, "w") as f:
            f.write(dot + "\n")
        print(f"DOT written to {args.output}")
    else:
        print(dot)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json as _json
    import os as _os

    from ..core.errors import ReproError
    from ..service import MIXES, LoadGenerator, TransactionService

    engines = list(ENGINE_MODELS) if args.engine == "all" else [args.engine]
    # The report's metadata block mirrors every knob that shaped the
    # run, so benchmark JSONs are self-describing across PRs.
    report = {
        "mix": args.mix,
        "workers": args.workers,
        "transactions_per_worker": args.txns,
        "window": args.window,
        "checker": args.checker,
        "seed": args.seed,
        "think_time": args.think_time,
        "max_retries": args.max_retries,
        "max_concurrent": args.max_concurrent,
        "duration": args.duration,
        "wal": (
            {"dir": args.wal_dir, "fsync_policy": args.fsync_policy}
            if args.wal_dir
            else None
        ),
        "engines": {},
    }
    total_violations = 0
    for key in engines:
        mix = MIXES[args.mix]()
        engine, model = build_engine(key, mix.initial)
        wal = None
        try:
            if args.wal_dir:
                from ..wal import WriteAheadLog

                wal_dir = (
                    args.wal_dir
                    if len(engines) == 1
                    else _os.path.join(args.wal_dir, key)
                )
                wal = WriteAheadLog(
                    wal_dir,
                    fsync_policy=args.fsync_policy,
                    meta={
                        "engine": key,
                        "init": engine.initial,
                        "init_tid": engine.init_tid,
                        "model": model,
                    },
                )
            service = TransactionService.certified(
                engine,
                model=model,
                window=args.window,
                checker=args.checker,
                max_concurrent=args.max_concurrent,
                max_retries=args.max_retries,
                wal=wal,
            )
            result = LoadGenerator(
                service,
                mix,
                workers=args.workers,
                transactions_per_worker=args.txns,
                duration=args.duration,
                seed=args.seed,
                think_time=args.think_time,
            ).run()
            service.close()
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        total_violations += result.violations
        metrics = service.metrics.snapshot()
        report["engines"][key] = {
            "model": model,
            "committed": result.committed,
            "retry_exhausted": result.retry_exhausted,
            "violations": result.violations,
            "throughput_tps": round(result.throughput, 1),
            "abort_rate": round(service.metrics.abort_rate, 4),
            "latency_seconds": metrics["latency_seconds"],
            # After close(): every acknowledged commit was certified.
            "certified_ts": metrics["gauges"]["certified_ts"],
            "certifier_lag": metrics["gauges"]["certifier_lag"],
        }
        if wal is not None:
            report["engines"][key]["wal"] = {
                "dir": wal.directory,
                "fsync_policy": wal.fsync_policy,
                **metrics["wal"],
            }
        print(
            f"{key:<4} ({model} monitor): "
            f"{result.committed} committed, "
            f"{result.retry_exhausted} exhausted, "
            f"{result.violations} violations, "
            f"{result.throughput:.0f} txn/s, "
            f"abort rate {service.metrics.abort_rate:.1%}"
        )
        if wal is not None:
            print(
                f"     wal: {metrics['wal']['appends']} appends, "
                f"{metrics['wal']['fsyncs']} fsyncs, "
                f"{metrics['wal']['bytes']} bytes "
                f"({wal.fsync_policy} policy, {wal.directory})"
            )
    if args.json:
        with open(args.json, "w") as f:
            _json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"metrics written to {args.json}")
    if total_violations:
        print(f"{total_violations} consistency violation(s) detected")
        return 1
    return 0


def _cmd_chaos_bench(args: argparse.Namespace) -> int:
    import json as _json
    import os as _os
    import tempfile as _tempfile

    from ..core.errors import ReproError
    from ..faults import FaultPlan, preset
    from ..faults.chaos import run_chaos

    engines = list(ENGINE_MODELS) if args.engine == "all" else [args.engine]
    try:
        if args.fault_plan:
            base_plan = FaultPlan.load(args.fault_plan)
        else:
            base_plan = preset(
                args.profile, intensity=args.intensity, seed=args.seed
            )
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "mix": args.mix,
        "workers": args.workers,
        "transactions_per_worker": args.txns,
        "calm_transactions_per_worker": args.calm_txns,
        "plan": base_plan.to_doc(),
        "fsync_policy": args.fsync_policy,
        "on_wal_failure": args.on_wal_failure,
        "recovery_window": args.recovery_window,
        "seed": args.seed,
        "engines": {},
    }
    failed = 0
    scratch = None
    if args.wal_dir is None:
        scratch = _tempfile.TemporaryDirectory(prefix="chaos-wal-")
    try:
        root = args.wal_dir or scratch.name
        for key in engines:
            # Each engine gets a fresh plan (hit counters are state)
            # and its own log directory.
            plan = FaultPlan.from_doc(base_plan.to_doc())
            wal_dir = (
                root if len(engines) == 1 else _os.path.join(root, key)
            )
            try:
                result = run_chaos(
                    key,
                    plan,
                    wal_dir,
                    mix_name=args.mix,
                    workers=args.workers,
                    txns_per_worker=args.txns,
                    calm_txns_per_worker=args.calm_txns,
                    seed=args.seed,
                    fsync_policy=args.fsync_policy,
                    on_wal_failure=args.on_wal_failure,
                    recovery_window=args.recovery_window,
                )
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            report["engines"][key] = result.to_doc()
            print(result.describe())
            if not result.ok:
                failed += 1
    finally:
        if scratch is not None:
            scratch.cleanup()
    if args.json:
        with open(args.json, "w") as f:
            _json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"chaos report written to {args.json}")
    if failed:
        print(f"{failed} engine(s) violated a chaos invariant")
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import json as _json

    from ..core.errors import ReproError
    from ..wal import recover

    try:
        result = recover(args.wal_dir, engine_key=args.engine)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.describe())
    if args.json:
        doc = {
            "engine": (result.meta.engine if result.meta else None),
            "records_recovered": result.records_recovered,
            "first_ts": result.first_ts,
            "last_ts": result.last_ts,
            "segments_scanned": result.segments_scanned,
            "segments_dropped": result.segments_dropped,
            "bytes_scanned": result.bytes_scanned,
            "truncated": result.truncated,
            "damage": [str(d) for d in result.damage],
            "elapsed_seconds": result.elapsed_seconds,
        }
        with open(args.json, "w") as f:
            _json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"recovery report written to {args.json}")
    return 0


def _cmd_audit_log(args: argparse.Namespace) -> int:
    from ..core.errors import ReproError
    from ..wal import audit_log

    try:
        result = audit_log(
            args.wal_dir,
            model=args.model,
            window=args.window,
            checker=args.checker,
            strict_values=not args.lenient,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.describe())
    return 0 if result.consistent else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    if args.case is None:
        print("available cases:")
        for name in sorted(ALL_CASES):
            print(f"  {name}")
        return 0
    case = load_case(args.case)
    print(case.description)
    print()
    print(case.history.describe())
    verdicts = classify_history(case.history, init_tid=case.init_tid)
    print()
    for model, allowed in sorted(verdicts.items()):
        marker = "allowed" if allowed else "NOT allowed"
        print(f"{model}: {marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-si",
        description="Snapshot-isolation analyses "
        "(Cerone & Gotsman, PODC 2016, reproduced)",
    )
    from .. import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hist = sub.add_parser(
        "check-history", help="decide HistSI/HistSER/HistPSI membership"
    )
    p_hist.add_argument("file", help="history JSON document")
    p_hist.add_argument(
        "--model", choices=["SI", "SER", "PSI", "all"], default="SI"
    )
    p_hist.add_argument(
        "--verbose", action="store_true",
        help="print the witnessing dependency graph",
    )
    p_hist.add_argument(
        "--dump-witness", metavar="FILE", default=None,
        help="write the witnessing dependency graph as JSON",
    )
    p_hist.set_defaults(func=_cmd_check_history)

    p_chop = sub.add_parser(
        "check-chopping", help="static chopping analysis (Corollary 18)"
    )
    p_chop.add_argument("file", help="programs JSON document")
    p_chop.add_argument(
        "--criterion", choices=["SI", "SER", "PSI"], default="SI"
    )
    p_chop.set_defaults(func=_cmd_check_chopping)

    p_rob = sub.add_parser(
        "check-robustness", help="static robustness analysis (Section 6)"
    )
    p_rob.add_argument("file", help="programs JSON document")
    p_rob.add_argument(
        "--property", choices=["si-ser", "psi-si"], default="si-ser"
    )
    p_rob.add_argument(
        "--vulnerable", action="store_true",
        help="enable the write-conflict vulnerability refinement",
    )
    p_rob.add_argument("--instances", type=int, default=2)
    p_rob.set_defaults(func=_cmd_check_robustness)

    p_log = sub.add_parser(
        "check-log",
        help="replay a commit-ordered log through the online monitor",
    )
    p_log.add_argument("file", help="history JSON document (optionally "
                       "with a 'commit_order' tid list)")
    p_log.add_argument(
        "--model", choices=["SI", "SER", "PSI"], default="SI"
    )
    p_log.add_argument(
        "--lenient", action="store_true",
        help="attribute ambiguous read values to the latest writer "
             "instead of erroring",
    )
    p_log.add_argument(
        "--checker", choices=["incremental", "rebuild"],
        default="incremental",
        help="certification back-end: incremental dynamic-topological-"
             "order core (default) or full per-commit rebuild (oracle)",
    )
    p_log.set_defaults(func=_cmd_check_log)

    p_dot = sub.add_parser(
        "dot", help="render a history's witness dependency graph as DOT"
    )
    p_dot.add_argument("file", help="history JSON document")
    p_dot.add_argument(
        "--model", choices=["SI", "SER", "PSI"], default="SI",
        help="model whose witness extension to render",
    )
    p_dot.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="write DOT here instead of stdout",
    )
    p_dot.set_defaults(func=_cmd_dot)

    p_serve = sub.add_parser(
        "serve-bench",
        help="drive a transaction mix through the concurrent service "
        "with a windowed online monitor attached",
    )
    p_serve.add_argument(
        "--engine", choices=list(ENGINE_MODELS) + ["all"], default="SI",
        help="engine under load (2PL certifies against SER)",
    )
    p_serve.add_argument(
        "--mix", choices=["smallbank", "tpcc"], default="smallbank"
    )
    p_serve.add_argument(
        "--workers", type=int, default=8, help="worker threads"
    )
    p_serve.add_argument(
        "--txns", type=int, default=50,
        help="transactions submitted per worker",
    )
    p_serve.add_argument(
        "--window", type=int, default=64,
        help="monitor window (retained commits)",
    )
    p_serve.add_argument(
        "--checker", choices=["incremental", "rebuild"],
        default="incremental",
        help="monitor certification back-end: incremental dynamic-"
             "topological-order core (default) or full per-commit "
             "rebuild (oracle)",
    )
    p_serve.add_argument(
        "--max-concurrent", type=int, default=None,
        help="admission limit (default: unlimited)",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=1000,
        help="resubmissions allowed before a transaction gives up",
    )
    p_serve.add_argument(
        "--duration", type=float, default=None,
        help="wall-clock cutoff in seconds",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--think-time", type=float, default=0.0,
        help="per-transaction client think time in seconds",
    )
    p_serve.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="persist every commit to a write-ahead log in DIR "
             "(per-engine subdirectories with --engine all)",
    )
    p_serve.add_argument(
        "--fsync-policy", choices=["always", "group", "none"],
        default="group",
        help="WAL durability: fsync per record (always), one fsync per "
             "group-commit batch (group, default), or OS write-back "
             "only (none)",
    )
    p_serve.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the per-engine metrics report as JSON",
    )
    p_serve.set_defaults(func=_cmd_serve_bench)

    p_chaos = sub.add_parser(
        "chaos-bench",
        help="run a transaction mix through a seeded fault storm and "
        "assert the end-to-end robustness invariants",
    )
    p_chaos.add_argument(
        "--engine", choices=list(ENGINE_MODELS) + ["all"], default="SI",
        help="engine under chaos (2PL certifies against SER)",
    )
    p_chaos.add_argument(
        "--mix", choices=["smallbank", "tpcc"], default="smallbank"
    )
    p_chaos.add_argument(
        "--profile",
        choices=["disk", "contention", "overload", "mixed", "poison"],
        default="mixed",
        help="preset fault-storm profile (ignored with --fault-plan)",
    )
    p_chaos.add_argument(
        "--intensity", type=float, default=0.5,
        help="storm intensity in [0, 1] scaling the preset's "
             "probabilities and delays",
    )
    p_chaos.add_argument(
        "--fault-plan", metavar="FILE", default=None,
        help="load the fault plan from a JSON file instead of a preset",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=8, help="worker threads"
    )
    p_chaos.add_argument(
        "--txns", type=int, default=40,
        help="storm transactions submitted per worker",
    )
    p_chaos.add_argument(
        "--calm-txns", type=int, default=10,
        help="per-round transactions per worker while healing",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="write-ahead log directory (default: a temporary "
             "directory, removed afterwards; per-engine "
             "subdirectories with --engine all)",
    )
    p_chaos.add_argument(
        "--fsync-policy", choices=["always", "group", "none"],
        default="group",
    )
    p_chaos.add_argument(
        "--on-wal-failure", choices=["fail_stop", "read_only"],
        default="fail_stop",
        help="degradation policy when the log is poisoned: surface "
             "the failure per commit (fail_stop) or refuse updates "
             "and keep serving reads (read_only)",
    )
    p_chaos.add_argument(
        "--recovery-window", type=float, default=10.0,
        help="seconds after the storm within which the service must "
             "return to healthy",
    )
    p_chaos.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the per-engine chaos report as JSON",
    )
    p_chaos.set_defaults(func=_cmd_chaos_bench)

    p_replay = sub.add_parser(
        "replay",
        help="recover a write-ahead log directory into a fresh engine",
    )
    p_replay.add_argument("wal_dir", help="write-ahead log directory")
    p_replay.add_argument(
        "--engine", choices=list(ENGINE_MODELS), default=None,
        help="override the engine class recorded in the log meta",
    )
    p_replay.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the recovery report as JSON",
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_audit = sub.add_parser(
        "audit-log",
        help="stream a write-ahead log through the offline certifiers",
    )
    p_audit.add_argument("wal_dir", help="write-ahead log directory")
    p_audit.add_argument(
        "--model", choices=["SI", "SER", "PSI"], default=None,
        help="model to certify against (default: the one the log's "
             "producer recorded)",
    )
    p_audit.add_argument(
        "--window", type=int, default=None,
        help="audit with a windowed monitor of this size (bounded "
             "memory; default: full graph)",
    )
    p_audit.add_argument(
        "--checker", choices=["incremental", "rebuild"],
        default="incremental",
        help="certification back-end (as for check-log)",
    )
    p_audit.add_argument(
        "--lenient", action="store_true",
        help="attribute ambiguous read values to the latest writer "
             "instead of aborting the audit",
    )
    p_audit.set_defaults(func=_cmd_audit_log)

    p_demo = sub.add_parser("demo", help="reproduce a catalog anomaly")
    p_demo.add_argument("case", nargs="?", default=None)
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
