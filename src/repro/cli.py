"""Command-line interface: deploy a mediator from a spec and query it.

Usage::

    python -m repro describe SPEC                 # show the annotated VDP
    python -m repro query SPEC "project[a](V)"    # one-shot query
    python -m repro repl SPEC                     # interactive session
    python -m repro trace ex23 --out t.jsonl      # traced canned scenario
    python -m repro stats ex23                    # metrics after a scenario
    python -m repro profile --scenario figure1    # per-node cost profile
    python -m repro export-metrics ex23           # Prometheus text format
    python -m repro checkpoint SPEC --dir DIR     # write a durable checkpoint
    python -m repro recover SPEC --dir DIR        # recover a mediator from DIR
    python -m repro soak --sources 200 --seed 7   # churn & soak workload

``soak`` generates a seeded federation (:mod:`repro.generator.federation`)
and drives it through a churn schedule — sources joining, leaving, and
suffering outages while updates cross a faulty simulated network — with
periodic convergence checkpoints (churned ≡ static) and a freshness-SLO
report; ``--crash TXN:PHASE`` composes in the durability crash schedule.
Exits non-zero on any convergence or SLO violation.

``checkpoint`` deploys a mediator from the spec (+ data) and writes a full
checkpoint into ``--dir`` (creating the write-ahead log alongside it);
``recover`` rebuilds a mediator from that directory *without* re-reading
the sources wholesale — checkpoint chain, WAL tail, then source-log
catch-up — and prints what recovery did (optionally answering ``--query``
against the recovered state).  See :mod:`repro.durability`.

``trace`` and ``stats`` drive a canned scenario (one of
``repro.obs.harness.SCENARIOS``) with tracing and delta provenance on;
``trace`` prints the span tree (and optionally exports schema-validated
JSONL), ``stats`` prints the metrics-registry snapshot and the per-node
provenance summary.  ``profile`` runs a scenario under the cost profiler
(``figure1`` is an alias for ``ex21``, the Figure 1 acceptance workload)
and prints the per-node cost table — its totals reconcile *exactly* with
the ``MediatorStats`` counters, and the command exits non-zero if they do
not.  ``export-metrics`` runs a scenario and emits the metrics snapshot
in the Prometheus text exposition format (or JSON with ``--format json``).

``SPEC`` is a mediator specification file (see :mod:`repro.generator.spec`).
Initial data is loaded from an optional ``--data FILE.json`` whose shape is
``{"source": {"relation": [[v, v, ...], ...]}}``.  The REPL accepts algebra
queries plus the commands ``\\vdp``, ``\\stats``, ``\\refresh``,
``\\insert source relation v1 v2 ...``, ``\\delete source relation v1 v2 ...``
and ``\\quit``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import SquirrelMediator
from repro.errors import ReproError
from repro.generator import generate_mediator, make_sources, parse_spec

__all__ = ["main", "build_mediator_from_files"]


def _load_data(path: Optional[str]) -> Dict[str, Dict[str, List[Sequence[Any]]]]:
    if path is None:
        return {}
    with open(path) as handle:
        raw = json.load(handle)
    return {
        source: {rel: [tuple(row) for row in rows] for rel, rows in relations.items()}
        for source, relations in raw.items()
    }


def build_mediator_from_files(
    spec_path: str,
    data_path: Optional[str] = None,
    backend: str = "memory",
) -> SquirrelMediator:
    """Deploy an initialized mediator from a spec file (+ optional data)."""
    with open(spec_path) as handle:
        spec = parse_spec(handle.read())
    sources = make_sources(spec, initial=_load_data(data_path), backend=backend)
    return generate_mediator(spec, sources)


def _print_relation(relation, out) -> None:
    names = relation.schema.attribute_names
    print("  " + " | ".join(names), file=out)
    for values, count in relation.to_sorted_list():
        suffix = f"  (x{count})" if count != 1 else ""
        print("  " + " | ".join(str(v) for v in values) + suffix, file=out)
    print(f"  [{relation.cardinality()} rows]", file=out)


def _cmd_describe(args, out) -> int:
    mediator = build_mediator_from_files(args.spec, args.data, args.backend)
    print(mediator.annotated.describe(), file=out)
    print(file=out)
    print(
        "contributors: "
        + ", ".join(f"{k}={v.value}" for k, v in sorted(mediator.contributor_kinds.items())),
        file=out,
    )
    return 0


def _cmd_query(args, out) -> int:
    mediator = build_mediator_from_files(args.spec, args.data, args.backend)
    answer = mediator.query(args.expression)
    _print_relation(answer, out)
    return 0


def _parse_value(token: str) -> Any:
    for caster in (int, float):
        try:
            return caster(token)
        except ValueError:
            continue
    return token


def _repl_command(mediator: SquirrelMediator, line: str, out) -> bool:
    """Handle one REPL line; returns False to exit."""
    if line in ("\\quit", "\\q"):
        return False
    if line == "\\vdp":
        print(mediator.annotated.describe(), file=out)
        return True
    if line == "\\stats":
        for field, value in vars(mediator.stats()).items():
            print(f"  {field}: {value}", file=out)
        return True
    if line == "\\refresh":
        result = mediator.refresh()
        print(
            f"  {result.flushed_messages} messages, {result.rules_fired} rules, "
            f"nodes {list(result.processed_nodes)}",
            file=out,
        )
        return True
    if line.startswith("\\insert ") or line.startswith("\\delete "):
        op, source_name, relation, *values = line[1:].split()
        source = mediator.sources[source_name]
        names = source.schema(relation).attribute_names
        if len(values) != len(names):
            print(f"  expected {len(names)} values for {names}", file=out)
            return True
        kwargs = {n: _parse_value(v) for n, v in zip(names, values)}
        (source.insert if op == "insert" else source.delete)(relation, **kwargs)
        print("  ok (use \\refresh to propagate)", file=out)
        return True
    answer = mediator.query(line)
    _print_relation(answer, out)
    return True


def _cmd_trace(args, out) -> int:
    from repro.obs import Tracer, export_jsonl, render_span_tree, run_scenario

    tracer = Tracer(enabled=True, provenance=not args.no_provenance)
    run_scenario(args.scenario, tracer)
    if args.out:
        written = export_jsonl(tracer, args.out, validate=not args.no_validate)
        print(f"wrote {written} records to {args.out}", file=out)
    if not args.quiet:
        print(render_span_tree(tracer), file=out)
    return 0


def _cmd_stats(args, out) -> int:
    from repro.obs import Tracer, origin_labels, render_metrics, run_scenario

    tracer = Tracer(enabled=True, provenance=True)
    mediator = run_scenario(args.scenario, tracer)
    print(render_metrics(mediator.metrics.snapshot()), file=out)
    storage = mediator.store.storage_metrics()
    if storage:
        print(file=out)
        print("storage (per stored node):", file=out)
        width = max(len(row["node"]) for row in storage)
        for row in storage:
            print(
                f"  {row['node']:<{width}}  {row['rows_stored']:>8} rows "
                f"({row['distinct_rows']} distinct, ~{row['estimated_bytes']} bytes)",
                file=out,
            )
        total = mediator.store.total_stored_bytes()
        print(f"  total estimated bytes: {total}", file=out)
    prov = tracer.provenance
    tracked = prov.tracked_nodes()
    if tracked:
        print(file=out)
        print("delta provenance (last transaction per node):", file=out)
        for node in tracked:
            labels = ", ".join(origin_labels(prov.origins_of(node)))
            approx = " (upper bound)" if prov.is_approx(node) else ""
            print(f"  {node}: {labels}{approx}", file=out)
    return 0


def _cmd_profile(args, out) -> int:
    from repro.obs import CostProfiler, Tracer, run_scenario

    # "figure1" names the acceptance workload; it is the ex21 scenario.
    scenario = "ex21" if args.scenario == "figure1" else args.scenario
    tracer = Tracer(enabled=True, retain=False)
    profiler = CostProfiler().attach(tracer)
    mediator = run_scenario(scenario, tracer)
    profile = profiler.profile()
    if args.json:
        print(profile.to_json(indent=2), file=out)
    else:
        nodes = sorted(
            profile.nodes.items(),
            key=lambda item: (-item[1].propagation_time, item[0]),
        )
        header = (
            f"{'node':<14} {'prop_ms':>8} {'fires':>6} {'rows':>7} "
            f"{'constructs':>10} {'poll_rows':>9} {'hit/miss':>9} "
            f"{'queries':>7} {'query_ms':>9}"
        )
        print(f"cost profile: scenario {scenario!r} (per node)", file=out)
        print(header, file=out)
        for name, cost in nodes:
            print(
                f"{name:<14} {cost.propagation_time * 1000:>8.3f} "
                f"{cost.fires_out:>6} {cost.apply_rows:>7} "
                f"{cost.constructs:>10} {cost.poll_rows:>9} "
                f"{cost.cache_hits:>4}/{cost.cache_misses:<4} "
                f"{cost.queries:>7} {cost.query_time * 1000:>9.3f}",
                file=out,
            )
        totals = (
            f"{'TOTAL':<14} {profile.total('propagation_time') * 1000:>8.3f} "
            f"{int(profile.total('fires_out')):>6} "
            f"{int(profile.total('apply_rows')):>7} "
            f"{int(profile.total('constructs')):>10} "
            f"{int(profile.total('poll_rows')):>9} "
            f"{int(profile.total('cache_hits')):>4}/"
            f"{int(profile.total('cache_misses')):<4} "
            f"{profile.queries.count:>7} {profile.queries.time * 1000:>9.3f}"
        )
        print(totals, file=out)
        if profile.sources:
            print(file=out)
            print("per source:", file=out)
            for name in sorted(profile.sources):
                cost = profile.sources[name]
                print(
                    f"  {name}: {cost.polls} polls, {cost.poll_rows} answer rows, "
                    f"{cost.poll_time * 1000:.3f} ms, "
                    f"{cost.compensations} compensations",
                    file=out,
                )
        if args.top:
            print(file=out)
            print(f"top {args.top} by propagation time:", file=out)
            for name, value in profile.top(args.top):
                print(f"  {name}: {value * 1000:.3f} ms", file=out)
    # In --json mode stdout stays pure JSON; the verdict goes to stderr.
    verdict_out = sys.stderr if args.json else out
    mismatches = profile.reconcile(mediator.stats())
    if mismatches:
        for mismatch in mismatches:
            print(f"RECONCILIATION MISMATCH: {mismatch}", file=verdict_out)
        return 1
    print(
        "reconciliation: profile totals match MediatorStats counters exactly",
        file=verdict_out,
    )
    return 0


def _cmd_export_metrics(args, out) -> int:
    from repro.obs import NULL_TRACER, render_prometheus, run_scenario

    mediator = run_scenario(args.scenario, NULL_TRACER)
    snapshot = mediator.metrics.snapshot()
    if args.format == "prometheus":
        text = render_prometheus(snapshot)
    else:
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote metrics for {args.scenario!r} to {args.out}", file=out)
    else:
        print(text, end="", file=out)
    return 0


def _cmd_checkpoint(args, out) -> int:
    from repro.durability import DurabilityManager

    mediator = build_mediator_from_files(args.spec, args.data, args.backend)
    manager = DurabilityManager(mediator, args.dir)
    try:
        ckpt_id = manager.checkpoint(full=True)
        print(
            f"checkpoint {ckpt_id} written to {args.dir} "
            f"({manager.stats.checkpoint_nodes} nodes, "
            f"{manager.stats.checkpoint_rows} rows)",
            file=out,
        )
    finally:
        manager.close()
    return 0


def _cmd_recover(args, out) -> int:
    from repro.durability import RecoveryManager
    from repro.generator import build_annotated_from_spec

    with open(args.spec) as handle:
        spec = parse_spec(handle.read())
    annotated = build_annotated_from_spec(spec)
    sources = make_sources(spec, initial=_load_data(args.data), backend=args.backend)
    result = RecoveryManager(args.dir).recover(
        annotated, sources, on_stale=args.on_stale
    )
    print(
        f"recovered from checkpoint {result.checkpoint_id}: "
        f"{result.wal_records_replayed} WAL records, "
        f"{result.replayed_txns} source transactions replayed",
        file=out,
    )
    if result.reinitialized_sources:
        print(
            "selectively reinitialized "
            + ", ".join(result.reinitialized_sources)
            + " (nodes: "
            + ", ".join(result.reinitialized_nodes)
            + ")",
            file=out,
        )
    if args.query:
        _print_relation(result.mediator.query(args.query), out)
    return 0


def _parse_crash_point(point: str) -> Tuple[int, str]:
    """Parse one ``--crash TXN:PHASE`` value, or raise a usage ReproError."""
    from repro.faults import CRASH_PHASES

    txn_text, sep, phase = point.partition(":")
    if not sep or phase not in CRASH_PHASES:
        raise ReproError(
            f"--crash expects TXN:PHASE with PHASE one of "
            f"{', '.join(CRASH_PHASES)}; got {point!r}"
        )
    try:
        txn = int(txn_text)
    except ValueError:
        raise ReproError(
            f"--crash expects an integer transaction index; got {point!r}"
        ) from None
    return txn, phase


def _cmd_soak(args, out) -> int:
    from repro.soak import SoakConfig, run_soak, write_slo_report

    crash_points = tuple(_parse_crash_point(point) for point in args.crash or ())
    config = SoakConfig(
        sources=args.sources,
        seed=args.seed,
        steps=args.steps,
        checkpoint_every=args.checkpoint_every,
        staleness_bound=args.staleness_bound,
        crash_points=crash_points,
        durability_dir=args.durability_dir,
        replicas=args.replicas,
        sqlite_sources=args.sqlite_sources,
        telemetry_dir=args.telemetry_dir,
        telemetry_cadence=args.telemetry_cadence,
    )
    result = run_soak(config)
    if args.report:
        write_slo_report(result, args.report)
        print(f"freshness-SLO report written to {args.report}", file=out)
    stats = result.stats
    print(
        f"soak: {result.steps_run} steps over {config.sources} sources "
        f"(seed {config.seed}); final membership {len(result.final_members)}",
        file=out,
    )
    print(
        f"  churn: {stats.attaches} attaches ({stats.backfill_rows} backfill rows), "
        f"{stats.detaches} detaches, {stats.outages} outages, "
        f"{stats.updates_applied} source updates",
        file=out,
    )
    print(
        f"  network: {stats.messages_sent} sent, {stats.messages_delivered} delivered, "
        f"{stats.messages_dropped} dropped, {stats.retransmissions} retransmitted, "
        f"{stats.duplicates} duplicated",
        file=out,
    )
    print(
        f"  durability: {stats.crashes} crashes, {stats.recoveries} recoveries; "
        f"{stats.convergence_checks} convergence checkpoints",
        file=out,
    )
    worst = max(result.worst_staleness.values(), default=0.0)
    print(
        f"  freshness: worst tagged staleness {worst:.1f} steps "
        f"(bound {config.staleness_bound:.1f})",
        file=out,
    )
    if config.replicas > 0:
        worst_lag = max(result.replica_worst_lag.values(), default=0.0)
        print(
            f"  replication: {config.replicas} replicas, "
            f"{result.metrics.get('replication.records_shipped', 0):.0f} records "
            f"shipped, {result.metrics.get('replication.replica_resyncs', 0):.0f} "
            f"resyncs ({stats.replica_rebuilds} fleet rebuilds); "
            f"worst replica lag {worst_lag:.1f} steps",
            file=out,
        )
    if result.telemetry_dir:
        print(
            f"  telemetry: metrics.jsonl, trace.jsonl, profile.json in "
            f"{result.telemetry_dir}; {len(result.alerts)} burn-rate alerts",
            file=out,
        )
        for alert in result.alerts:
            print(
                f"  BURN-RATE ALERT: step {alert.step:.0f} source {alert.source} "
                f"staleness {alert.staleness:.1f}/{alert.bound:.1f} "
                f"(fast {alert.fast_burn:.2f}, slow {alert.slow_burn:.2f})",
                file=out,
            )
    for violation in result.convergence_violations:
        print(f"  CONVERGENCE VIOLATION: {violation}", file=out)
    for violation in result.slo_violations:
        print(f"  SLO VIOLATION: {violation}", file=out)
    if result.ok:
        print("  zero convergence violations, freshness SLO held", file=out)
        return 0
    return 1


def _cmd_repl(args, out) -> int:
    mediator = build_mediator_from_files(args.spec, args.data, args.backend)
    print("squirrel mediator ready; \\vdp \\stats \\refresh \\insert \\delete \\quit", file=out)
    while True:
        try:
            line = input("squirrel> ").strip()
        except EOFError:
            break
        if not line:
            continue
        try:
            if not _repl_command(mediator, line, out):
                break
        except ReproError as exc:
            print(f"  error: {exc}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro", description="Squirrel integration mediators"
    )
    parser.add_argument("--data", help="JSON file with initial source data")
    parser.add_argument(
        "--backend", choices=("memory", "sqlite"), default="memory",
        help="source database backend",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_describe = subparsers.add_parser("describe", help="show the annotated VDP")
    p_describe.add_argument("spec")

    p_query = subparsers.add_parser("query", help="run one query")
    p_query.add_argument("spec")
    p_query.add_argument("expression")

    p_repl = subparsers.add_parser("repl", help="interactive session")
    p_repl.add_argument("spec")

    from repro.obs.harness import scenario_names

    p_trace = subparsers.add_parser(
        "trace", help="run a canned scenario with tracing on"
    )
    p_trace.add_argument("scenario", choices=scenario_names())
    p_trace.add_argument("--out", help="export the trace as JSONL to this path")
    p_trace.add_argument(
        "--no-validate", action="store_true",
        help="skip schema validation of the exported trace",
    )
    p_trace.add_argument(
        "--no-provenance", action="store_true",
        help="disable delta provenance tracking",
    )
    p_trace.add_argument(
        "--quiet", action="store_true", help="suppress the span-tree rendering"
    )

    p_stats = subparsers.add_parser(
        "stats", help="run a canned scenario and print its metrics snapshot"
    )
    p_stats.add_argument("scenario", choices=scenario_names())

    p_profile = subparsers.add_parser(
        "profile",
        help="run a canned scenario under the cost profiler and print the "
        "per-node cost table (totals reconcile exactly with MediatorStats)",
    )
    p_profile.add_argument(
        "--scenario", default="figure1",
        choices=["figure1"] + scenario_names(),
        help="scenario to profile (figure1 = the ex21 Figure 1 workload)",
    )
    p_profile.add_argument(
        "--json", action="store_true",
        help="emit the full CostProfile as JSON instead of the table",
    )
    p_profile.add_argument(
        "--top", type=int, default=0, metavar="K",
        help="also print the K most expensive nodes by propagation time",
    )

    p_export = subparsers.add_parser(
        "export-metrics",
        help="run a canned scenario and export its metrics snapshot",
    )
    p_export.add_argument("scenario", choices=scenario_names())
    p_export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (Prometheus text exposition or JSON)",
    )
    p_export.add_argument("--out", help="write to this path instead of stdout")

    p_ckpt = subparsers.add_parser(
        "checkpoint", help="deploy a mediator and write a durable checkpoint"
    )
    p_ckpt.add_argument("spec")
    p_ckpt.add_argument("--dir", required=True, help="durability directory")

    p_recover = subparsers.add_parser(
        "recover", help="recover a mediator from a durability directory"
    )
    p_recover.add_argument("spec")
    p_recover.add_argument("--dir", required=True, help="durability directory")
    p_recover.add_argument(
        "--on-stale", dest="on_stale", choices=("reinit", "raise"), default="reinit",
        help="when a source log no longer reaches the saved cursor: "
        "selectively reinitialize it (default) or fail",
    )
    p_recover.add_argument("--query", help="run one query against the recovered state")

    p_soak = subparsers.add_parser(
        "soak", help="run a seeded churn & soak workload with convergence checks"
    )
    p_soak.add_argument("--sources", type=int, default=50, help="federation size")
    p_soak.add_argument("--seed", type=int, default=0, help="scenario seed")
    p_soak.add_argument("--steps", type=int, default=40, help="schedule length")
    p_soak.add_argument(
        "--checkpoint-every", type=int, default=10, dest="checkpoint_every",
        help="convergence-checkpoint cadence (steps)",
    )
    p_soak.add_argument(
        "--staleness-bound", type=float, default=15.0, dest="staleness_bound",
        help="freshness-SLO bound in steps (see docs/scenarios.md)",
    )
    p_soak.add_argument(
        "--crash", action="append", metavar="TXN:PHASE",
        help="inject a crash at committed transaction TXN in PHASE "
        "(post-wal-append, torn-wal, mid-checkpoint); repeatable",
    )
    p_soak.add_argument(
        "--durability-dir", dest="durability_dir",
        help="durability directory (default: a temp dir when --crash is given)",
    )
    p_soak.add_argument(
        "--replicas", type=int, default=0,
        help="attach N WAL-shipped read replicas (implies durability); each "
        "is lag-SLO monitored and checked replica ≡ primary at every "
        "convergence checkpoint",
    )
    p_soak.add_argument(
        "--sqlite-sources", dest="sqlite_sources", type=int, default=None,
        help="back the first N members with SQLite instead of memory "
        "(default: 1 when --replicas is set, else 0)",
    )
    p_soak.add_argument("--report", help="write the freshness-SLO report JSON here")
    p_soak.add_argument(
        "--telemetry-dir", dest="telemetry_dir",
        help="stream continuous telemetry (metrics.jsonl, trace.jsonl, "
        "profile.json) into this directory, with live burn-rate alerting "
        "on the freshness SLO",
    )
    p_soak.add_argument(
        "--telemetry-cadence", dest="telemetry_cadence", type=int, default=1,
        help="steps between metrics snapshots in the telemetry stream",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "describe":
            return _cmd_describe(args, out)
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
        if args.command == "stats":
            return _cmd_stats(args, out)
        if args.command == "profile":
            return _cmd_profile(args, out)
        if args.command == "export-metrics":
            return _cmd_export_metrics(args, out)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args, out)
        if args.command == "recover":
            return _cmd_recover(args, out)
        if args.command == "soak":
            return _cmd_soak(args, out)
        return _cmd_repl(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
