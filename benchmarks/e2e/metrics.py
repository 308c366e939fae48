"""The metric catalogue: names, units, direction, bounds, scope.

``BENCHMARK.json`` must report *every* listed metric on *every* workload,
and a time that reads the same on every run is refused — so it lists only
what every workload exercises, plus counts and ratios (which may honestly
be 0 where a workload bypasses the layer).  Metrics one workload alone
exercises (``recovery_s``, ``query_virt_*``, ``replica_visible_*``, the
durability / replication / poll span times) are ``driver=False``: the full
run prints and records them, ``--compare`` judges them, the driver does not
see them.  The README tables carry the definitions and the interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "END_TO_END", "PER_LAYER", "SPAN_TIMES", "LAYERS", "Metric", "benchmark_json", "driver_metrics",
]

TRICKLE, BURST, FIG1, FED50 = (
    "fig4_trickle", "fig4_burst", "fig1_hybrid_query", "fed50_durable_replica",
)
ALL = (TRICKLE, BURST, FIG1, FED50)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen; ``None`` for a
    #: per-layer metric and for an end-to-end one demoted to that rank.
    bound: Optional[float] = None
    #: Where it is exercised; elsewhere it is absent from the record.
    workloads: Tuple[str, ...] = ALL
    #: Listed in BENCHMARK.json, so printed on every workload (0 where
    #: absent) — never set for a time only some workloads produce.
    driver: bool = True


#: The issue's twelve end-to-end metrics.  The driver gates the four every
#: workload exercises.  The p99s are demoted (no bound; the two universal
#: ones ride in the driver's per-layer list): at the contract's run length
#: only fed50_durable_replica has the 1 000 samples a p99 needs, and there
#: it follows the ext4 state (1.9 ms and 2.5 ms in two runs of one commit).
#: A bound is about three times the widest
#: ten-seed spread (quartile distance ÷ median) any workload showed for the
#: metric on the sandbox: 4 % for update_visible_p50_ms, 7 % for
#: query_mat_p50_ms (fig4_trickle: G's size drifts with the seed), 8 % for
#: ops_per_s (fed50_durable_replica: ext4 create / rename / unlink cost
#: drifts with the churn of earlier runs, and is not CPU the speed
#: correction can see), 6 % for setup_s.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("update_visible_p50_ms", "ms", "lower", 0.15),
    Metric("query_mat_p50_ms", "ms", "lower", 0.20),
    Metric("update_visible_p99_ms", "ms", "lower"),
    Metric("query_mat_p99_ms", "ms", "lower"),
    Metric("query_virt_p50_ms", "ms", "lower", 0.10, (FIG1,), False),
    Metric("query_virt_p99_ms", "ms", "lower", None, (FIG1,), False),
    Metric("replica_visible_p50_ms", "ms", "lower", 0.10, (FED50,), False),
    Metric("replica_visible_p99_ms", "ms", "lower", None, (FED50,), False),
    Metric("recovery_s", "s", "lower", 0.10, (FED50,), False),
    Metric("error_rate", "ratio", "lower", 0.0, ALL, False),
]

#: Span name -> the per-layer metric that reports its median self time.
SPAN_TIMES: Dict[str, Metric] = {
    "sources.execute": Metric("sources.execute_ms", "ms", "lower"),
    "sources.poll": Metric("sources.poll_ms", "ms", "lower", None, (FIG1, FED50), False),
    "core.update_queue.collect": Metric("core.update_queue.collect_ms", "ms", "lower"),
    "core.iup.txn": Metric("core.iup.txn_self_ms", "ms", "lower"),
    "core.local_store.apply": Metric("core.local_store.apply_ms", "ms", "lower"),
    "core.vap.materialize": Metric(
        "core.vap.materialize_self_ms", "ms", "lower", None, (FIG1, FED50), False
    ),
    "core.query_processor.query": Metric("core.query_processor.query_self_ms", "ms", "lower"),
    "core.mediator.query": Metric("core.mediator.parse_ms", "ms", "lower"),
    "durability.commit": Metric("durability.commit_self_ms", "ms", "lower", None, (FED50,), False),
    "durability.wal_append": Metric("durability.wal_append_ms", "ms", "lower", None, (FED50,), False),
    "durability.checkpoint": Metric("durability.checkpoint_ms", "ms", "lower", None, (FED50,), False),
    "durability.recover_load": Metric(
        "durability.recover_load_ms", "ms", "lower", None, (FED50,), False
    ),
    "durability.recover": Metric("durability.recover_replay_ms", "ms", "lower", None, (FED50,), False),
    "replication.ship": Metric("replication.ship_ms", "ms", "lower", None, (FED50,), False),
    "replication.tick": Metric("replication.tick_ms", "ms", "lower", None, (FED50,), False),
    "replication.apply": Metric("replication.apply_ms", "ms", "lower", None, (FED50,), False),
}

#: Layers whose share of the timed section is reported (0 where bypassed).
LAYERS = (
    "sources", "core.update_queue", "core.iup", "core.local_store", "core.vap",
    "core.query_processor", "core.mediator", "durability", "replication",
)

PER_LAYER: List[Metric] = (
    [m for m in END_TO_END if m.driver and m.bound is None]  # the demoted p99s
    + list(SPAN_TIMES.values())
    + [Metric(f"{layer}.time_share", "ratio", "lower") for layer in LAYERS]
    + [
        Metric("durability.checkpoint_time_share", "ratio", "lower"),
        Metric("durability.fsync_ms", "ms", "lower", None, (FED50,), False),
        Metric("sources.polls_per_op", "count", "lower"),
        Metric("sources.polled_rows_per_op", "count", "lower"),
        Metric("sources.pushdown_ratio", "ratio", "higher"),
        Metric("core.update_queue.deltas_compacted_per_txn", "count", "higher"),
        Metric("core.iup.rules_fired_per_txn", "count", "lower"),
        Metric("core.iup.propagation_passes_per_txn", "count", "lower"),
        Metric("core.iup.db_scaling_ratio", "ratio", "lower", None, (TRICKLE,)),
        Metric("relalg.rows_touched_per_delta_row", "ratio", "lower"),
        Metric("relalg.rows_scanned_per_query", "count", "lower"),
        Metric("core.local_store.stored_bytes", "bytes", "lower"),
        Metric("core.local_store.stored_rows", "rows", "lower"),
        Metric("core.vap.cache_hit_ratio", "ratio", "higher"),
        Metric("core.vap.key_based_ratio", "ratio", "higher"),
        Metric("core.vap.compensations_per_op", "count", "lower"),
        Metric("durability.wal_bytes_per_txn", "bytes", "lower", None, (FED50,)),
        Metric("durability.checkpoint_rows_per_txn", "count", "lower", None, (FED50,)),
        Metric("durability.dir_bytes_per_stored_byte", "ratio", "lower", None, (FED50,)),
        Metric("durability.checkpoint_files", "count", "lower", None, (FED50,)),
        Metric("replication.records_shipped", "count", "lower", None, (FED50,)),
        Metric("replication.resyncs", "count", "lower", None, (FED50,)),
        Metric("bench.trace_overhead_ratio", "ratio", "lower"),
        Metric("bench.unattributed_share", "ratio", "lower"),
        Metric("bench.generator_s", "s", "lower"),
        Metric("bench.machine_speed", "ratio", "higher"),
    ]
)


def driver_metrics(trace: bool) -> List[Metric]:
    """What ``--trace 0`` / ``--trace 1`` must print, in BENCHMARK.json order."""
    if trace:
        return [m for m in PER_LAYER if m.driver]
    return [m for m in END_TO_END if m.driver and m.bound is not None]


def benchmark_json(workloads: Dict[str, str], run_seconds: int) -> dict:
    """What the catalogue says ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in workloads.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_metrics(trace=False)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in driver_metrics(trace=True)
        ],
    }
