"""The Squirrel end-to-end + per-layer wall-clock benchmark.

Full run (all four workloads, untraced then traced, every metric by name)::

    python3 benchmarks/e2e/run.py --seed 2063 [--out result.json] [--trace-out spans.json]

One workload, one mode, machine-readable last line (the driver's contract)::

    python3 benchmarks/e2e/run.py --workload fig4_trickle --seed 7 --seconds 12 --trace 0

Compare two full-run records::

    python3 benchmarks/e2e/run.py --compare parent.json change.json

A run is a sequence of *repeats*.  Each repeat builds a fresh system (timed:
``setup_s``), generates its whole operation stream from ``--seed`` (outside
the clock), runs the fixed-size stream closed-loop, and then checks the
result against the recompute oracle.  Repeats are added until ``--seconds``
of timed section have accumulated (at least three), so the program inside
the clock is the same on both sides of a comparison — program counters and
answer digests repeat exactly — while the run length is set here.  Reported
values are medians over the repeats; p99s pool the repeats' samples.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones.  Exits non-zero on any failed
operation or oracle check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import tempfile
import traceback
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics as catalogue  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import ROOT as ROOT_SPAN, SpanRecorder, layer_of, self_times  # noqa: E402
from workloads import WORKLOADS, Repeat  # noqa: E402

#: Durability directories live here, inside the checkout, and are removed
#: when their repeat ends.
SCRATCH = os.path.join(ROOT, ".bench_tmp")
MIN_REPEATS = 3
WARMUP_SCALE = 0.05
FLUSH_POLICY = "WAL flush-to-OS per record, sync=False"


# ---------------------------------------------------------------------------
# One repeat
# ---------------------------------------------------------------------------
def run_repeat(cls: type, seed: int, scale: float, traced: bool) -> dict:
    """Fresh system → stream → timed loop → oracle; returns its numbers,
    every duration already scaled to the reference machine speed."""
    os.makedirs(SCRATCH, exist_ok=True)
    # The previous repeat's mediator is cyclic garbage by now; left alone it
    # is collected somewhere inside this repeat's set-up or timed section.
    gc.collect()
    workload = cls()
    rep = Repeat()
    around_setup = Calibration()
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        around_setup.burst()
        t0 = perf_counter()
        workload.setup(scratch)
        t1 = perf_counter()
        around_setup.burst()
        try:
            workload.generate(seed, scale)
            t2 = perf_counter()
            tracer = SpanRecorder() if traced else None
            if tracer:
                workload.instrument(tracer)
            before = workload.counters()
            gc.collect()
            try:
                workload.run(rep)
                after = workload.counters()
                workload.verify(rep)
            except Exception:  # an operation raised: counted, reported, run goes on
                rep.check(False, "operation raised:\n" + traceback.format_exc())
                after = before
            scaled = rep.calibration.scaled
            result = {
                "traced": traced,
                "setup_s": (t1 - t0) * around_setup.median_speed(),
                "generator_s": t2 - t1,
                "wall": sum(end - start for start, end in rep.ops),
                "speed": rep.calibration.median_speed(),
                "durations": [scaled(start, end - start) for start, end in rep.ops],
                "stream_ops": rep.stream_ops,
                "delta_rows": workload.delta_rows,
                "latency": {
                    cls: [scaled(start, seconds) for start, seconds in samples]
                    for cls, samples in rep.latency.items()
                },
                "counters": {k: after[k] - before[k] for k in after},
                "final": after,
                "digest": rep.digest(),
                "checks": rep.checks,
                "failures": rep.failures,
            }
            result.update(workload.extras(traced))
            if tracer:
                result["selfs"], result["counts"] = self_times(tracer.spans, rep.ops, scaled)
                result["spans"] = tracer.dump()
        finally:
            workload.close()
    return result


# ---------------------------------------------------------------------------
# One measurement: repeats until --seconds of timed section
# ---------------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, scale: float, trace: bool) -> dict:
    cls = WORKLOADS[name]
    # Discarded: lets imports, code caches and allocator pools fill, which
    # no user of a running mediator pays per operation.
    run_repeat(cls, seed, min(scale, WARMUP_SCALE), traced=trace)
    repeats: List[dict] = []
    # --trace 1 measures in pairs, so one pair is the least it can do.
    while len(repeats) < (2 if trace else MIN_REPEATS) or sum(r["wall"] for r in repeats) < seconds:
        if trace:
            repeats.append(run_repeat(cls, seed, scale, traced=False))
        repeats.append(run_repeat(cls, seed, scale, traced=trace))
        if repeats[-1]["failures"]:
            break
    small: List[dict] = []
    if trace and cls.scaling_twin:
        small = [run_repeat(cls.scaling_twin, seed, scale, traced=False) for _ in range(MIN_REPEATS)]
    return summarise(name, repeats, small)


def p99(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def typical(rows: Sequence[Sequence[float]]) -> List[float]:
    """Per position, the median of what the repeats measured there.

    Every repeat runs the identical program (digests and counters are
    checked), so position *i* is the same operation each time.  Its median
    over the repeats drops the repeat that caught a hiccup the speed
    correction did not see, while a cost the operation causes itself — the
    checkpoint every eighth transaction, a collection its allocations
    trigger — recurs at the same position and stays in.
    """
    return [median(column) for column in zip(*rows)]


def summarise(name: str, repeats: List[dict], small: List[dict]) -> dict:
    """Fold the repeats into named metrics; cross-repeat checks count too."""
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    first = repeats[0]
    failures = [f for r in repeats + small for f in r["failures"]]
    checks = sum(r["checks"] for r in repeats) + 2
    if any(r["digest"] != first["digest"] for r in repeats):
        failures.append("answer digests differ between repeats")
    if any(r["counters"] != first["counters"] for r in repeats):
        failures.append("program counters differ between repeats")
    attempted = sum(r["stream_ops"] for r in repeats) + checks

    def entry(unit: str, value: float, raw: Sequence[float], n: int) -> dict:
        """``value`` is the reported number; ``raw`` the per-repeat ones."""
        return {"unit": unit, "value": value, "min": min(raw), "max": max(raw),
                "raw": list(raw), "n": n}

    e2e: Dict[str, dict] = {}

    def latency(cls: str, p50: str, tail: str = "", to: float = 1e3) -> None:
        per_repeat = [r["latency"][cls] for r in untraced if r["latency"].get(cls)]
        if not per_repeat:
            return
        unit = "ms" if to == 1e3 else "s"
        each = typical(per_repeat)
        e2e[p50] = entry(unit, median(each) * to, [median(s) * to for s in per_repeat], len(each))
        if tail:
            e2e[tail] = entry(unit, p99(each) * to, [p99(s) * to for s in per_repeat], len(each))

    setups = [r["setup_s"] for r in repeats]
    e2e["setup_s"] = entry("s", median(setups), setups, len(setups))
    e2e["ops_per_s"] = entry(
        "1/s",
        ratio(first["stream_ops"], sum(typical([r["durations"] for r in untraced]))),
        [ratio(r["stream_ops"], sum(r["durations"])) for r in untraced],
        first["stream_ops"],
    )
    latency("update_visible", "update_visible_p50_ms", "update_visible_p99_ms")
    latency("query_mat", "query_mat_p50_ms", "query_mat_p99_ms")
    latency("query_virt", "query_virt_p50_ms", "query_virt_p99_ms")
    latency("replica_visible", "replica_visible_p50_ms", "replica_visible_p99_ms")
    latency("recovery", "recovery_s", to=1.0)
    rate = ratio(len(failures), attempted)
    e2e["error_rate"] = entry("ratio", rate, [rate], attempted)

    return {
        "workload": name,
        "repeats": len(repeats),
        "ops_per_repeat": first["stream_ops"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": first["digest"],
        "counters": first["counters"],
        "machine_speed": [r["speed"] for r in repeats],
        "end_to_end": e2e,
        "per_layer": per_layer(repeats, small, e2e) if traced else {},
        "spans": traced[-1]["spans"] if traced else None,
    }


def per_layer(repeats: List[dict], small: List[dict], e2e: Dict[str, dict]) -> Dict[str, dict]:
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    first = repeats[0]
    out: Dict[str, dict] = {}

    def put(metric: str, unit: str, value: float, n: int = 0) -> None:
        out[metric] = {"unit": unit, "value": value, "n": n}

    for key in ("update_visible_p99_ms", "query_mat_p99_ms"):
        put(key, "ms", e2e[key]["value"], e2e[key]["n"])

    # Self times, span by span the median over the traced repeats (the span
    # sequence is part of the identical program).
    selfs = {
        span: typical([r["selfs"][span] for r in traced]) for span in traced[0]["selfs"]
    }
    total = sum(sum(v) for v in selfs.values())
    for span, metric in catalogue.SPAN_TIMES.items():
        if selfs.get(span):
            put(metric.name, "ms", median(selfs[span]) * 1e3, len(selfs[span]))

    def share(select) -> float:
        return ratio(sum(sum(v) for k, v in selfs.items() if select(k)), total)

    for layer in catalogue.LAYERS:
        put(f"{layer}.time_share", "ratio", share(lambda k, layer=layer: layer_of(k) == layer))
    put("durability.checkpoint_time_share", "ratio", share(lambda k: k == "durability.checkpoint"))
    put("bench.unattributed_share", "ratio", share(lambda k: k == ROOT_SPAN))
    if "fsync" in traced[0]:
        fsync = typical([r["fsync"] for r in traced])
        put("durability.fsync_ms", "ms", median(fsync) * 1e3, len(fsync))

    # Counts: whole-run differences, identical in every repeat (checked).
    c, final, ops = first["counters"], first["final"], first["stream_ops"]
    txns = c["update_transactions"]
    put("sources.polls_per_op", "count", ratio(c["polls"], ops))
    put("sources.polled_rows_per_op", "count", ratio(c["polled_rows"], ops))
    put("sources.pushdown_ratio", "ratio",
        ratio(c["pushdown_queries"], c["pushdown_queries"] + c["fallback_queries"]))
    put("core.update_queue.deltas_compacted_per_txn", "count", ratio(c["deltas_compacted"], txns))
    put("core.iup.rules_fired_per_txn", "count", ratio(c["rules_fired"], txns))
    put("core.iup.propagation_passes_per_txn", "count", ratio(c["propagation_passes"], txns))
    if small:
        put("core.iup.db_scaling_ratio", "ratio", ratio(
            median(typical([r["latency"]["update_visible"] for r in untraced])),
            median(typical([r["latency"]["update_visible"] for r in small])),
        ))
    # Counted at the span boundaries (the same in every traced repeat).
    counts = traced[0]["counts"]
    put("relalg.rows_touched_per_delta_row", "ratio",
        ratio(sum(counts.get("core.iup.txn", ())), first["delta_rows"]))
    queries = counts.get("core.query_processor.query", ())
    put("relalg.rows_scanned_per_query", "count", ratio(sum(queries), len(queries)))
    put("core.local_store.stored_bytes", "bytes", final["stored_bytes"])
    put("core.local_store.stored_rows", "rows", final["stored_rows"])
    put("core.vap.cache_hit_ratio", "ratio",
        ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]))
    put("core.vap.key_based_ratio", "ratio",
        ratio(c["key_based_constructions"], c["virtual_queries"]))
    put("core.vap.compensations_per_op", "count", ratio(c["compensations"], ops))
    if "durability.wal_records" in c:
        records = c["durability.wal_records"]
        put("durability.wal_bytes_per_txn", "bytes", ratio(c["durability.wal_bytes"], records))
        put("durability.checkpoint_rows_per_txn", "count",
            ratio(c["durability.checkpoint_rows"], records))
        put("durability.dir_bytes_per_stored_byte", "ratio",
            ratio(first["dir_bytes"], final["stored_bytes"]))
        put("durability.checkpoint_files", "count", first["checkpoint_files"])
        put("replication.records_shipped", "count", c["records_shipped"])
        put("replication.resyncs", "count", final["replica_resyncs"])
    put("bench.trace_overhead_ratio", "ratio", ratio(
        sum(typical([r["durations"] for r in traced])),
        sum(typical([r["durations"] for r in untraced])),
    ))
    put("bench.generator_s", "s", median([r["generator_s"] for r in repeats]))
    put("bench.machine_speed", "ratio", median([r["speed"] for r in repeats]))
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def driver_line(summary: dict, trace: bool) -> str:
    """The contract's last line: exactly the BENCHMARK.json metrics of the
    mode, a layer the workload bypasses reading 0."""
    have = summary["per_layer" if trace else "end_to_end"]
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m.name: {"value": have[m.name]["value"] if m.name in have else 0, "unit": m.unit}
            for m in catalogue.driver_metrics(trace)
        },
    })


def write_spans(path: str, spans: Dict[str, list]) -> None:
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "count"], "spans": spans}, fh)


def print_summary(summary: dict, out=sys.stderr) -> None:
    print(f"\n== {summary['workload']}: {summary['repeats']} repeats × "
          f"{summary['ops_per_repeat']} ops, digest {summary['digest'][:12]}, "
          f"{summary['failed']} failed of {summary['attempted']}", file=out)
    for section in ("end_to_end", "per_layer"):
        for name, m in summary[section].items():
            spread = f"  [{m['min']:.4g} .. {m['max']:.4g}]" if "min" in m else ""
            print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}{spread}", file=out)
    for failure in summary["failures"]:
        print(f"  FAILED: {failure}", file=out)


def fingerprint(seed: int, seconds: float, scale: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed, "run_seconds": seconds, "scale": scale, "commit": commit,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "flush_policy": FLUSH_POLICY,
        "loop": "closed, one client, one driver thread",
    }


def full_run(args) -> int:
    record = fingerprint(args.seed, args.seconds, args.scale)
    record["workloads"] = {}
    spans = {}
    failed = 0
    for name in WORKLOADS:
        summary = measure(name, args.seed, args.seconds, args.scale, trace=False)
        layered = measure(name, args.seed, args.seconds, args.scale, trace=True)
        summary["per_layer"] = layered["per_layer"]
        summary["attempted"] += layered["attempted"]
        summary["failed"] += layered["failed"]
        summary["failures"] += layered["failures"]
        if layered["digest"] != summary["digest"] or layered["counters"] != summary["counters"]:
            summary["failed"] += 1
            summary["failures"].append("traced run's digest or counters differ from the untraced run's")
        spans[name] = layered["spans"]
        del summary["spans"]
        print_summary(summary, sys.stdout)
        failed += summary["failed"]
        record["workloads"][name] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    if args.trace_out:
        write_spans(args.trace_out, spans)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Per workload × end-to-end metric: both medians, ratio B/A, the
    bound, and ok / regressed / unresolved (bound exceeded while the two
    per-repeat min–max ranges overlap) / demoted (a p99: shown, not judged)."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    regressed = 0
    print(f"{'workload':<22} {'metric':<26} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric in catalogue.END_TO_END:
            ma, mb = wa["end_to_end"].get(metric.name), wb["end_to_end"].get(metric.name)
            if not ma or not mb:
                continue
            va, vb = ma["value"], mb["value"]
            worse = (vb - va) if metric.better == "lower" else (va - vb)
            if metric.bound is None:
                verdict = "demoted"
            elif worse <= metric.bound * abs(va):
                verdict = "ok"
            elif ma["min"] <= mb["max"] and mb["min"] <= ma["max"]:
                verdict = "unresolved"
            else:
                verdict = "regressed"
                regressed += 1
            print(f"{name:<22} {metric.name:<26} {va:>12.5g} {vb:>12.5g} "
                  f"{ratio(vb, va):>7.3f} {metric.bound or 0:>6.2f}  {verdict}")
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2063)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed section to accumulate per measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every repeat's operation count")
    parser.add_argument("--out", help="write the full-run record here")
    parser.add_argument("--trace-out", help="write the traced repeats' spans here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        return full_run(args)
    summary = measure(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    print_summary(summary)
    if args.trace_out and summary["spans"]:
        write_spans(args.trace_out, {args.workload: summary["spans"]})
    print(driver_line(summary, bool(args.trace)))
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
