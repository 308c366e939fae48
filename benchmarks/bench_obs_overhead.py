"""Experiment OB — tracing overhead: disabled must be free, enabled bounded.

The tracer's design contract (``repro.obs.tracer``) is that every
instrumentation site in the hot path short-circuits on a single
``tracer.enabled`` attribute check, so production deployments (the default
:data:`~repro.obs.tracer.NULL_TRACER`) pay nothing measurable.  This
harness pins that claim on the propagation-scaling workload (Figure 1 /
ex21, update-batch heavy — the same shape as experiment PS):

* the workload runs under four tracer modes — **off** (the default
  ``NULL_TRACER``), **disabled** (a private ``Tracer(enabled=False)``, the
  ablation-honest control), **enabled** (full tracing + provenance), and
  **profiled** (enabled + a live :class:`~repro.obs.profile.CostProfiler`
  sink) — and all four must land in identical repository states with
  identical mediator counters: observation must never change behavior.
  The profiled run additionally proves the profiler's attribution
  reconciles *exactly* with the mediator counters;
* the **<2 % disabled overhead** claim is asserted *structurally*, not by
  comparing two noisy wall clocks: the per-call cost of a disabled
  ``span()``/``event()`` is microbenchmarked, multiplied by the number of
  instrumentation-site executions the workload performs (= the enabled
  run's record count, a deterministic number), and that estimated total
  must stay under 2 % of the measured workload wall time.  The expected
  margin is ~100×, so the check cannot flake on a loaded CI box.

All counters in ``BENCH_obs.json`` are deterministic (record counts,
state-equality verdicts, workload counters); wall-clock readings appear in
the printed table only and are masked in the persisted copy.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.deltas import SetDelta
from repro.obs import NULL_TRACER, CostProfiler, Tracer, validate_records
from repro.relalg import row
from repro.workloads import figure1_mediator, figure1_sources

try:
    from _util import report, time_callable
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _util import report, time_callable

DB_SIZE = 400
DELTA_ROWS = 20
BATCHES = 8
OVERHEAD_BUDGET = 0.02  # the headline claim: disabled-mode overhead < 2%
MICROBENCH_CALLS = 50_000
DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def build_mediator(tracer):
    sources = figure1_sources(
        r_rows=DB_SIZE, s_rows=DB_SIZE // 2, seed=7, join_domain=DB_SIZE // 2
    )
    mediator, _ = figure1_mediator("ex21", sources=sources, tracer=tracer)
    return mediator


def run_workload(tracer, profiler=None) -> dict:
    """The PS-shaped workload: update batches interleaved with queries.

    ``profiler`` (a :class:`CostProfiler`) is attached *after* the build
    and stats reset, so the profiled window is exactly the counter window
    and the two must reconcile field-for-field.
    """
    mediator = build_mediator(tracer)
    mediator.reset_stats()
    if profiler is not None:
        profiler.attach(tracer)
    for batch in range(BATCHES):
        delta = SetDelta()
        for k in range(DELTA_ROWS):
            key = 1_000_000 + batch * DELTA_ROWS + k
            delta.insert("R", row(r1=key, r2=key % 50, r3=key * 7 % 1000, r4=100))
        mediator.enqueue_update("db1", delta)
        mediator.run_update_transaction()
        mediator.query_relation("T")
    stats = mediator.stats()
    state = {
        name: sorted((tuple(sorted(dict(r).items())), n) for r, n in repo.items())
        for name, repo in mediator.store.repos().items()
    }
    out = {
        "state": state,
        "stats": stats.as_dict(),
        "records": tracer.record_count() if tracer is not NULL_TRACER else 0,
    }
    if profiler is not None:
        out["profile_mismatches"] = profiler.profile().reconcile(stats)
    return out


def disabled_call_cost() -> float:
    """Measured seconds per instrumentation-site execution, tracing off."""
    tracer = Tracer(enabled=False)
    start = time.perf_counter()
    for _ in range(MICROBENCH_CALLS):
        with tracer.span("x", a=1):
            pass
        tracer.event("y", b=2)
    elapsed = time.perf_counter() - start
    return elapsed / (2 * MICROBENCH_CALLS)  # one span + one event per loop


def collect() -> dict:
    off = run_workload(NULL_TRACER)
    disabled = run_workload(Tracer(enabled=False))
    enabled_tracer = Tracer(enabled=True, provenance=True)
    enabled = run_workload(enabled_tracer)
    validate_records(enabled_tracer.records())
    profiled_tracer = Tracer(enabled=True, provenance=True)
    profiled = run_workload(profiled_tracer, profiler=CostProfiler())

    return {
        "workload": {"db_size": DB_SIZE, "delta_rows": DELTA_ROWS, "batches": BATCHES},
        "records": {
            "off": off["records"],
            "disabled": disabled["records"],
            "enabled": enabled["records"],
            "profiled": profiled["records"],
        },
        "states_match": off["state"] == disabled["state"] == enabled["state"]
        == profiled["state"],
        "stats_match": off["stats"] == disabled["stats"] == enabled["stats"]
        == profiled["stats"],
        "profile_reconciles": not profiled["profile_mismatches"],
        "workload_counters": {
            "update_transactions": int(off["stats"]["update_transactions"]),
            "rules_fired": int(off["stats"]["rules_fired"]),
            "queries": int(off["stats"]["queries"]),
        },
    }


def measure_overhead(results) -> dict:
    """The runtime (non-committed) side: walls and the structural bound."""
    wall_off = time_callable(lambda: run_workload(NULL_TRACER), repeats=3)
    wall_disabled = time_callable(
        lambda: run_workload(Tracer(enabled=False)), repeats=3
    )
    wall_enabled = time_callable(
        lambda: run_workload(Tracer(enabled=True, provenance=True)), repeats=3
    )
    wall_profiled = time_callable(
        lambda: run_workload(
            Tracer(enabled=True, provenance=True), profiler=CostProfiler()
        ),
        repeats=3,
    )
    per_call = disabled_call_cost()
    # Every emitted record in the enabled run is one instrumentation site
    # the disabled run also reached (plus pure `.enabled` checks, which are
    # cheaper still) — so sites × per-call cost bounds the disabled cost.
    sites = results["records"]["enabled"]
    estimated = per_call * sites
    return {
        "wall_off": wall_off,
        "wall_disabled": wall_disabled,
        "wall_enabled": wall_enabled,
        "wall_profiled": wall_profiled,
        "per_call_us": per_call * 1e6,
        "sites": sites,
        "estimated_disabled_overhead": estimated,
        "overhead_ratio": estimated / wall_off,
    }


def render(results, overhead=None) -> None:
    from repro.bench import shape_line

    rows = []
    for mode in ("off", "disabled", "enabled", "profiled"):
        wall = overhead[f"wall_{mode}"] if overhead else None
        rows.append(
            [
                mode,
                results["records"][mode],
                "yes" if results["states_match"] else "NO",
                "yes" if results["stats_match"] else "NO",
                f"{wall * 1e3:.1f}" if wall is not None else "-",
            ]
        )
    shapes = [
        shape_line(
            "observation never changes behavior (states and counters identical)",
            results["states_match"] and results["stats_match"],
        ),
        shape_line(
            "disabled tracers record nothing; enabled records a full trace",
            results["records"]["off"] == results["records"]["disabled"] == 0
            and results["records"]["enabled"] > 0,
        ),
        shape_line(
            "profiler attribution reconciles exactly with mediator counters",
            results["profile_reconciles"],
        ),
    ]
    persisted = list(shapes)
    if overhead is not None:
        holds = overhead["overhead_ratio"] < OVERHEAD_BUDGET
        for lines, per_call, ratio in (
            (shapes, f"{overhead['per_call_us']:.2f}", f"{overhead['overhead_ratio']:.4%}"),
            (persisted, "~", "~%"),  # measured: masked in the committed copy
        ):
            lines.append(shape_line(
                f"disabled-mode overhead bound ({overhead['sites']} sites x {per_call}us) "
                f"= {ratio} of workload < {OVERHEAD_BUDGET:.0%}",
                holds,
            ))
    report(
        "OB_obs_overhead",
        "OB: tracing overhead on the propagation-scaling workload (Figure 1 / ex21)",
        ["tracer", "trace records", "states match", "stats match", "wall ms"],
        rows,
        shapes=shapes,
        note="counters are deterministic; JSON baseline: BENCH_obs.json",
        persisted_shapes=persisted,
    )


def check_shapes(results, overhead) -> list:
    return [
        ("all tracer modes land in identical repository states", results["states_match"]),
        ("all tracer modes report identical mediator counters", results["stats_match"]),
        (
            "disabled tracers record nothing",
            results["records"]["off"] == 0 and results["records"]["disabled"] == 0,
        ),
        ("the enabled tracer records a non-trivial trace", results["records"]["enabled"] > 50),
        (
            "profiler attribution reconciles exactly with mediator counters",
            results["profile_reconciles"],
        ),
        (
            f"estimated disabled-mode overhead under {OVERHEAD_BUDGET:.0%}",
            overhead["overhead_ratio"] < OVERHEAD_BUDGET,
        ),
    ]


def test_obs_overhead_baseline():
    """Pytest entry point: regenerate the table and pin the shape claims."""
    results = collect()
    overhead = measure_overhead(results)
    render(results, overhead)
    for desc, ok in check_shapes(results, overhead):
        assert ok, desc
    baseline = DEFAULT_BASELINE
    if baseline.exists():
        assert json.loads(baseline.read_text())["results"] == results, (
            "deterministic counters diverged from BENCH_obs.json — "
            "regenerate with: python benchmarks/bench_obs_overhead.py --write"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        metavar="PATH",
        nargs="?",
        const=str(DEFAULT_BASELINE),
        help="verify deterministic counters against a baseline JSON",
    )
    parser.add_argument(
        "--write",
        metavar="PATH",
        nargs="?",
        const=str(DEFAULT_BASELINE),
        help="(re)write the baseline JSON",
    )
    args = parser.parse_args(argv)

    results = collect()
    overhead = measure_overhead(results)
    render(results, overhead)

    failed = [desc for desc, ok in check_shapes(results, overhead) if not ok]
    if failed:
        for desc in failed:
            print(f"SHAPE FAILED: {desc}", file=sys.stderr)
        return 1

    payload = {"experiment": "OB_obs_overhead", "results": results}
    if args.check:
        expected = json.loads(pathlib.Path(args.check).read_text())
        if expected["results"] != results:
            print(f"MISMATCH against {args.check}", file=sys.stderr)
            print(json.dumps(results, indent=2), file=sys.stderr)
            return 1
        print(f"baseline {args.check} verified", file=sys.stderr)
        return 0
    path = pathlib.Path(args.write or DEFAULT_BASELINE)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
