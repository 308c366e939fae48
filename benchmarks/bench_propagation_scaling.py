"""Experiment PS — propagation cost vs database size at fixed delta size.

The paper's incremental-maintenance story (§5.2, §6.2) is that update
propagation touches deltas, not databases.  This harness pins that claim
for the compiled propagation engine: it sweeps database size at fixed
delta size (1, 10, 100 rows) over the Figure 1 (ex21, fully materialized)
and Figure 4 (all_m) scenarios and records the work counters of one
update transaction.  Compiled rules probe persistent join indexes
maintained incrementally on the repositories, so steady-state propagation
hashes nothing and never rebuilds an index: ``rows_hashed`` is 0 and flat
in database size.

All reported counters are deterministic (fixed seeds, no wall-clock
anywhere near them), so ``BENCH_propagation.json`` at the repo root is an
exact regression baseline:
``python benchmarks/bench_propagation_scaling.py --check`` recomputes and
compares.  Wall time appears in the printed table only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.deltas import SetDelta
from repro.obs import NULL_TRACER
from repro.relalg import row
from repro.workloads import (
    figure1_mediator,
    figure1_sources,
    figure4_mediator,
    figure4_sources,
)

try:
    from _util import report, time_callable
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _util import report, time_callable

DB_SIZES = [100, 400, 1600]
DELTA_SIZES = [1, 10, 100]
DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_propagation.json"
)


# ---------------------------------------------------------------------------
# Scenario builders: (mediator, source_name, delta) per cell
# ---------------------------------------------------------------------------
def build_fig1(db_size: int, tracer=NULL_TRACER):
    sources = figure1_sources(
        r_rows=db_size, s_rows=db_size // 2, seed=7, join_domain=db_size // 2
    )
    mediator, _ = figure1_mediator("ex21", sources=sources, tracer=tracer)
    return mediator


def fig1_delta(delta_rows: int) -> SetDelta:
    delta = SetDelta()
    for k in range(delta_rows):
        delta.insert("R", row(r1=1_000_000 + k, r2=k % 50, r3=k * 7 % 1000, r4=100))
    return delta


def build_fig4(db_size: int):
    # A and B stay small: E's theta join (a1^2 + a2 < b2^2) has no equi keys
    # and would swamp the sweep quadratically without exercising hashing.
    # C and D carry the scaling — F's equi join c1 = d1 is the hash path.
    sources = figure4_sources(a_rows=30, b_rows=20, cd_rows=db_size, seed=11)
    mediator, _ = figure4_mediator("all_m", sources=sources)
    return mediator


def fig4_delta(delta_rows: int, db_size: int) -> SetDelta:
    delta = SetDelta()
    for k in range(delta_rows):
        # c1 values land on existing d1 keys, so the F join actually produces
        # rows and the difference node G fires too.
        delta.insert("C", row(c1=k % db_size, c2=k % 30))
    return delta


SCENARIOS = {
    "fig1_ex21": {
        "build": build_fig1,
        "source": "db1",
        "delta": lambda n, db: fig1_delta(n),
    },
    "fig4_all_m": {
        "build": build_fig4,
        "source": "dbC",
        "delta": fig4_delta,
    },
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def run_cell(scenario: str, db_size: int, delta_rows: int) -> dict:
    spec = SCENARIOS[scenario]
    mediator = spec["build"](db_size)
    mediator.reset_stats()
    mediator.enqueue_update(spec["source"], spec["delta"](delta_rows, db_size))
    mediator.run_update_transaction()
    stats = mediator.stats()
    return {
        "scenario": scenario,
        "db_size": db_size,
        "delta_rows": delta_rows,
        "indexed": {
            "rows_hashed": stats.rows_hashed,
            "index_probes": stats.index_probes,
            "index_rebuilds": stats.index_rebuilds,
            "hash_probes": mediator.store.counters.hash_probes,
            "propagation_passes": stats.propagation_passes,
        },
    }


def collect() -> list:
    return [
        run_cell(scenario, db, delta)
        for scenario in SCENARIOS
        for delta in DELTA_SIZES
        for db in DB_SIZES
    ]


# ---------------------------------------------------------------------------
# Shape claims (asserted in tests and in --check runs)
# ---------------------------------------------------------------------------
def check_shapes(results) -> list:
    """The load-bearing claims as (description, holds) pairs."""
    by_key = {(r["scenario"], r["delta_rows"], r["db_size"]): r for r in results}
    flat = True
    for scenario in SCENARIOS:
        for delta in DELTA_SIZES:
            hashed = [
                by_key[(scenario, delta, db)]["indexed"]["rows_hashed"]
                for db in DB_SIZES
            ]
            if len(set(hashed)) != 1:
                flat = False
    return [
        ("indexed rows_hashed is flat in database size at fixed delta size", flat),
        (
            "steady-state propagation never rebuilds an index",
            all(r["indexed"]["index_rebuilds"] == 0 for r in results),
        ),
        (
            "indexed propagation probes maintained indexes",
            all(r["indexed"]["index_probes"] > 0 for r in results),
        ),
        (
            "every batch costs exactly one propagation pass",
            all(r["indexed"]["propagation_passes"] == 1 for r in results),
        ),
    ]


def render(results, times=None) -> None:
    from repro.bench import shape_line

    rows = []
    for i, r in enumerate(results):
        rows.append(
            [
                r["scenario"],
                r["db_size"],
                r["delta_rows"],
                r["indexed"]["rows_hashed"],
                r["indexed"]["index_probes"],
                r["indexed"]["index_rebuilds"],
                f"{times[i] * 1e3:.1f}" if times else "-",
            ]
        )
    report(
        "PS_propagation_scaling",
        "PS: propagation cost vs database size at fixed delta size",
        [
            "scenario",
            "db rows",
            "delta rows",
            "rows hashed",
            "index probes",
            "rebuilds",
            "wall ms",
        ],
        rows,
        shapes=[shape_line(desc, ok) for desc, ok in check_shapes(results)],
        note="counters are deterministic; JSON baseline: BENCH_propagation.json",
    )


def test_propagation_scaling_baseline():
    """Pytest entry point: regenerate the sweep and pin the shape claims."""
    results = collect()
    render(results)
    for desc, ok in check_shapes(results):
        assert ok, desc
    baseline = DEFAULT_BASELINE
    if baseline.exists():
        assert json.loads(baseline.read_text())["results"] == results, (
            "deterministic counters diverged from BENCH_propagation.json — "
            "regenerate with: python benchmarks/bench_propagation_scaling.py --write"
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
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="re-run the largest fig1 cell with tracing on and export "
        "a schema-validated JSONL trace to PATH",
    )
    args = parser.parse_args(argv)

    if args.trace:
        from repro.obs import Tracer, export_jsonl

        tracer = Tracer(enabled=True, provenance=True)
        mediator = build_fig1(DB_SIZES[-1], tracer=tracer)
        mediator.enqueue_update("db1", fig1_delta(DELTA_SIZES[-1]))
        mediator.run_update_transaction()
        written = export_jsonl(tracer, args.trace)
        print(f"wrote {written} trace records to {args.trace}", file=sys.stderr)
        return 0

    times = [
        time_callable(
            lambda s=r["scenario"], db=r["db_size"], d=r["delta_rows"]: run_cell(s, db, d),
            repeats=1,
        )
        for r in (
            {"scenario": s, "db_size": db, "delta_rows": d}
            for s in SCENARIOS
            for d in DELTA_SIZES
            for db in DB_SIZES
        )
    ]
    results = collect()
    render(results, times=times)

    failed = [desc for desc, ok in check_shapes(results) if not ok]
    if failed:
        for desc in failed:
            print(f"SHAPE FAILED: {desc}", file=sys.stderr)
        return 1

    payload = {
        "experiment": "PS_propagation_scaling",
        "workload": {
            "db_sizes": DB_SIZES,
            "delta_sizes": DELTA_SIZES,
            "scenarios": sorted(SCENARIOS),
        },
        "results": results,
    }
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
