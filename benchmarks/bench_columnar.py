"""Experiment CK — the raw-speed kernel: columnar layout and delta smash.

Two ablations over the Figure 4 mediator (``all_m``), both measured with
the deterministic task-work model used by the shard experiment —
``rows_scanned + rows_hashed + hash_probes + index_probes +
rows_produced`` out of fresh evaluator counters, never a wall clock:

* **layout sweep** — identical sources and deltas propagated through a
  row-layout and a columnar-layout (struct-of-arrays) mediator.  Both
  run one algorithm: the set-difference rules answer support transitions
  with per-delta-row probes against maintained indexes on either layout,
  so task work tracks the delta — it must not grow with database size on
  the row engine or the columnar one, and the two must do identical
  logical work.  What the layout changes is physical (``cells_scanned``,
  ``rows_materialized``) and wall-clock cost, which
  ``benchmarks/e2e`` measures; this sweep pins the algorithm.
* **smash sweep** — churn-heavy transactions (rows inserted then deleted
  across separate announcements, plus one surviving insert) propagated
  with ``smash_enabled=True`` (one pass over the queue-folded net delta)
  and ``smash_enabled=False`` (one pass per queued message, in arrival
  order).  The net effect is identical — asserted on full repository
  state — but the unsmashed kernel replays every bounced message, so the
  smashed kernel must win ≥2× on task work once churn dominates.

Both sweeps assert bit-identical repository states between their engine
pairs per cell, so the committed ``BENCH_columnar.json`` baseline is an
exact regression gate: ``python benchmarks/bench_columnar.py --check``
recomputes and compares.  Wall time appears in the printed table only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.deltas import SetDelta
from repro.relalg import row
from repro.workloads import figure4_mediator, figure4_sources

try:
    from _util import report, time_callable
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _util import report, time_callable

DB_SIZES = [100, 400, 1600]
DELTA_SIZES = [1, 10, 100]
#: Smash sweep: bounce counts at a fixed mid-size database.  Each bounce
#: is an insert and a delete of the same row in *separate* announcements
#: (same-window bounces already cancel at the source accumulator, which
#: would measure the source, not the kernel).
BOUNCE_COUNTS = [2, 8, 32]
SMASH_DB_SIZE = 400
DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_columnar.json"
)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def build(db_size: int, layout: str = "row", smash_enabled: bool = True):
    # A and B stay small — C and D carry the scaling, exactly as in the
    # propagation-scaling experiment, so the two baselines sweep the same
    # workload and differ only in the ablated knob.
    sources = figure4_sources(a_rows=30, b_rows=20, cd_rows=db_size, seed=11)
    return figure4_mediator(
        "all_m", sources=sources, layout=layout, smash_enabled=smash_enabled
    )


def fig4_delta(delta_rows: int, db_size: int) -> SetDelta:
    delta = SetDelta()
    for k in range(delta_rows):
        # c1 values land on existing d1 keys so F = C ⋈ D produces rows
        # and the difference node G fires.
        delta.insert("C", row(c1=k % db_size, c2=k % 30))
    return delta


def task_work(counters) -> int:
    """The shard experiment's work model: logical work only — the
    physical-layer counters (rows_materialized, cells_scanned) describe
    *how* a layout touched storage, not how much rule work it did."""
    return (
        counters.rows_scanned
        + counters.rows_hashed
        + counters.hash_probes
        + counters.index_probes
        + counters.rows_produced
    )


def repo_snapshot(mediator):
    out = {}
    for name, repo in mediator.store.repos().items():
        out[name] = sorted(
            (tuple(sorted(dict(r).items())), n) for r, n in repo.items()
        )
    return out


def counter_record(mediator) -> dict:
    c = mediator.store.counters
    stats = mediator.stats()
    return {
        "task_work": task_work(c),
        "rows_scanned": c.rows_scanned,
        "rows_hashed": c.rows_hashed,
        "hash_probes": c.hash_probes,
        "index_probes": c.index_probes,
        "rows_produced": c.rows_produced,
        "index_rebuilds": c.index_rebuilds,
        "rows_materialized": c.rows_materialized,
        "cells_scanned": c.cells_scanned,
        "propagation_passes": stats.propagation_passes,
        "deltas_compacted": stats.deltas_compacted,
    }


def run_layout_engine(layout: str, db_size: int, delta_rows: int):
    mediator, _ = build(db_size, layout=layout)
    # One warm-up insert/delete pair reaches steady state (probe indexes
    # built and maintained) and restores the initial repository contents,
    # so the measured transaction starts from identical state in both
    # layouts and pays no one-time index construction.
    warm = SetDelta()
    warm.insert("C", row(c1=0, c2=0))
    mediator.enqueue_update("dbC", warm)
    mediator.run_update_transaction()
    cool = SetDelta()
    cool.delete("C", row(c1=0, c2=0))
    mediator.enqueue_update("dbC", cool)
    mediator.run_update_transaction()
    mediator.reset_stats()
    mediator.enqueue_update("dbC", fig4_delta(delta_rows, db_size))
    mediator.run_update_transaction()
    return counter_record(mediator), repo_snapshot(mediator)


def run_layout_cell(db_size: int, delta_rows: int) -> dict:
    row_rec, row_state = run_layout_engine("row", db_size, delta_rows)
    col_rec, col_state = run_layout_engine("columnar", db_size, delta_rows)
    assert row_state == col_state, (
        f"layout sweep db={db_size} delta={delta_rows}: row and columnar "
        "engines diverged"
    )
    return {
        "db_size": db_size,
        "delta_rows": delta_rows,
        "row": row_rec,
        "columnar": col_rec,
        "speedup": round(row_rec["task_work"] / max(col_rec["task_work"], 1), 1),
        "states_match": True,
    }


def run_smash_engine(smash_enabled: bool, bounces: int):
    mediator, sources = build(SMASH_DB_SIZE, smash_enabled=smash_enabled)
    # Warm up (and reach steady-state indexes) with one unrelated insert.
    sources["dbA"].insert("A", a1=8_000, a2=1)
    mediator.collect_announcements()
    mediator.run_update_transaction()
    mediator.reset_stats()
    # Bounce churn: each insert and its delete land in separate queue
    # entries (collect between them), so the smashed kernel's queue fold —
    # not the source accumulator — does the cancelling.
    for i in range(bounces):
        sources["dbC"].insert("C", c1=9_000 + i, c2=i % 30)
        mediator.collect_announcements()
        sources["dbC"].delete("C", c1=9_000 + i, c2=i % 30)
        mediator.collect_announcements()
    sources["dbA"].insert("A", a1=9_100, a2=3)
    mediator.collect_announcements()
    mediator.run_update_transaction()
    return counter_record(mediator), repo_snapshot(mediator)


def run_smash_cell(bounces: int) -> dict:
    smashed, smashed_state = run_smash_engine(True, bounces)
    unsmashed, unsmashed_state = run_smash_engine(False, bounces)
    assert smashed_state == unsmashed_state, (
        f"smash sweep bounces={bounces}: smashed and unsmashed kernels diverged"
    )
    return {
        "bounces": bounces,
        "queued_messages": 2 * bounces + 1,
        "smashed": smashed,
        "unsmashed": unsmashed,
        "smash_win": round(
            unsmashed["task_work"] / max(smashed["task_work"], 1), 1
        ),
        "states_match": True,
    }


def collect() -> dict:
    return {
        "layout": [
            run_layout_cell(db, delta)
            for delta in DELTA_SIZES
            for db in DB_SIZES
        ],
        "smash": [run_smash_cell(bounces) for bounces in BOUNCE_COUNTS],
    }


# ---------------------------------------------------------------------------
# Shape claims (asserted in tests and in --check runs)
# ---------------------------------------------------------------------------
def check_shapes(results) -> list:
    """The load-bearing claims as (description, holds) pairs."""
    layout = results["layout"]
    smash = results["smash"]
    by_key = {(r["delta_rows"], r["db_size"]): r for r in layout}

    def non_increasing(engine: str) -> bool:
        return all(
            by_key[(delta, a)][engine]["task_work"]
            >= by_key[(delta, b)][engine]["task_work"]
            for delta in DELTA_SIZES
            for a, b in zip(DB_SIZES, DB_SIZES[1:])
        )

    churn_heavy = [r for r in smash if r["bounces"] >= 8]
    return [
        (
            "row task work on a C/D delta is non-increasing in database size",
            non_increasing("row"),
        ),
        (
            "columnar task work on a C/D delta is non-increasing in database size",
            non_increasing("columnar"),
        ),
        (
            "row and columnar engines do identical logical task work in every cell",
            all(r["row"]["task_work"] == r["columnar"]["task_work"] for r in layout),
        ),
        (
            "steady-state propagation never rebuilds an index (either layout)",
            all(
                r[eng]["index_rebuilds"] == 0
                for r in layout
                for eng in ("row", "columnar")
            ),
        ),
        (
            "row and columnar engines agree on every final state",
            all(r["states_match"] for r in layout),
        ),
        (
            "smash folds every churn transaction into one propagation pass",
            all(r["smashed"]["propagation_passes"] == 1 for r in smash),
        ),
        (
            "the unsmashed kernel replays one pass per queued message",
            all(
                r["unsmashed"]["propagation_passes"] == r["queued_messages"]
                for r in smash
            ),
        ),
        (
            "≥2× smash task-work win on churn-heavy transactions",
            all(r["smash_win"] >= 2 for r in churn_heavy),
        ),
        (
            "the smash win grows with churn",
            all(
                a["smash_win"] <= b["smash_win"]
                for a, b in zip(smash, smash[1:])
            ),
        ),
        (
            "smashed and unsmashed kernels agree on every final state",
            all(r["states_match"] for r in smash),
        ),
    ]


def render(results, times=None) -> None:
    from repro.bench import shape_line

    rows = []
    for i, r in enumerate(results["layout"]):
        rows.append(
            [
                "layout",
                r["db_size"],
                r["delta_rows"],
                r["row"]["task_work"],
                r["columnar"]["task_work"],
                f"{r['speedup']}x",
                r["columnar"]["index_probes"],
                f"{times[i] * 1e3:.1f}" if times else "-",
            ]
        )
    offset = len(results["layout"])
    for i, r in enumerate(results["smash"]):
        rows.append(
            [
                "smash",
                SMASH_DB_SIZE,
                r["queued_messages"],
                r["unsmashed"]["task_work"],
                r["smashed"]["task_work"],
                f"{r['smash_win']}x",
                r["smashed"]["deltas_compacted"],
                f"{times[offset + i] * 1e3:.1f}" if times else "-",
            ]
        )
    report(
        "CK_columnar_kernel",
        "CK: columnar layout and delta smash vs the row baseline (task work)",
        [
            "sweep",
            "db rows",
            "delta/msgs",
            "baseline work",
            "kernel work",
            "speedup",
            "probes/compacted",
            "wall ms",
        ],
        rows,
        shapes=[shape_line(desc, ok) for desc, ok in check_shapes(results)],
        note=(
            "task work = rows scanned + hashed + hash/index probes + rows "
            "produced (deterministic counters); layout baseline = row "
            "engine, smash baseline = one pass per queued message; "
            "JSON baseline: BENCH_columnar.json"
        ),
    )


def test_columnar_kernel_baseline():
    """Pytest entry point: regenerate both sweeps and pin their claims."""
    results = collect()
    render(results)
    for desc, ok in check_shapes(results):
        assert ok, desc
    if DEFAULT_BASELINE.exists():
        assert json.loads(DEFAULT_BASELINE.read_text())["results"] == results, (
            "deterministic counters diverged from BENCH_columnar.json — "
            "regenerate with: python benchmarks/bench_columnar.py --write"
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

    times = [
        time_callable(lambda db=db, d=d: run_layout_cell(db, d), repeats=1)
        for d in DELTA_SIZES
        for db in DB_SIZES
    ] + [
        time_callable(lambda b=b: run_smash_cell(b), repeats=1)
        for b in BOUNCE_COUNTS
    ]
    results = collect()
    render(results, times=times)

    failed = [desc for desc, ok in check_shapes(results) if not ok]
    if failed:
        for desc in failed:
            print(f"SHAPE FAILED: {desc}", file=sys.stderr)
        return 1

    payload = {
        "experiment": "CK_columnar_kernel",
        "workload": {
            "db_sizes": DB_SIZES,
            "delta_sizes": DELTA_SIZES,
            "bounce_counts": BOUNCE_COUNTS,
            "smash_db_size": SMASH_DB_SIZE,
            "scenario": "fig4_all_m",
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
