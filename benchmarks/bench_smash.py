"""Experiment SM — the delta smash: net-effect compaction in the kernel.

One ablation over the Figure 4 mediator (``all_m``), measured with a
deterministic task-work model — ``rows_scanned + rows_hashed +
hash_probes + index_probes + rows_produced`` out of fresh evaluator
counters, never a wall clock.  Churn-heavy transactions (rows inserted
then deleted across separate announcements, plus one surviving insert)
are propagated with ``smash_enabled=True`` (one pass over the
queue-folded net delta) and ``smash_enabled=False`` (one pass per queued
message, in arrival order).  The net effect is identical — asserted on
full repository state — but the unsmashed kernel replays every bounced
message, so the smashed kernel must win ≥2× on task work once churn
dominates.

The sweep asserts bit-identical repository states between the two kernels
per cell, so the committed ``BENCH_smash.json`` baseline is an exact
regression gate: ``python benchmarks/bench_smash.py --check`` recomputes
and compares.  Wall time appears in the printed table only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.workloads import figure4_mediator, figure4_sources

try:
    from _util import report, time_callable
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _util import report, time_callable

#: Bounce counts at a fixed mid-size database.  Each bounce
#: is an insert and a delete of the same row in *separate* announcements
#: (same-window bounces already cancel at the source accumulator, which
#: would measure the source, not the kernel).
BOUNCE_COUNTS = [2, 8, 32]
SMASH_DB_SIZE = 400
DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_smash.json"
)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def build(smash_enabled: bool):
    # Same Figure 4 sources as the propagation-scaling experiment (A and B
    # small, C and D sized), so the two baselines run one workload and
    # differ only in the ablated knob.
    sources = figure4_sources(a_rows=30, b_rows=20, cd_rows=SMASH_DB_SIZE, seed=11)
    return figure4_mediator("all_m", sources=sources, smash_enabled=smash_enabled)


def task_work(counters) -> int:
    """Row-granular evaluator work: scanned, hashed, probed, produced."""
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
        "propagation_passes": stats.propagation_passes,
        "deltas_compacted": stats.deltas_compacted,
    }


def run_smash_engine(smash_enabled: bool, bounces: int):
    mediator, sources = build(smash_enabled)
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
    return {"smash": [run_smash_cell(bounces) for bounces in BOUNCE_COUNTS]}


# ---------------------------------------------------------------------------
# Shape claims (asserted in tests and in --check runs)
# ---------------------------------------------------------------------------
def check_shapes(results) -> list:
    """The load-bearing claims as (description, holds) pairs."""
    smash = results["smash"]
    churn_heavy = [r for r in smash if r["bounces"] >= 8]
    return [
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
    for i, r in enumerate(results["smash"]):
        rows.append(
            [
                SMASH_DB_SIZE,
                r["queued_messages"],
                r["unsmashed"]["task_work"],
                r["smashed"]["task_work"],
                f"{r['smash_win']}x",
                r["smashed"]["deltas_compacted"],
                f"{times[i] * 1e3:.1f}" if times else "-",
            ]
        )
    report(
        "SM_delta_smash",
        "SM: delta smash vs one pass per queued message (task work)",
        [
            "db rows",
            "msgs",
            "unsmashed work",
            "smashed work",
            "smash win",
            "compacted",
            "wall ms",
        ],
        rows,
        shapes=[shape_line(desc, ok) for desc, ok in check_shapes(results)],
        note=(
            "task work = rows scanned + hashed + hash/index probes + rows "
            "produced (deterministic counters); baseline = one pass per "
            "queued message; JSON baseline: BENCH_smash.json"
        ),
    )


def test_smash_baseline():
    """Pytest entry point: regenerate the sweep and pin its claims."""
    results = collect()
    render(results)
    for desc, ok in check_shapes(results):
        assert ok, desc
    if DEFAULT_BASELINE.exists():
        assert json.loads(DEFAULT_BASELINE.read_text())["results"] == results, (
            "deterministic counters diverged from BENCH_smash.json — "
            "regenerate with: python benchmarks/bench_smash.py --write"
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
        "experiment": "SM_delta_smash",
        "workload": {
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
