"""Experiment QC — the delta-aware VAP temp cache and concurrent polling.

Squirrel's hybrid approach (§2, §6.3) buys query-time locality by keeping
part of the view materialized; this harness pins the two query-path
optimizations layered on top of it:

* **A — repeated-query window.**  On Figure 1 / Example 2.3, a hot query
  touching virtual ``r3`` is repeated while sources are quiescent.  With
  the cache on, only the *first* execution polls and every later one is an
  exact-match hit; a follow-up query with a strictly narrower predicate is
  a different key, so it misses and polls once.  Under
  ``vap.cache_bypassed()`` every repetition re-polls — poll count grows
  linearly with the window.

* **B — precise invalidation.**  An update transaction through ``db2``
  whose rows pass the ``S'`` leaf-parent selection (``s3 < 50``) kills
  exactly the cached temps whose lineage touches ``S``; the surviving
  ``R'`` entry then serves the R-side of the next reconstruction, so only
  db2 is re-polled.  An update *outside* the selection (``s3 = 90``) is
  dropped by the §6.2 leaf-parent filter and invalidates nothing.

* **C — concurrent fan-out.**  Figure 4 under ``all_v`` polls four sources
  per query.  With a 50 ms injected per-source delay
  (:class:`~repro.core.DelayedLink`), serial polling costs ~sum over
  sources while the bounded thread-pool fan-out costs ~max — wall-clock
  speedup ≥ 3× with four sources, identical answers either way.  The VAP
  picks the loop from ``link.supports_parallel_poll``, so the serial arm
  runs over links that declare it false.

All counters reported are deterministic (fixed seeds, one-transaction-
per-source snapshots, sorted merge order), so ``BENCH_query_cache.json``
at the repo root is an exact regression baseline:
``python benchmarks/bench_query_cache.py --check`` recomputes and
compares.  Wall times (and the speedup derived from them) appear in the
printed table and shape checks only — never in the JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from contextlib import nullcontext

from repro.core import DelayedLink, TempRequest
from repro.relalg import TRUE
from repro.workloads import figure1_mediator, figure4_mediator

try:
    from _util import BENCH_SEED, report, time_callable
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    from _util import BENCH_SEED, report, time_callable

DEFAULT_BASELINE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_query_cache.json"
)

WINDOW = 6  # repeated executions of the hot query in experiment A
HOT_QUERY = "project[r1, s1](select[r3 < 100](T))"
NARROW_QUERY = "project[r1, s1](select[r3 < 40](T))"
FULL_QUERY = "project[r1, r3, s1, s2](T)"  # full width: T, R' and S' temps
FANOUT_DELAY = 0.05  # injected per-source poll latency in experiment C


# ---------------------------------------------------------------------------
# A — repeated-query window: flat polls vs linear
# ---------------------------------------------------------------------------
def run_window(cache_enabled: bool) -> dict:
    mediator, _ = figure1_mediator("ex23", seed=BENCH_SEED)
    with nullcontext() if cache_enabled else mediator.vap.cache_bypassed():
        mediator.reset_stats()
        answers = [mediator.query(HOT_QUERY) for _ in range(WINDOW)]
        assert all(a == answers[0] for a in answers)
        polls_trajectory = []
        mediator.reset_stats()
        mediator.vap.clear_cache()
        for _ in range(WINDOW):
            mediator.query(HOT_QUERY)
            polls_trajectory.append(mediator.vap.stats.polls)
        narrow_before = mediator.vap.stats.polls
        mediator.query(NARROW_QUERY)
    stats = mediator.vap.stats
    return {
        "cache_enabled": cache_enabled,
        "window": WINDOW,
        "polls_first": polls_trajectory[0],
        "polls_window": polls_trajectory[-1],
        "polls_trajectory": polls_trajectory,
        "polls_for_narrow": stats.polls - narrow_before,
        "cache_hits": stats.cache_hits,
    }


# ---------------------------------------------------------------------------
# B — precise invalidation: only the touched subtree re-polls
# ---------------------------------------------------------------------------
def run_invalidation() -> dict:
    mediator, sources = figure1_mediator("ex23", seed=BENCH_SEED)
    mediator.reset_stats()
    # Warm T, R' and S' entries.  The R' request is the same full-width one
    # the IUP makes for an S-side transaction, so the two share one entry.
    mediator.query(FULL_QUERY)
    entries_before = mediator.vap.cache.entry_count()

    # Relevant update: passes the S' selection (s3 < 50) → T's entry dies.
    sources["db2"].insert("S", s1=999_001, s2=1, s3=10)
    mediator.refresh()
    relevant_invalidations = mediator.vap.stats.cache_invalidations
    t_entries_after_relevant = len(mediator.vap.cache.entries_for("T"))
    rp_entries_after_relevant = len(mediator.vap.cache.entries_for("R_p"))
    polls = mediator.vap.stats.polls
    polled_sources = mediator.vap.stats.polled_sources
    # Needs S-side virtual attrs: re-polls db2 only (R' entry survives).
    mediator.query(FULL_QUERY)
    repoll_polls = mediator.vap.stats.polls - polls
    repoll_sources = mediator.vap.stats.polled_sources - polled_sources

    # Irrelevant update: dropped by the leaf-parent filter (s3 = 90 ≥ 50).
    base_invalidations = mediator.vap.stats.cache_invalidations
    sources["db2"].insert("S", s1=999_002, s2=1, s3=90)
    mediator.refresh()
    irrelevant_invalidations = (
        mediator.vap.stats.cache_invalidations - base_invalidations
    )
    polls = mediator.vap.stats.polls
    mediator.query(FULL_QUERY)
    irrelevant_repoll_polls = mediator.vap.stats.polls - polls
    return {
        "entries_warm": entries_before,
        "relevant_invalidations": relevant_invalidations,
        "t_entries_after_relevant": t_entries_after_relevant,
        "rp_entries_after_relevant": rp_entries_after_relevant,
        "repoll_polls": repoll_polls,
        "repoll_sources": repoll_sources,
        "irrelevant_invalidations": irrelevant_invalidations,
        "irrelevant_repoll_polls": irrelevant_repoll_polls,
    }


# ---------------------------------------------------------------------------
# C — concurrent fan-out: wall ≈ max over sources, not sum
# ---------------------------------------------------------------------------
class SerialDelayedLink(DelayedLink):
    """A delayed link that must be polled on the caller's thread."""

    supports_parallel_poll = False


def build_fanout_mediator(parallel: bool):
    mediator, _ = figure4_mediator("all_v", seed=BENCH_SEED)
    link_class = DelayedLink if parallel else SerialDelayedLink
    for name, link in list(mediator.links.items()):
        delayed = link_class(
            link.source,
            announcement_sink=link.announcement_sink,
            announces=link.announces,
            delay=FANOUT_DELAY,
        )
        # The VAP holds its own copy of the link table: swap both.
        mediator.links[name] = delayed
        mediator.vap.links[name] = delayed
    return mediator


def fanout_requests():
    return [
        TempRequest("E", frozenset({"a1", "a2", "b1"}), TRUE),
        TempRequest("G", frozenset({"a1", "b1"}), TRUE),
    ]


def run_fanout(parallel: bool):
    mediator = build_fanout_mediator(parallel)
    mediator.reset_stats()
    temps = mediator.vap.materialize(fanout_requests())
    stats = mediator.vap.stats
    counters = {
        "parallel": parallel,
        "polled_sources": stats.polled_sources,
        "polls": stats.polls,
        "parallel_poll_batches": stats.parallel_poll_batches,
    }
    snapshot = {
        name: sorted((tuple(sorted(dict(r).items())), n) for r, n in rel.items())
        for name, rel in temps.items()
    }
    wall = time_callable(
        lambda: mediator.vap.materialize(fanout_requests()), repeats=3
    )
    return counters, snapshot, wall


def collect():
    parallel_counters, parallel_state, parallel_wall = run_fanout(True)
    serial_counters, serial_state, serial_wall = run_fanout(False)
    assert parallel_state == serial_state, "fan-out modes produced different temps"
    results = {
        "window_cached": run_window(True),
        "window_ablation": run_window(False),
        "invalidation": run_invalidation(),
        "fanout": {
            "sources": 4,
            "delay_per_source_s": FANOUT_DELAY,
            "parallel": parallel_counters,
            "serial": serial_counters,
            "states_match": True,
        },
    }
    times = {"parallel_wall": parallel_wall, "serial_wall": serial_wall}
    return results, times


# ---------------------------------------------------------------------------
# Shape claims (asserted in tests and in --check/--write runs)
# ---------------------------------------------------------------------------
def check_shapes(results, times=None) -> list:
    cached = results["window_cached"]
    ablation = results["window_ablation"]
    inv = results["invalidation"]
    fan = results["fanout"]
    shapes = [
        (
            "with the cache, repeated quiescent queries poll only on the first execution",
            cached["polls_window"] == cached["polls_first"] > 0,
        ),
        (
            "without the cache, polls grow linearly with the query window",
            ablation["polls_window"] == WINDOW * ablation["polls_first"],
        ),
        (
            "every cached repeat after the first is an exact-match hit",
            cached["cache_hits"] == WINDOW - 1,
        ),
        (
            "a strictly narrower predicate is a different key: a miss that polls once",
            cached["polls_for_narrow"] == 1,
        ),
        (
            "a relevant update kills exactly the touched lineage (R' entry survives)",
            inv["relevant_invalidations"] >= 1
            and inv["t_entries_after_relevant"] == 0
            and inv["rp_entries_after_relevant"] == 1,
        ),
        (
            "reconstruction after invalidation re-polls only the touched source",
            inv["repoll_polls"] == 1 and inv["repoll_sources"] == 1,
        ),
        (
            "an update outside the leaf-parent selection invalidates and re-polls nothing",
            inv["irrelevant_invalidations"] == 0
            and inv["irrelevant_repoll_polls"] == 0,
        ),
        (
            "fan-out polls all four sources in both modes, batching only when parallel",
            fan["parallel"]["polled_sources"] == 4
            and fan["serial"]["polled_sources"] == 4
            and fan["parallel"]["parallel_poll_batches"] >= 1
            and fan["serial"]["parallel_poll_batches"] == 0,
        ),
        ("parallel and serial fan-out agree on every temp", fan["states_match"]),
    ]
    if times is not None:
        speedup = times["serial_wall"] / max(times["parallel_wall"], 1e-9)
        shapes.append(
            (
                "concurrent fan-out wall ≈ max over sources, not sum "
                f"(speedup ≥ 3.0 with 4×{int(FANOUT_DELAY * 1e3)}ms sources)",
                speedup >= 3.0,
            )
        )
    return shapes


def render(results, times=None) -> None:
    from repro.bench import shape_line

    cached = results["window_cached"]
    ablation = results["window_ablation"]
    inv = results["invalidation"]
    fan = results["fanout"]
    if times:
        speedup = times["serial_wall"] / max(times["parallel_wall"], 1e-9)
        print(f"fan-out speedup (serial/parallel): {speedup:.1f}x", file=sys.stderr)
    rows = [
        ["A", "cache on", cached["polls_window"], cached["cache_hits"],
         "-", "-", "-"],
        ["A", "cache off", ablation["polls_window"], ablation["cache_hits"],
         "-", "-", "-"],
        ["B", "relevant update", inv["repoll_polls"], "-",
         inv["relevant_invalidations"], "-", "-"],
        ["B", "filtered update", inv["irrelevant_repoll_polls"], "-",
         inv["irrelevant_invalidations"], "-", "-"],
        ["C", "parallel polls", fan["parallel"]["polls"], "-", "-",
         fan["parallel"]["parallel_poll_batches"],
         f"{times['parallel_wall'] * 1e3:.1f}" if times else "-"],
        ["C", "serial polls", fan["serial"]["polls"], "-", "-",
         fan["serial"]["parallel_poll_batches"],
         f"{times['serial_wall'] * 1e3:.1f}" if times else "-"],
    ]
    report(
        "QC_query_cache",
        "QC: VAP temp cache (A window / B invalidation) + concurrent fan-out (C)",
        ["exp", "configuration", "polls", "cache hits", "invalidations",
         "batches", "wall ms"],
        rows,
        shapes=[shape_line(desc, ok) for desc, ok in check_shapes(results, times)],
        note=(
            f"window={WINDOW} repeated queries; counters are deterministic; "
            "JSON baseline: BENCH_query_cache.json"
        ),
    )


def test_query_cache_baseline():
    """Pytest entry point: regenerate the experiments, pin the shape claims
    (including the wall-clock fan-out speedup) and the counter baseline."""
    results, times = collect()
    render(results, times)
    for desc, ok in check_shapes(results, times):
        assert ok, desc
    baseline = DEFAULT_BASELINE
    if baseline.exists():
        assert json.loads(baseline.read_text())["results"] == results, (
            "deterministic counters diverged from BENCH_query_cache.json — "
            "regenerate with: python benchmarks/bench_query_cache.py --write"
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

    results, times = collect()
    render(results, times)

    failed = [desc for desc, ok in check_shapes(results, times) if not ok]
    if failed:
        for desc in failed:
            print(f"SHAPE FAILED: {desc}", file=sys.stderr)
        return 1

    payload = {
        "experiment": "QC_query_cache",
        "workload": {
            "window": WINDOW,
            "hot_query": HOT_QUERY,
            "narrow_query": NARROW_QUERY,
            "fanout_delay_s": FANOUT_DELAY,
            "seed": BENCH_SEED,
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
