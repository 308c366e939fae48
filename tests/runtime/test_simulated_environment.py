"""Simulation-level tests: Theorem 7.1 (consistency) and 7.2 (freshness).

Run the Figure 1 mediator inside the discrete-event environment with real
announcement/communication delays and verify the recorded trace against the
Section 3 checkers — the mechanized versions of the paper's two theorems.
"""

import random

import pytest

from repro.core import annotate
from repro.correctness import (
    assert_materialized_correct,
    assert_view_correct,
    check_consistency,
    check_freshness,
    view_function_from_vdp,
)
from repro.deltas import SetDelta
from repro.durability import CheckpointPolicy, DurabilityManager, RecoveryManager
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.relalg import row
from repro.sim import EnvironmentDelays
from repro.runtime import SimulatedEnvironment
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_sources, figure1_vdp


def build_env(example="ex21", ann=0.5, comm=0.3, hold=1.0, seed=7, **kwargs):
    delays = EnvironmentDelays.uniform(
        ["db1", "db2"],
        ann_delay=ann,
        comm_delay=comm,
        u_hold_delay_med=hold,
    )
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS[example])
    sources = figure1_sources(r_rows=30, s_rows=20, seed=seed)
    return SimulatedEnvironment(annotated, sources, delays, **kwargs)


def schedule_workload(env, rng, n_updates=6, n_queries=5, horizon=20.0):
    # Pick, from the deterministic initial data, S rows whose removal and R
    # values whose insertion definitely change T.
    s_rows = list(env.sources["db2"].relation("S").rows())
    r_rows = list(env.sources["db1"].relation("R").rows())
    joinable_s1 = sorted(r["s1"] for r in s_rows if r["s3"] < 50)
    active_r2 = {r["r2"] for r in r_rows if r["r4"] == 100}
    deletable_s = [r for r in s_rows if r["s3"] < 50 and r["s1"] in active_r2]

    update_times = []
    for k in range(n_updates):
        t = rng.uniform(0.5, horizon - 5)
        update_times.append(t)
        delta = SetDelta()
        if k % 2 == 0 or not deletable_s:
            delta.insert(
                "R",
                row(
                    r1=1000 + k,
                    r2=joinable_s1[k % len(joinable_s1)],
                    r3=rng.randrange(1000),
                    r4=100,
                ),
            )
            env.schedule_transaction(t, "db1", delta)
        else:
            delta.delete("S", deletable_s.pop())
            env.schedule_transaction(t, "db2", delta)
    for i in range(n_queries):
        # Query shortly after an update, inside the propagation window.
        base = update_times[i % len(update_times)]
        env.schedule_query(min(horizon - 0.5, base + rng.uniform(0.2, 1.2)))


@pytest.mark.parametrize("example", ["ex21", "ex22", "ex23"])
def test_theorem_71_consistency_in_simulation(example):
    env = build_env(example)
    rng = random.Random(17)
    schedule_workload(env, rng)
    env.run_until(25.0)

    view_fn = view_function_from_vdp(env.mediator.vdp)
    verdict = check_consistency(env.trace, view_fn)
    assert verdict.consistent, verdict.failures
    assert verdict.pseudo_consistent


def test_theorem_72_freshness_in_simulation():
    env = build_env("ex21", ann=0.5, comm=0.3, hold=1.0)
    rng = random.Random(23)
    schedule_workload(env, rng)
    env.run_until(25.0)

    view_fn = view_function_from_vdp(env.mediator.vdp)
    kinds = env.mediator.contributor_kinds
    materialized = [s for s, k in kinds.items() if k.value == "materialized-contributor"]
    hybrid = [s for s, k in kinds.items() if k.value == "hybrid-contributor"]
    virtual = [s for s, k in kinds.items() if k.value == "virtual-contributor"]
    bound = env.delays.freshness_bound(materialized, hybrid, virtual)

    report = check_freshness(env.trace, view_fn, bound)
    assert report.within_bound, report.violations
    # The bound is meaningful: achieved staleness is positive somewhere.
    assert any(v > 0 for v in report.worst.values())


def test_staleness_grows_with_hold_delay():
    """Shape check: a slower flush policy yields staler views."""
    worst = {}
    for hold in (0.5, 4.0):
        env = build_env("ex21", ann=0.1, comm=0.1, hold=hold, seed=5)
        rng = random.Random(31)
        schedule_workload(env, rng, n_updates=8, n_queries=6)
        env.run_until(30.0)
        view_fn = view_function_from_vdp(env.mediator.vdp)
        report = check_freshness(
            env.trace, view_fn, env.delays.freshness_bound(["db1", "db2"], [], [])
        )
        assert report.within_bound, report.violations
        worst[hold] = max(report.worst.values())
    assert worst[4.0] >= worst[0.5]


def test_announcements_batch_within_ann_delay():
    env = build_env("ex21", ann=2.0, comm=0.1, hold=1.0)
    db1 = env.sources["db1"]

    def commit(k):
        return lambda: db1.insert("R", r1=5000 + k, r2=1, r3=1, r4=100)

    # Three commits inside one announcement window -> one message.
    env.schedule_action(1.0, commit(0))
    env.schedule_action(1.5, commit(1))
    env.schedule_action(2.5, commit(2))
    env.run_until(10.0)
    assert env.links["db1"].channel.messages_sent == 1
    # All three rows made it into the view anyway.
    t = env.mediator.query_relation("T")
    assert env.mediator.store.repo("T").cardinality() >= 0  # smoke
    assert_view_correct(env.mediator)


def _eca_scenario(eca_enabled):
    """An in-flight R modification racing an S-triggered poll (Example 2.2
    setting: R' virtual, so an S update polls R).

    db1 announces slowly (its modification stays in flight) while db2
    announces fast; without compensation the poll's fresh answer mixes the
    new r3 into rows derived from ΔS while materialized rows keep the old
    r3 — no single R state matches, and the follow-up ΔR application can
    even underflow T's bag.
    """
    from repro.sim import DelayProfile

    delays = EnvironmentDelays(
        {
            "db1": DelayProfile(ann_delay=5.0, comm_delay=0.1, q_proc_delay=0.0),
            "db2": DelayProfile(ann_delay=0.1, comm_delay=0.1, q_proc_delay=0.0),
        },
        u_hold_delay_med=0.5,
    )
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex22"])
    sources = figure1_sources(r_rows=30, s_rows=20, seed=7)
    env = SimulatedEnvironment(annotated, sources, delays, eca_enabled=eca_enabled)

    # A joining R row from the initial data (r4=100 and r2 hits a live S key).
    s_keys = {r["s1"] for r in sources["db2"].relation("S").rows() if r["s3"] < 50}
    target = next(
        r
        for r in sources["db1"].relation("R").rows()
        if r["r4"] == 100 and r["r2"] in s_keys
    )
    modified = dict(target)
    modified["r3"] = 999_999

    d_r = SetDelta()
    d_r.delete("R", target)
    d_r.insert("R", row(**modified))
    env.schedule_transaction(1.0, "db1", d_r)  # announced only at t=6.0

    # Replace the S row the target joins with (same key, new payload): the
    # S-side rule then both deletes and re-inserts T rows for the target's
    # r1, reading R through a poll.
    s_row = next(
        r for r in sources["db2"].relation("S").rows() if r["s1"] == target["r2"]
    )
    d_s = SetDelta()
    d_s.delete("S", s_row)
    d_s.insert("S", row(s1=s_row["s1"], s2=777_777, s3=1))
    env.schedule_transaction(1.2, "db2", d_s)
    return env


def test_eca_disabled_breaks_consistency_under_inflight_updates():
    """Ablation: without eager compensation the environment misbehaves —
    either the trace stops being consistent or maintenance corrupts/crashes."""
    env = _eca_scenario(eca_enabled=False)
    broke = False
    try:
        env.schedule_query(1.8)  # between the poll and ΔR's arrival
        env.run_until(10.0)
        verdict = check_consistency(env.trace, view_function_from_vdp(env.mediator.vdp))
        broke = not verdict.consistent
    except Exception:
        broke = True
    assert broke, "disabling ECA never produced an inconsistency"


def test_eca_enabled_keeps_same_scenario_consistent():
    env = _eca_scenario(eca_enabled=True)
    env.schedule_query(1.8)
    env.run_until(10.0)
    verdict = check_consistency(env.trace, view_function_from_vdp(env.mediator.vdp))
    assert verdict.consistent, verdict.failures
    assert env.mediator.vap.stats.compensations > 0


def test_flush_period_must_be_positive():
    delays = EnvironmentDelays.uniform(["db1", "db2"])  # hold = 0
    annotated = annotate(figure1_vdp(), {})
    with pytest.raises(SimulationError):
        SimulatedEnvironment(annotated, figure1_sources(), delays)


@pytest.mark.parametrize("fault_plan", [None, FaultPlan()], ids=["plain", "reliable"])
def test_channel_path_threads_source_log_cursors_into_the_wal(tmp_path, fault_plan):
    """Regression: the channel links announced without the source-log
    cursor, so a durable mediator behind a SimulatedEnvironment logged
    ``cursor: null`` and recovery re-replayed every source transaction the
    WAL already covered."""
    env = build_env("ex21", ann=0.1, comm=0.1, hold=1.0, fault_plan=fault_plan)
    manager = DurabilityManager.attach(
        env.mediator, str(tmp_path), policy=CheckpointPolicy(every_txns=0, every_wal_bytes=0)
    )
    base = env.sources["db1"].txn_count
    for k in range(6):
        delta = SetDelta()
        delta.insert("R", row(r1=7000 + k, r2=k, r3=k, r4=100))
        env.schedule_transaction(1.0 + 2.0 * k, "db1", delta)
    env.run_until(14.0)
    cursors = [record.sources["db1"].cursor for record in manager.wal.records]
    assert cursors == [base + k for k in range(1, 7)]
    manager.close()

    recovery = RecoveryManager(str(tmp_path)).recover(env.mediator.annotated, env.sources)
    assert recovery.wal_records_replayed == 6
    assert recovery.replayed_txns == 0  # nothing past the WAL's cursors
    assert_materialized_correct(recovery.mediator)
    assert_view_correct(recovery.mediator)
