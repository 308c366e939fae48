"""Deterministic crash/recovery scenarios over the Figure-1 mediator."""

import pytest

from repro.core import annotate
from repro.core.persistence import reinitialize_sources
from repro.correctness import (
    assert_materialized_correct,
    assert_view_correct,
    recompute_all,
)
from repro.durability import (
    CheckpointPolicy,
    Commit,
    CompactLog,
    DurabilityManager,
    RecoveryManager,
    run_crash_workload,
)
from repro.deltas import SetDelta
from repro.errors import MediatorError, SimulatedCrash, SnapshotStaleError
from repro.faults import CrashPoint, CrashSchedule
from repro.relalg import Row
from repro.replication import ReplicaMediator
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_mediator, figure1_vdp


def insert_r(r1, r2=1):
    d = SetDelta()
    d.insert("R", Row({"r1": r1, "r2": r2, "r3": r1 % 7, "r4": 100}))
    return d


def insert_s(s1):
    d = SetDelta()
    d.insert("S", Row({"s1": s1, "s2": s1 % 5, "s3": 7}))
    return d


def steps_mixed(n, base=50_000):
    steps = []
    for i in range(n):
        if i % 3 == 2:
            steps.append(Commit("db2", insert_s(base + i)))
        else:
            steps.append(Commit("db1", insert_r(base + i, r2=i % 50)))
    return steps


def drained_and_correct(mediator):
    assert mediator.refresh().flushed_messages == 0
    assert_view_correct(mediator)
    assert_materialized_correct(mediator)


# ----------------------------------------------------------------------
# Crash points
# ----------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["post-wal-append", "torn-wal"])
def test_crash_and_recover_matches_recompute(tmp_path, phase):
    mediator, sources = figure1_mediator("ex21", seed=21)
    schedule = CrashSchedule([CrashPoint(3, phase)])
    outcome = run_crash_workload(
        mediator.annotated,
        sources,
        str(tmp_path),
        steps_mixed(7),
        crash_schedule=schedule,
        policy=CheckpointPolicy(every_txns=2),
    )
    assert outcome.crashes == [(phase, 3)]
    assert len(outcome.recoveries) == 1
    drained_and_correct(outcome.mediator)


def test_mid_checkpoint_crash_keeps_previous_chain(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=22)
    # txn 4 triggers the every-2 policy; the crash lands before the publish
    # rename, so recovery must run from the txn-2 checkpoint plus WAL tail.
    schedule = CrashSchedule([CrashPoint(4, "mid-checkpoint")])
    outcome = run_crash_workload(
        mediator.annotated,
        sources,
        str(tmp_path),
        steps_mixed(7),
        crash_schedule=schedule,
        policy=CheckpointPolicy(every_txns=2),
    )
    assert outcome.crashes == [("mid-checkpoint", 4)]
    recovery = outcome.recoveries[0]
    assert recovery.wal_records_replayed >= 2  # txns 3 and 4 were not absorbed
    drained_and_correct(outcome.mediator)


def test_torn_record_recovered_from_source_log(tmp_path):
    """The torn transaction's WAL record never became durable; its data
    comes back through the source's own log past the last good cursor."""
    mediator, sources = figure1_mediator("ex21", seed=23)
    schedule = CrashSchedule([CrashPoint(2, "torn-wal")])
    outcome = run_crash_workload(
        mediator.annotated,
        sources,
        str(tmp_path),
        steps_mixed(4),
        crash_schedule=schedule,
        policy=CheckpointPolicy(every_txns=100),  # no checkpoint after base
    )
    recovery = outcome.recoveries[0]
    assert recovery.replayed_txns >= 1
    drained_and_correct(outcome.mediator)


def test_multiple_crashes_in_one_run(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=24)
    schedule = CrashSchedule(
        [CrashPoint(2, "post-wal-append"), CrashPoint(5, "torn-wal")]
    )
    outcome = run_crash_workload(
        mediator.annotated,
        sources,
        str(tmp_path),
        steps_mixed(8),
        crash_schedule=schedule,
        policy=CheckpointPolicy(every_txns=3),
    )
    assert len(outcome.crashes) == 2
    drained_and_correct(outcome.mediator)


# ----------------------------------------------------------------------
# Recovery protocol details
# ----------------------------------------------------------------------
def test_recovery_without_checkpoint_raises(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=25)
    with pytest.raises(MediatorError):
        RecoveryManager(str(tmp_path)).recover(mediator.annotated, sources)


def test_recovery_is_idempotent_under_repeated_restart(tmp_path):
    """Crash, recover, crash again before any new checkpoint: the second
    recovery replays the same WAL tail over the same checkpoint and must
    land in the same state (the (source, seq) key keeps replay idempotent)."""
    mediator, sources = figure1_mediator("ex21", seed=26)
    annotated = mediator.annotated
    manager = DurabilityManager.attach(
        mediator, str(tmp_path), policy=CheckpointPolicy(every_txns=100)
    )
    for step in steps_mixed(3):
        sources[step.source].execute(step.delta)
        mediator.refresh()
    manager.close()

    first = RecoveryManager(str(tmp_path)).recover(annotated, sources)
    second = RecoveryManager(str(tmp_path)).recover(annotated, sources)
    assert first.wal_records_replayed == second.wal_records_replayed
    t1 = first.mediator.query_relation("T")
    t2 = second.mediator.query_relation("T")
    assert t1 == t2
    drained_and_correct(second.mediator)


def test_unheard_source_commits_recovered_from_log(tmp_path):
    """Transactions committed while the mediator was 'down' (never
    announced, never logged) come back through the source-log catch-up."""
    mediator, sources = figure1_mediator("ex21", seed=27)
    annotated = mediator.annotated
    manager = DurabilityManager.attach(mediator, str(tmp_path))
    sources["db1"].execute(insert_r(61_000))
    mediator.refresh()
    manager.close()
    # Mediator is dead; sources keep committing.
    sources["db1"].execute(insert_r(61_001))
    sources["db2"].execute(insert_s(61_002))

    recovery = RecoveryManager(str(tmp_path)).recover(annotated, sources)
    assert recovery.replayed_txns == 2
    drained_and_correct(recovery.mediator)


# ----------------------------------------------------------------------
# Selective re-initialization (compacted source logs)
# ----------------------------------------------------------------------
def compacted_scenario(tmp_path, on_stale):
    mediator, sources = figure1_mediator("ex21", seed=28)
    steps = [
        Commit("db1", insert_r(62_000)),
        Commit("db2", insert_s(62_001)),
        # db1 commits the mediator never hears, then reclaims its log.
        Commit("db1", insert_r(62_002), refresh=False),
        Commit("db1", insert_r(62_003), refresh=False),
        CompactLog("db1"),
        Commit("db2", insert_s(62_004)),  # txn 3: torn -> record lost
    ]
    schedule = CrashSchedule([CrashPoint(3, "torn-wal")])
    if on_stale == "reinit":
        return run_crash_workload(
            mediator.annotated,
            sources,
            str(tmp_path),
            steps,
            crash_schedule=schedule,
            policy=CheckpointPolicy(every_txns=100),
        )
    # on_stale == "raise": drive the same scenario by hand.
    manager = DurabilityManager.attach(
        mediator, str(tmp_path), crash_schedule=schedule,
        policy=CheckpointPolicy(every_txns=100),
    )
    for step in steps:
        if isinstance(step, CompactLog):
            sources[step.source].compact_log(sources[step.source].txn_count)
            continue
        sources[step.source].execute(step.delta)
        if step.refresh:
            try:
                mediator.refresh()
            except SimulatedCrash:
                manager.close()
                return mediator.annotated, sources


def test_compacted_log_triggers_selective_reinit(tmp_path):
    outcome = compacted_scenario(tmp_path, "reinit")
    recovery = outcome.recoveries[0]
    assert recovery.reinitialized_sources == ("db1",)
    # Only db1's subtree was rebuilt: R_p and the shared export T — never
    # S_p, which db1 cannot reach.
    assert set(recovery.reinitialized_nodes) == {"R_p", "T"}
    assert recovery.stale_gaps["db1"][0] < recovery.stale_gaps["db1"][1]
    drained_and_correct(outcome.mediator)


def test_compacted_log_with_on_stale_raise(tmp_path):
    annotated, sources = compacted_scenario(tmp_path, "raise")
    with pytest.raises(SnapshotStaleError) as excinfo:
        RecoveryManager(str(tmp_path)).recover(annotated, sources, on_stale="raise")
    assert "db1" in excinfo.value.gaps
    cursor, floor = excinfo.value.gaps["db1"]
    assert floor > cursor
    assert "reinit" in str(excinfo.value)


def test_resync_staleness_disclosed_during_reinit(tmp_path):
    """While a selective re-initialization is in flight the source must be
    disclosed with unbounded staleness; afterwards the tag clears."""
    mediator, sources = figure1_mediator("ex21", seed=29)
    mediator.begin_resync("db1")
    tag = mediator.staleness_tag()
    assert tag.staleness["db1"] == float("inf")
    mediator.end_resync("db1")
    assert "db1" not in mediator.staleness_tag().staleness
    with pytest.raises(MediatorError):
        mediator.begin_resync("nope")


def test_reinitialize_sources_compensates_in_flight_updates(tmp_path):
    """Intact sources' queued/pending announcements must not be baked into
    the rebuilt subtree — they are still due for incremental delivery."""
    mediator, sources = figure1_mediator("ex21", seed=30)
    # db2 has one queued and one unannounced update in flight.
    sources["db2"].execute(insert_s(63_000))
    mediator.collect_announcements()
    sources["db2"].execute(insert_s(63_001))
    replaced = reinitialize_sources(mediator, ["db1"])
    assert set(replaced) == {"R_p", "T"}
    # Delivering the in-flight updates now must land exactly once.
    result = mediator.refresh()
    assert result.flushed_messages >= 1
    assert_view_correct(mediator)
    assert_materialized_correct(mediator)


def test_traced_crash_run_validates_against_schema(tmp_path):
    """Spans and events emitted by WAL/checkpoint/recovery code must stay
    inside the closed trace taxonomy — a traced crash run exports clean."""
    from repro.obs import Tracer
    from repro.obs.export import export_jsonl

    tracer = Tracer(enabled=True)
    mediator, sources = figure1_mediator("ex21", seed=33)
    steps = [
        Commit("db1", insert_r(65_000)),
        Commit("db1", insert_r(65_001), refresh=False),
        CompactLog("db1"),
        Commit("db2", insert_s(65_002)),
        Commit("db2", insert_s(65_003)),
    ]
    outcome = run_crash_workload(
        mediator.annotated,
        sources,
        str(tmp_path / "dur"),
        steps,
        crash_schedule=CrashSchedule([CrashPoint(2, "torn-wal")]),
        policy=CheckpointPolicy(every_txns=2),
        mediator_kwargs={"tracer": tracer},
    )
    assert outcome.crashes and outcome.recoveries[0].reinitialized_sources
    written = export_jsonl(tracer, str(tmp_path / "trace.jsonl"))
    assert written > 0
    names = {r["name"] for r in tracer.records()}
    for required in (
        "checkpoint",
        "recovery",
        "wal_replay",
        "selective_reinit",
        "wal_append",
        "wal_torn",
        "crash_injected",
        "recovery_catchup",
        "source_reinit",
        "checkpoint_complete",
    ):
        assert required in names, required


# ----------------------------------------------------------------------
# on_stale="raise": typed staleness, checked before any source is touched
# ----------------------------------------------------------------------
def stale_snapshot(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=31)
    directory = str(tmp_path / "dur")
    DurabilityManager.attach(mediator, directory).close()
    sources["db1"].insert("R", r1=64_000, r2=1, r3=1, r4=100)
    sources["db1"].insert("R", r1=64_001, r2=2, r3=2, r4=100)
    sources["db2"].insert("S", s1=64_002, s2=1, s3=7)
    sources["db1"].compact_log(sources["db1"].txn_count)
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    return annotated, sources, directory


def test_restore_stale_raises_typed_error_with_gap(tmp_path):
    annotated, sources, directory = stale_snapshot(tmp_path)
    with pytest.raises(SnapshotStaleError) as excinfo:
        RecoveryManager(directory).recover(annotated, sources, on_stale="raise")
    gaps = excinfo.value.gaps
    assert set(gaps) == {"db1"}
    cursor, floor = gaps["db1"]
    assert cursor == 0 and floor > cursor
    assert "on_stale" in str(excinfo.value)


def test_restore_stale_reinit_fallback(tmp_path):
    annotated, sources, directory = stale_snapshot(tmp_path)
    recovery = RecoveryManager(directory).recover(annotated, sources, on_stale="reinit")
    assert recovery.reinitialized_sources == ("db1",)
    drained_and_correct(recovery.mediator)


def test_restore_rejects_unknown_on_stale(tmp_path):
    annotated, sources, directory = stale_snapshot(tmp_path)
    with pytest.raises(MediatorError):
        RecoveryManager(directory).recover(annotated, sources, on_stale="panic")


def test_raising_recovery_touches_no_source(tmp_path):
    """Every source is checked before any announcement is taken: a stale
    ``db2`` raises, and ``db1``'s pending announcement — which the live
    mediator still has to deliver — is left where it was."""
    mediator, sources = figure1_mediator("ex21", seed=34)
    directory = str(tmp_path / "dur")
    DurabilityManager.attach(mediator, directory).close()
    db1, db2 = sources["db1"], sources["db2"]
    db2.execute(insert_s(66_000))
    db2.compact_log(db2.txn_count)
    db1.execute(insert_r(66_001))
    pending = {name: source.pending_announcement() for name, source in sources.items()}
    assert not pending["db1"].is_empty()

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    with pytest.raises(SnapshotStaleError) as excinfo:
        RecoveryManager(directory).recover(annotated, sources, on_stale="raise")
    assert excinfo.value.gaps == {"db2": (0, 2)}
    for name, source in sources.items():
        assert source.pending_announcement() == pending[name], name

    recovered = RecoveryManager(directory).recover(annotated, sources, on_stale="reinit")
    truth = recompute_all(annotated.vdp, sources)
    assert recovered.mediator.query_relation("T") == truth["T"]
    drained_and_correct(recovered.mediator)


# ----------------------------------------------------------------------
# One restart path: recovery and promotion agree
# ----------------------------------------------------------------------
def restart(tmp_path, path):
    """Base checkpoint, a replica bootstrapped from it, three logged
    transactions (the WAL tail), then the primary dies; db2 commits one
    transaction it never hears of (log past the cursor) and db1 two that
    its log then compacts away.  Restart through ``path``."""
    mediator, sources = figure1_mediator("ex21", seed=35)
    directory = str(tmp_path / path)
    manager = DurabilityManager.attach(
        mediator, directory, policy=CheckpointPolicy(every_txns=100)
    )
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    replica = ReplicaMediator("replica-0", annotated, sources, directory)
    replica.resync_from_checkpoint(0.0)
    for step in steps_mixed(3, base=67_000):
        sources[step.source].execute(step.delta)
        mediator.refresh()
    manager.close()
    sources["db2"].execute(insert_s(67_100))
    sources["db1"].execute(insert_r(67_101))
    sources["db1"].execute(insert_r(67_102))
    sources["db1"].compact_log(sources["db1"].txn_count)
    if path == "recover":
        result = RecoveryManager(directory).recover(annotated, sources)
        restarted = result.mediator
    else:
        result = replica.promote(1.0)
        restarted = replica.mediator
    assert result.wal_records_replayed == 3
    assert result.replayed_txns == 1
    truth = recompute_all(annotated.vdp, sources)
    repos = {
        name: restarted.store.repo(name) for name in annotated.nodes_with_storage()
    }
    for name in ("R_p", "S_p", "T"):
        assert restarted.query_relation(name) == truth[name], name
    drained_and_correct(restarted)
    return repos, result.reinitialized_sources


@pytest.mark.parametrize("path", ["recover", "promote"])
def test_recovery_and_promotion_share_one_restart(tmp_path, path):
    repos, reinitialized = restart(tmp_path, path)
    other_repos, other_reinitialized = restart(
        tmp_path, "promote" if path == "recover" else "recover"
    )
    assert reinitialized == other_reinitialized == ("db1",)
    assert repos == other_repos
