"""Failover: death detection, most-caught-up promotion, no lost commits."""

import pytest

from repro.faults import ChannelFaults, CrashPoint, FaultPlan, OutageWindow
from repro.obs import Tracer
from repro.replication import ReplicationHarness


def test_no_promotion_while_primary_heartbeats():
    h = ReplicationHarness(replicas=2, seed=3, heartbeat_timeout=3.0)
    try:
        h.run(commits=8)
        assert h.coordinator.primary_alive(float(h.step))
        assert h.coordinator.check(float(h.step)) is None
    finally:
        h.close()


def test_silence_promotes_most_caught_up_replica():
    h = ReplicationHarness(replicas=2, seed=6, heartbeat_timeout=3.0)
    try:
        h.run(commits=9)
        h.drain()
        h.kill_primary()
        h.silent_commit()  # the sources keep committing over the corpse
        now = h.advance_past_timeout()
        assert not h.coordinator.primary_alive(now)
        result = h.coordinator.check(now)
        assert result is not None
        promoted = h.coordinator.promoted
        assert promoted is not None and promoted.is_primary
        # The silent commit came back through source-log catch-up.
        assert result.replayed_txns >= 1
        expected = h.expected_exports()
        assert h.replica_exports(promoted) == expected
        # Idempotent: a second check never re-promotes.
        assert h.coordinator.check(now + 10.0) is None
    finally:
        h.close()


def test_crash_mid_ship_loses_no_acknowledged_transaction():
    """A txn that was WAL-durable but never shipped survives promotion."""
    h = ReplicationHarness(
        replicas=2,
        seed=9,
        crash_points=[CrashPoint(8, "post-wal-append")],
        heartbeat_timeout=3.0,
    )
    try:
        for _ in range(12):
            if not h.commit():
                break
            h.tick()
        assert h.primary_dead
        now = h.advance_past_timeout()
        result = h.coordinator.check(now)
        assert result is not None
        # Txn 8 was durable but crashed before shipping: only the on-disk
        # WAL tail can supply it.
        assert result.wal_records_replayed >= 1
        assert h.replica_exports(h.coordinator.promoted) == h.expected_exports()
    finally:
        h.close()


def test_promotion_recovers_txns_compacted_out_of_the_wal():
    """Regression: checkpoints compact the WAL, so a replica that died
    lagging may need transactions that survive *only* in the newest
    checkpoint chain — promotion must re-baseline from it, not silently
    skip from its own floors to the on-disk tail."""
    # The replica's link goes down at t=5 and stays down: it is still on
    # an early txn when the txn-8 checkpoint compacts the WAL and the
    # primary dies at txn 10.
    faults = FaultPlan(
        channels={
            "ship:replica-0": ChannelFaults(outages=(OutageWindow(5.0, 100.0),))
        }
    )
    h = ReplicationHarness(
        replicas=1,
        seed=0,
        faults=faults,
        crash_points=[CrashPoint(10, "post-wal-append")],
        heartbeat_timeout=3.0,
        checkpoint_every=4,
    )
    try:
        for _ in range(13):
            if not h.commit():
                break
            h.tick()
        assert h.primary_dead
        replica = h.replicas[0]
        assert replica.applied_txn < 8  # behind the txn-8 checkpoint...
        wal_txns = {r.txn for r in h.durability.wal.records}
        assert replica.applied_txn + 1 not in wal_txns  # ...and the WAL
        now = h.advance_past_timeout()
        result = h.coordinator.check(now)
        assert result is not None
        assert h.coordinator.promoted.resyncs >= 2  # bootstrap + step 0
        assert h.replica_exports(h.coordinator.promoted) == h.expected_exports()
    finally:
        h.close()


def test_promotion_skips_replica_mid_resync():
    h = ReplicationHarness(replicas=2, seed=4, heartbeat_timeout=3.0)
    try:
        h.run(commits=8)
        h.drain()
        h.replicas[0].needs_resync = True  # gapped exactly when the primary dies
        h.kill_primary()
        now = h.advance_past_timeout()
        result = h.coordinator.check(now)
        assert result is not None and result.replica == "replica-1"
    finally:
        h.close()


def test_all_replicas_gapped_fails_loudly():
    h = ReplicationHarness(replicas=2, seed=5, heartbeat_timeout=3.0)
    try:
        h.run(commits=5)
        for replica in h.replicas:
            replica.needs_resync = True
        h.kill_primary()
        now = h.advance_past_timeout()
        with pytest.raises(RuntimeError, match="no replica is promotable"):
            h.coordinator.check(now)
    finally:
        for replica in h.replicas:
            replica.needs_resync = False
        h.close()


def test_failover_under_faulted_channels_converges():
    faults = FaultPlan(
        seed=21,
        channels={
            "ship:replica-0": ChannelFaults(drop_rate=0.35, delay_rate=0.3),
            "ship:replica-1": ChannelFaults(drop_rate=0.2, duplicate_rate=0.3),
        },
    )
    h = ReplicationHarness(replicas=2, seed=21, faults=faults, heartbeat_timeout=3.0)
    try:
        h.run(commits=14)
        h.kill_primary()  # no drain: replicas die lagged and heal via promote
        h.silent_commit()
        h.silent_commit()
        now = h.advance_past_timeout()
        result = h.coordinator.check(now)
        assert result is not None
        assert h.replica_exports(h.coordinator.promoted) == h.expected_exports()
    finally:
        h.close()


def test_promotion_traces_failover_span_and_event():
    tracer = Tracer(enabled=True)
    h = ReplicationHarness(replicas=1, seed=2, heartbeat_timeout=3.0, tracer=tracer)
    try:
        h.run(commits=6)
        h.drain()
        h.kill_primary()
        now = h.advance_past_timeout()
        result = h.coordinator.check(now)
        assert result is not None
        records = tracer.records()
        spans = [r for r in records if r["type"] == "span" and r["name"] == "failover"]
        assert spans and spans[-1]["attrs"]["replica"] == "replica-0"
        events = [
            r for r in records if r["type"] == "event" and r["name"] == "promotion"
        ]
        assert events and events[-1]["attrs"]["replica"] == "replica-0"
        assert h.coordinator.promoted.mediator.replication.failovers == 1
    finally:
        h.close()
