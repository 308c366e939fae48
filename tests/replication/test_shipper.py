"""WAL shipping: clean streaming, faulted channels, gap healing, tracing."""

from repro.faults import BackoffPolicy, ChannelFaults, FaultPlan, OutageWindow
from repro.obs import Tracer
from repro.replication import ReplicationHarness


def test_clean_stream_converges_with_zero_lag():
    h = ReplicationHarness(replicas=2, seed=3)
    try:
        h.run(commits=12)
        h.assert_converged()
        for replica in h.replicas:
            assert replica.lag(float(h.step)) == 0.0
            assert replica.applied_txn == h.durability._txn
        assert h.primary.replication.records_shipped > 0
        assert h.primary.replication.replica_lag == 0.0
    finally:
        h.close()


def test_faulted_stream_converges():
    faults = FaultPlan(
        seed=11,
        channels={
            "ship:replica-0": ChannelFaults(
                drop_rate=0.3,
                duplicate_rate=0.2,
                delay_rate=0.3,
                reorder_rate=0.2,
                delay_range=(1.0, 3.0),
            ),
            "ship:replica-1": ChannelFaults(drop_rate=0.4, delay_rate=0.3),
        },
    )
    h = ReplicationHarness(replicas=2, seed=11, faults=faults)
    try:
        h.run(commits=18)
        h.assert_converged()
    finally:
        h.close()


def test_replay_is_idempotent_under_duplicates():
    """Duplicate deliveries must never double-apply a physical write."""
    faults = FaultPlan(
        seed=5,
        channels={"ship:replica-0": ChannelFaults(duplicate_rate=0.9)},
    )
    h = ReplicationHarness(replicas=1, seed=5, faults=faults)
    try:
        h.run(commits=15)
        h.assert_converged()
    finally:
        h.close()


def test_injected_gap_heals_by_checkpoint_resync():
    faults = FaultPlan(
        seed=7,
        channels={"ship:replica-0": ChannelFaults(delay_rate=1.0, delay_range=(4.0, 4.0))},
    )
    h = ReplicationHarness(replicas=1, seed=7, faults=faults)
    try:
        h.run(commits=4)
        dropped = h.shipper.inject_gap("replica-0")
        assert dropped >= 0
        resyncs_before = h.primary.replication.replica_resyncs
        h.run(commits=6)
        h.assert_converged()
        assert h.primary.replication.replica_resyncs > resyncs_before
        assert h.replicas[0].resyncs >= 2  # bootstrap + at least one heal
        assert not h.replicas[0].needs_resync
    finally:
        h.close()


def test_exhausted_retry_budget_heals_by_checkpoint_resync():
    """The other way a stream gets a permanent gap: the sender gives a
    record up.  Same predicate as ``inject_gap`` — the inbox needs a seq
    the sender no longer holds — same heal."""
    tracer = Tracer(enabled=True)
    faults = FaultPlan(
        channels={"ship:replica-0": ChannelFaults(outages=(OutageWindow(2.0, 6.0),))}
    )
    h = ReplicationHarness(
        replicas=1,
        seed=7,
        faults=faults,
        policy=BackoffPolicy(base_timeout=1.0, max_retries=1),
        tracer=tracer,
    )
    try:
        h.run(commits=2)
        resyncs_before = h.primary.replication.replica_resyncs
        h.run(commits=8)  # t=2..5 ship into the outage and are abandoned
        assert h.shipper.streams["replica-0"].sender.abandoned == 0  # a new stream
        assert h.primary.replication.replica_resyncs > resyncs_before
        gaps = [r for r in tracer.records() if r.get("name") == "replica_gap"]
        assert gaps and gaps[0]["attrs"]["replica"] == "replica-0"
        h.assert_converged()
        assert not h.replicas[0].needs_resync
    finally:
        h.close()


def test_backoff_restarts_at_base_timeout_after_an_outage():
    """A replica cut off long enough for retransmissions to reach
    ``max_backoff`` is not pinned there: once the link is back its lag
    returns to 0, and the next lost record is retried ``base_timeout``
    later."""
    tracer = Tracer(enabled=True)
    faults = FaultPlan(
        channels={
            "ship:replica-0": ChannelFaults(
                outages=(OutageWindow(2.0, 12.0), OutageWindow(20.0, 20.5))
            )
        }
    )
    h = ReplicationHarness(
        replicas=1,
        seed=2,
        faults=faults,
        policy=BackoffPolicy(base_timeout=1.0, multiplier=2.0, max_backoff=3.0),
        tracer=tracer,
    )
    try:
        replica = h.replicas[0]
        h.run(commits=12)
        assert replica.lag(float(h.step)) > 0.0  # still cut off at t=12
        attempts = [
            r["attrs"]["attempt"]
            for r in tracer.records()
            if r.get("name") == "fault_retransmit"
        ]
        assert max(attempts) >= 4  # waits of 1, 2, 3, 3: the cap was reached
        h.run(commits=8)
        assert h.step == 20 and replica.lag(20.0) == 0.0
        h.commit()  # shipped at t=20.0, inside the second window: lost
        assert replica.applied_txn == h.durability._txn - 1
        h.tick()  # t=21.0 = one base_timeout later
        assert replica.applied_txn == h.durability._txn
        assert replica.lag(21.0) == 0.0
    finally:
        h.close()


def test_mark_gap_makes_lag_unbounded_until_resync():
    h = ReplicationHarness(replicas=1, seed=2)
    try:
        h.run(commits=3)
        replica = h.replicas[0]
        replica.mark_gap()
        assert replica.lag(float(h.step)) == float("inf")
        h.tick()  # the shipper notices needs_resync and heals it
        h.drain()
        assert replica.lag(float(h.step)) < float("inf")
        h.assert_converged()
    finally:
        h.close()


def test_detach_stops_shipping_to_that_replica():
    h = ReplicationHarness(replicas=2, seed=4)
    try:
        h.run(commits=4)
        h.drain()
        frozen = h.replicas[0].applied_txn
        h.shipper.detach_replica("replica-0")
        h.run(commits=4)
        h.drain()
        assert h.replicas[0].applied_txn == frozen
        assert h.replicas[1].applied_txn == h.durability._txn
    finally:
        h.close()


def test_shipping_emits_spans_and_events():
    tracer = Tracer(enabled=True)
    h = ReplicationHarness(replicas=1, seed=9, tracer=tracer)
    try:
        h.run(commits=6)
        h.drain()
        records = tracer.records()
        ships = [
            r for r in records if r["type"] == "event" and r["name"] == "wal_ship"
        ]
        assert ships, "no wal_ship events traced"
        assert ships[-1]["attrs"]["replicas"] == ["replica-0"]
        applies = [
            r for r in records if r["type"] == "span" and r["name"] == "replica_apply"
        ]
        assert applies, "no replica_apply spans traced"
        assert applies[-1]["attrs"]["replica"] == "replica-0"
        assert applies[-1]["attrs"]["txn"] >= 1
        resyncs = [
            r for r in records if r["type"] == "span" and r["name"] == "replica_resync"
        ]
        assert resyncs, "bootstrap resync recorded no span"
        assert resyncs[0]["attrs"]["replica"] == "replica-0"
    finally:
        h.close()


def test_stats_surface_in_metrics_registry():
    h = ReplicationHarness(replicas=2, seed=6)
    try:
        h.run(commits=6)
        h.drain()
        snapshot = h.primary.metrics.snapshot()
        assert snapshot["replication.records_shipped"] > 0
        assert snapshot["replication.replica_resyncs"] >= 2  # both bootstraps
        assert snapshot["replication.replica_lag"] == 0.0
        assert snapshot["replication.failovers"] == 0
    finally:
        h.close()
