"""Unit tests for the reliability layer (sequencing, dedup, retransmit).

Drives :class:`ReliableSender`/:class:`ReliableInbox` over a faulty
:class:`Channel` inside the discrete-event simulator — no wall-clock time
anywhere — and checks that the Section 4 contract (in-order, exactly-once)
is restored end to end.
"""

import pytest

from repro.errors import SimulationError
from repro.faults import (
    BackoffPolicy,
    ChannelFaults,
    Envelope,
    FaultPlan,
    ReliableInbox,
    ReliableSender,
)
from repro.sim import Channel, Simulator


def make_inbox():
    released = []
    inbox = ReliableInbox(released.append, name="test-inbox")
    return inbox, released


def env(faults=None, seed=0, backoff=None, **plan_kwargs):
    plan = FaultPlan(seed=seed, default=faults, **plan_kwargs) if faults else None
    sim = Simulator(fault_plan=plan)
    inbox, released = make_inbox()
    channel = Channel(sim, 0.5, deliver=lambda e, st: inbox.deliver(e), name="ch")
    sender = ReliableSender(channel, inbox, sim, backoff or BackoffPolicy(base_timeout=1.0))
    return sim, channel, sender, inbox, released


# ----------------------------------------------------------------------
# Inbox: dedup, gaps, in-order release
# ----------------------------------------------------------------------
def test_inbox_releases_in_order():
    inbox, released = make_inbox()
    for seq in range(3):
        inbox.deliver(Envelope(seq, f"p{seq}", float(seq)))
    assert [e.payload for e in released] == ["p0", "p1", "p2"]
    assert inbox.delivered_through == 2
    assert not inbox.pending_gap()


def test_inbox_smashes_duplicates_idempotently():
    inbox, released = make_inbox()
    e = Envelope(0, "p0", 0.0)
    assert inbox.deliver(e) == 1
    assert inbox.deliver(e) == 0
    assert inbox.deliver(Envelope(0, "p0", 0.0)) == 0
    assert [x.payload for x in released] == ["p0"]
    assert inbox.duplicates_dropped == 2


def test_inbox_buffers_out_of_order_until_gap_fills():
    inbox, released = make_inbox()
    assert inbox.deliver(Envelope(2, "p2", 0.0)) == 0  # gap: 0, 1 missing
    assert inbox.deliver(Envelope(1, "p1", 0.0)) == 0
    assert inbox.pending_gap()
    assert inbox.missing() == [0]
    assert inbox.gaps_detected == 2
    # The missing predecessor releases everything buffered, in order.
    assert inbox.deliver(Envelope(0, "p0", 0.0)) == 3
    assert [e.payload for e in released] == ["p0", "p1", "p2"]
    assert not inbox.pending_gap()


def test_inbox_drops_duplicate_of_buffered_envelope():
    inbox, _ = make_inbox()
    inbox.deliver(Envelope(3, "p3", 0.0))
    inbox.deliver(Envelope(3, "p3", 0.0))
    assert inbox.duplicates_dropped == 1


# ----------------------------------------------------------------------
# Backoff policy
# ----------------------------------------------------------------------
def test_backoff_delays_grow_exponentially_and_cap():
    policy = BackoffPolicy(base_timeout=1.0, multiplier=2.0, max_backoff=5.0)
    assert [policy.delay(a) for a in range(4)] == [1.0, 2.0, 4.0, 5.0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_timeout": 0.0},
        {"multiplier": 0.5},
        {"base_timeout": 2.0, "max_backoff": 1.0},
        {"jitter": "full"},
    ],
)
def test_backoff_validation(kwargs):
    with pytest.raises(SimulationError):
        BackoffPolicy(**kwargs)


def test_decorrelated_jitter_is_deterministic_under_seed():
    policy = BackoffPolicy(
        base_timeout=1.0, max_backoff=20.0, jitter="decorrelated", jitter_seed=42
    )
    same = BackoffPolicy(
        base_timeout=1.0, max_backoff=20.0, jitter="decorrelated", jitter_seed=42
    )
    delays = [policy.delay(a, key="db1#0") for a in range(6)]
    assert delays == [same.delay(a, key="db1#0") for a in range(6)]
    # Attempt 0 is always the base; every delay respects base and cap.
    assert delays[0] == 1.0
    assert all(1.0 <= d <= 20.0 for d in delays)


def test_decorrelated_jitter_decorrelates_keys_and_seeds():
    policy = BackoffPolicy(
        base_timeout=1.0, max_backoff=1000.0, jitter="decorrelated", jitter_seed=42
    )
    other_seed = BackoffPolicy(
        base_timeout=1.0, max_backoff=1000.0, jitter="decorrelated", jitter_seed=43
    )
    a = [policy.delay(n, key="db1#0") for n in range(1, 8)]
    b = [policy.delay(n, key="db2#0") for n in range(1, 8)]
    c = [other_seed.delay(n, key="db1#0") for n in range(1, 8)]
    assert a != b  # distinct streams draw distinct schedules
    assert a != c  # and distinct seeds reshuffle the same stream


def test_decorrelated_jitter_grows_toward_cap():
    policy = BackoffPolicy(
        base_timeout=1.0, max_backoff=8.0, jitter="decorrelated", jitter_seed=7
    )
    # d_n <= min(cap, 3 * d_{n-1}); after enough attempts the cap binds.
    delays = [policy.delay(n, key="k") for n in range(12)]
    assert all(d <= 8.0 for d in delays)
    assert max(delays) > 1.0


# ----------------------------------------------------------------------
# Sender: retransmission until acknowledged
# ----------------------------------------------------------------------
def test_clean_channel_delivers_without_retransmits():
    sim, channel, sender, inbox, released = env()
    sender.send("hello")
    sim.run_until(10.0)
    assert [e.payload for e in released] == ["hello"]
    assert sender.retransmits == 0
    assert sender.unacked_count() == 0


def test_dropped_message_is_retransmitted_until_through():
    # Every first attempt is dropped; attempt >= 1 is fault-free.
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=1.0), fault_free_after_attempt=1
    )
    sender.send("payload")
    sim.run_until(20.0)
    assert [e.payload for e in released] == ["payload"]
    assert channel.messages_dropped == 1
    assert sender.retransmits == 1
    assert sender.unacked_count() == 0


def test_backoff_spacing_of_retransmits():
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=1.0),
        fault_free_after_attempt=3,
        backoff=BackoffPolicy(base_timeout=1.0, multiplier=2.0, max_backoff=30.0),
    )
    sender.send("p")
    sim.run_until(50.0)
    # Attempts 0,1,2 all drop; checks at t=1, 1+2=3, 3+4=7 retransmit; the
    # attempt-3 transmission (t=7) is clean and arrives at 7.5.
    assert sender.retransmits == 3
    assert [e.payload for e in released] == ["p"]
    assert channel.messages_dropped == 3
    assert channel.messages_delivered == 1


def test_duplicated_retransmits_are_smashed_downstream():
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(duplicate_rate=1.0, max_duplicates=2),
        fault_free_after_attempt=1,
        seed=5,
    )
    sender.send("a")
    sender.send("b")
    sim.run_until(30.0)
    assert [e.payload for e in released] == ["a", "b"]
    assert channel.messages_duplicated > 0
    assert inbox.duplicates_dropped == channel.messages_duplicated
    assert sender.unacked_count() == 0


def test_max_retries_abandons_and_counts():
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=1.0),
        fault_free_after_attempt=100,  # never relents
        backoff=BackoffPolicy(base_timeout=1.0, max_retries=2),
    )
    sender.send("doomed")
    sim.run_until(60.0)
    assert released == []
    assert sender.abandoned == 1
    assert sender.unacked_count() == 0
    assert sender.retransmits == 2


def test_sync_into_inbox_recovers_lost_tail():
    """The poll-path escape hatch: a drop with no later traffic would wait a
    full backoff for repair; a synchronous poll recovers it immediately."""
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=1.0), fault_free_after_attempt=1
    )
    sender.send("tail")
    sim.run_until(0.6)  # past the nominal delivery time; drop happened
    assert released == []
    assert sender.unacked_count() == 1
    assert sender.sync_into_inbox() == 1
    assert [e.payload for e in released] == ["tail"]
    assert sender.unacked_count() == 0
    # The pending ack-check later finds the seq resolved: no retransmit.
    sim.run_until(20.0)
    assert sender.retransmits == 0
    assert [e.payload for e in released] == ["tail"]


def test_reordered_arrivals_released_in_sequence_order():
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(reorder_rate=0.6, delay_range=(0.0, 3.0)),
        seed=12,
        fault_free_after_attempt=2,
    )
    for i in range(8):
        sim.schedule_at(float(i) * 0.2, lambda i=i: sender.send(f"m{i}"), "send")
    sim.run_until(60.0)
    assert [e.payload for e in released] == [f"m{i}" for i in range(8)]
    assert sender.unacked_count() == 0


def test_every_new_message_starts_at_base_timeout():
    """The attempt counter is per message: after one message escalated to
    the cap, the next one's first retransmission still waits only
    ``base_timeout`` (the property a stream-lifetime counter would lose)."""
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=1.0),
        fault_free_after_attempt=3,
        backoff=BackoffPolicy(base_timeout=1.0, multiplier=2.0, max_backoff=4.0),
    )
    sender.send("first")
    sim.run_until(20.0)  # checks at 1, 3, 7: the last two waits hit the cap
    assert sender.retransmits == 3 and len(released) == 1
    sender.send("second")  # t=20, attempt 0 drops
    sim.run_until(20.9)
    assert sender.retransmits == 3
    sim.run_until(21.0)  # base_timeout later, not max_backoff
    assert sender.retransmits == 4


def test_forget_all_cancels_the_wire_and_the_buffer():
    sim, channel, sender, inbox, released = env(
        faults=ChannelFaults(drop_rate=0.5), seed=3
    )
    for i in range(6):
        sender.send(i)
    assert sender.next_seq == 6
    sender.forget_all()
    assert channel.in_flight_count() == 0 and sender.unacked_count() == 0
    sim.run_until(60.0)
    assert released == [] and sender.retransmits == 0


def test_forget_oldest_leaves_a_gap_only_a_resync_can_fill():
    sim, channel, sender, inbox, released = env()
    assert sender.forget_oldest() == -1  # nothing sent yet
    sender.send("a")
    sender.send("b")
    assert sender.holds(0) and sender.holds(1)
    assert sender.forget_oldest() == 0  # the copy on the wire goes too
    assert not sender.holds(0) and sender.holds(1)
    assert channel.in_flight_count() == 1
    sim.run_until(30.0)
    # "b" arrived and waits behind "a", which nobody can send again.
    assert released == [] and inbox.pending_gap()
    assert inbox.next_seq == 0 < sender.next_seq and not sender.holds(inbox.next_seq)
