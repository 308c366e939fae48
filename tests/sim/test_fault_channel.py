"""Faulty-channel semantics, including the expedite/drop regression.

``Channel.expedite`` is an *early arrival* of in-flight messages (delays
are upper bounds), used on the poll path so a poll answer is ordered after
all earlier announcements.  It must never become a *resurrection*: a
message the fault plan condemned — dropped at send time, or swallowed by
an active outage window — stays lost even when the channel is expedited
mid-flight, and :meth:`in_flight_count` must not count such ghosts.
"""

from repro.faults import ChannelFaults, FaultPlan, OutageWindow
from repro.sim import Channel, Simulator


def make_channel(faults, seed=0, delay=1.0, **plan_kwargs):
    plan = FaultPlan(seed=seed, channels={"ch": faults}, **plan_kwargs)
    sim = Simulator()
    received = []
    channel = Channel(
        sim, delay, deliver=lambda m, st: received.append((m, st)), name="ch", plan=plan
    )
    return sim, channel, received


def test_expedite_must_not_deliver_a_plan_dropped_message():
    """The regression: a dropped message stays visible as an in-transit
    record until its nominal delivery time; expediting during that window
    used to hand it to the mediator anyway."""
    sim, channel, received = make_channel(ChannelFaults(drop_rate=1.0))
    channel.send("condemned")
    assert channel.messages_dropped == 1
    # The loss record exists, but it is not an eligible in-flight message.
    assert channel._in_flight and channel.in_flight_count() == 0
    assert channel.expedite() == 0
    assert received == []
    sim.run_until(5.0)
    assert received == []
    assert channel.messages_delivered == 0


def test_expedite_delivers_survivors_in_fifo_send_order():
    # drop_rate=1 until attempt 1: send healthy copies via attempt=1.
    sim, channel, received = make_channel(
        ChannelFaults(drop_rate=1.0), fault_free_after_attempt=1
    )
    channel.send("lost", attempt=0)
    channel.send("a", attempt=1)
    channel.send("b", attempt=1)
    assert channel.in_flight_count() == 2
    assert channel.expedite() == 2
    assert [m for m, _ in received] == ["a", "b"]
    assert channel.messages_dropped == 1
    # Nothing arrives later: the loss record was discarded, not revived.
    sim.run_until(10.0)
    assert [m for m, _ in received] == ["a", "b"]


def test_expedite_during_outage_loses_in_flight_messages():
    """A crashed link swallows what is on the wire: expediting while the
    outage window is open counts the in-flight messages as dropped."""
    sim, channel, received = make_channel(
        ChannelFaults(outages=(OutageWindow(0.5, 2.0),)), delay=1.0
    )
    channel.send("doomed")  # sent healthy at t=0, would arrive at t=1.0
    sim.run_until(0.6)  # now inside the outage
    assert channel.in_flight_count() == 1
    assert channel.expedite() == 0
    assert received == []
    assert channel.messages_dropped == 1
    assert channel.in_flight_count() == 0


def test_delivery_time_outage_swallows_healthy_send():
    sim, channel, received = make_channel(
        ChannelFaults(outages=(OutageWindow(0.5, 2.0),)), delay=1.0
    )
    channel.send("doomed")  # healthy at send, arrival t=1.0 is in-window
    sim.run_until(5.0)
    assert received == []
    assert channel.messages_dropped == 1
    assert channel.messages_delivered == 0


def test_in_flight_count_mixes_dropped_and_live_records():
    sim, channel, received = make_channel(
        ChannelFaults(drop_rate=1.0), fault_free_after_attempt=1
    )
    channel.send("lost", attempt=0)
    channel.send("live", attempt=1)
    assert len(channel._in_flight) == 2
    assert channel.in_flight_count() == 1
    sim.run_until(5.0)
    assert [m for m, _ in received] == ["live"]
    assert channel._in_flight == []


def test_reordered_message_can_be_overtaken():
    """A reorder-marked message escapes the FIFO floor: a later send with
    no extra delay arrives first."""
    faults = ChannelFaults(reorder_rate=1.0, delay_range=(5.0, 5.0))
    sim, channel, received = make_channel(faults, fault_free_after_attempt=1)
    channel.send("slow", attempt=0)   # reordered: +5.0 extra delay
    channel.send("fast", attempt=1)   # clean: normal delay
    sim.run_until(20.0)
    assert [m for m, _ in received] == ["fast", "slow"]


def test_fifo_floor_still_holds_without_reorder():
    """Plain extra delay (no reorder) must delay *subsequent* messages too:
    FIFO order is preserved even though one message got slower."""
    faults = ChannelFaults(delay_rate=1.0, delay_range=(3.0, 3.0))
    sim, channel, received = make_channel(faults, fault_free_after_attempt=1)
    channel.send("first", attempt=0)  # +3.0 extra delay, arrives t=4.0
    channel.send("second", attempt=1)  # nominal t=1.0, floored to 4.0
    sim.run_until(20.0)
    assert [m for m, _ in received] == ["first", "second"]
    assert [st for _, st in received] == [0.0, 0.0]


def test_duplicates_are_extra_physical_deliveries():
    sim, channel, received = make_channel(
        ChannelFaults(duplicate_rate=1.0, max_duplicates=2), seed=3
    )
    channel.send("m")
    sim.run_until(10.0)
    assert all(m == "m" for m, _ in received)
    assert len(received) == 1 + channel.messages_duplicated
    assert channel.messages_duplicated >= 1


def test_channel_without_plan_is_unaffected():
    sim = Simulator()
    received = []
    channel = Channel(sim, 1.0, deliver=lambda m, st: received.append(m), name="ch")
    assert channel.plan is None
    for i in range(3):
        channel.send(i)
    assert channel.in_flight_count() == 3
    assert channel.expedite() == 3
    assert received == [0, 1, 2]


def test_simulator_fault_plan_is_inherited_by_channels():
    plan = FaultPlan(seed=0, channels={"ch": ChannelFaults(drop_rate=1.0)})
    sim = Simulator(fault_plan=plan)
    received = []
    channel = Channel(sim, 1.0, deliver=lambda m, st: received.append(m), name="ch")
    assert channel.plan is plan
    channel.send("m")
    sim.run_until(5.0)
    assert received == []
    assert channel.messages_dropped == 1


def test_discard_in_flight_cancels_deliveries_without_delivering():
    sim = Simulator()
    received = []
    channel = Channel(sim, 1.0, deliver=lambda m, st: received.append(m), name="ch")
    for message in ("a", "b", "c"):
        channel.send(message)
    channel.discard_in_flight(lambda message: message == "b")
    assert channel.in_flight_count() == 2
    sim.run_until(2.0)
    assert received == ["a", "c"]
    channel.send("d")
    channel.send("e")
    channel.discard_in_flight()
    assert channel.in_flight_count() == 0
    sim.run_until(10.0)
    assert received == ["a", "c"] and channel.messages_delivered == 2
