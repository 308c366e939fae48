"""FIFO channels with delay, connecting sources to the mediator.

Section 4 assumes "the messages transferred from one source database to the
mediator must be in order and every source database sends all the updates
that reflect the difference between two database states in a single
undividable message".  :class:`Channel` models exactly that: per-channel
FIFO delivery with a configurable delay; delivery times are forced to be
non-decreasing even if the delay parameter changes between sends.

:meth:`Channel.expedite` supports the poll exchange of Section 6.3: a poll
answer travels the same FIFO as announcements, so everything the source sent
before answering is delivered first.  ``expedite`` delivers all in-flight
messages immediately (allowed — configured delays are upper bounds) so the
mediator's update queue is complete before the answer is processed, which is
what the Eager Compensation Algorithm relies on.

A channel may carry a :class:`~repro.faults.FaultPlan` (or inherit one from
its simulator), consulted on **every transmission and every delivery**:
messages can then be dropped, duplicated, delayed, reordered (a delayed
message stops holding back later ones), or swallowed by a scheduled outage
window at either send or delivery time.  Lost messages stay visible as
in-transit records until their nominal delivery time — but they are
*marked dropped*, and both :meth:`in_flight_count` and :meth:`expedite`
exclude them: expediting during an active fault window must never deliver
a message the plan already condemned (regression-pinned in
``tests/sim/test_fault_channel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.events import Event
from repro.sim.scheduler import Simulator

__all__ = ["Channel"]


@dataclass
class _Transit:
    """One scheduled (or condemned) physical delivery."""

    event: Event
    message: Any
    send_time: float
    dropped: bool = False
    duplicate: bool = False


class Channel:
    """A FIFO, delayed, in-order message channel (optionally faulty)."""

    def __init__(
        self,
        simulator: Simulator,
        delay: float,
        deliver: Callable[[Any, float], None],
        name: str = "channel",
        plan=None,
        fault_key: Optional[str] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        """``deliver(message, send_time)`` is invoked at delivery time.

        ``plan`` is an optional :class:`~repro.faults.FaultPlan`; when
        omitted, the simulator's ``fault_plan`` (if any) applies.
        ``fault_key`` is the name the plan knows this channel by (defaults
        to the channel name).  ``tracer`` receives ``fault_drop`` /
        ``fault_duplicate`` / ``fault_outage`` events when the plan acts.
        """
        self.tracer = tracer
        self.simulator = simulator
        self.delay = delay
        self.deliver = deliver
        self.name = name
        self.plan = plan if plan is not None else simulator.fault_plan
        self.fault_key = fault_key if fault_key is not None else name
        self._last_delivery_time = float("-inf")
        self._in_flight: List[_Transit] = []
        self._transmissions = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Any, attempt: int = 0) -> None:
        """Send ``message``; it is delivered after ``delay`` (FIFO order).

        With a fault plan attached, the plan decides this transmission's
        fate; ``attempt`` is the retransmission attempt number (0 for the
        first send), which reliability layers pass so retries draw fresh
        fates and eventually get through.
        """
        send_time = self.simulator.now
        decision = None
        if self.plan is not None:
            decision = self.plan.decide(
                self.fault_key, self._transmissions, attempt, send_time
            )
        self._transmissions += 1
        self.messages_sent += 1
        self._dispatch(message, send_time, decision)
        if decision is not None and not decision.drop:
            for _ in range(decision.duplicates):
                self.messages_duplicated += 1
                if self.tracer.enabled:
                    self.tracer.event("fault_duplicate", channel=self.fault_key)
                self._dispatch(message, send_time, decision, duplicate=True)

    def _dispatch(self, message, send_time, decision, duplicate: bool = False) -> None:
        extra = decision.extra_delay if decision is not None else 0.0
        delivery_time = send_time + self.delay + extra
        reordered = decision is not None and decision.reorder
        if not reordered:
            # FIFO floor: this message neither arrives before an earlier
            # one nor (unless reordered) lets later ones overtake it.
            delivery_time = max(delivery_time, self._last_delivery_time)
            self._last_delivery_time = delivery_time

        record = _Transit(
            event=None,  # type: ignore[arg-type]  # set right below
            message=message,
            send_time=send_time,
            duplicate=duplicate,
        )

        def on_delivery() -> None:
            self._on_delivery(record)

        record.event = self.simulator.schedule_at(
            delivery_time, on_delivery, f"{self.name}: deliver message"
        )
        self._in_flight.append(record)

        if decision is not None and decision.drop:
            # Lost in transit: the record remains visible until its nominal
            # delivery time (so observers can see the loss window), but it
            # is condemned — nothing may ever deliver it, expedite included.
            record.dropped = True
            record.event.cancel()
            self.messages_dropped += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "fault_drop", channel=self.fault_key, duplicate=duplicate
                )
            self.simulator.schedule_at(
                delivery_time,
                lambda: self._remove(record),
                f"{self.name}: lose message",
            )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _on_delivery(self, record: _Transit) -> None:
        self._remove(record)
        if record.dropped:
            return
        if self.plan is not None and self.plan.in_outage(
            self.fault_key, self.simulator.now
        ):
            # The link is down at arrival time: the message is lost even
            # though it was healthy when sent.
            self.messages_dropped += 1
            if self.tracer.enabled:
                self.tracer.event("fault_outage", channel=self.fault_key, at="delivery")
            return
        self.messages_delivered += 1
        self.deliver(record.message, record.send_time)

    def _remove(self, record: _Transit) -> None:
        for i, candidate in enumerate(self._in_flight):
            if candidate is record:
                del self._in_flight[i]
                return

    def in_flight_count(self) -> int:
        """Number of sent-but-undelivered messages still eligible to arrive.

        Messages the fault plan already condemned are excluded — they can
        never be delivered, so counting them would make completeness checks
        (and poll-path expediting) wait on ghosts.
        """
        return sum(1 for record in self._in_flight if not record.dropped)

    def discard_in_flight(self, match: Optional[Callable[[Any], bool]] = None) -> None:
        """Cancel the scheduled delivery of every in-flight message (or of
        those ``match(message)`` selects).  For a channel whose far end is
        being replaced: nothing sent to the old end may reach the new one."""
        for record in list(self._in_flight):
            if match is None or match(record.message):
                record.event.cancel()
                self._remove(record)

    def expedite(self) -> int:
        """Deliver all deliverable in-flight messages right now, in FIFO
        send order.

        Returns the number of messages delivered.  Used when a poll answer
        must be ordered after all earlier announcements (Section 6.3).
        Messages the fault plan marked as dropped — including everything
        swallowed by an active outage window — are discarded, never
        delivered: expediting is an early arrival, not a resurrection.
        """
        pending = list(self._in_flight)
        self._in_flight.clear()
        outage = self.plan is not None and self.plan.in_outage(
            self.fault_key, self.simulator.now
        )
        delivered = 0
        for record in pending:
            record.event.cancel()
            if record.dropped:
                continue  # condemned at send time; drop already counted
            if outage:
                self.messages_dropped += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "fault_outage", channel=self.fault_key, at="expedite"
                    )
                continue
            self.messages_delivered += 1
            delivered += 1
            self.deliver(record.message, record.send_time)
        return delivered
