"""Simulated integration environments.

Wires sources, FIFO delay channels, and a Squirrel mediator into the
discrete-event simulator, reproducing the paper's environment model:

* a source commits transactions at scheduled times; each commit (re)arms an
  announcement timer, and after ``ann_delay`` the source's pending *net*
  update is sent as one indivisible message;
* messages travel a per-source FIFO channel with ``comm_delay``;
* the mediator flushes its update queue periodically (the ``u_hold_delay``
  policy) and runs an IUP transaction;
* queries arrive as scheduled events and run through the QP/VAP.

Polls issued by the VAP travel a :class:`ChannelLink`: the source first
sends any pending announcement, then the channel is expedited, so every
message the source produced before answering is in the mediator's queue
when the answer is used — the in-order assumption of Section 4 that the
Eager Compensation Algorithm relies on.

Passing a :class:`~repro.faults.FaultPlan` turns the perfect channels into
faulty ones (drop / duplicate / delay / reorder / outage windows) and
swaps every link for a :class:`ReliableChannelLink`: announcements then
travel in sequence-numbered envelopes through a sender-side retransmission
buffer (per-message timeout, exponential backoff) into a receiver-side
inbox that smashes duplicates idempotently and releases payloads strictly
in order.  On the poll path the link first expedites the channel and then
syncs every still-unacked envelope straight into the inbox, restoring the
flush-before-answer guarantee even across lost messages; polls against a
source inside an outage window raise
:class:`~repro.errors.SourceUnavailableError` instead of hanging.

A :class:`~repro.correctness.IntegrationTrace` records every source commit
and every observed view state, ready for the Section 3 checkers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core import SquirrelMediator
from repro.core.links import SourceLink
from repro.core.vdp import AnnotatedVDP
from repro.correctness import IntegrationTrace
from repro.deltas import SetDelta
from repro.errors import SimulationError, SourceUnavailableError
from repro.faults import BackoffPolicy, Envelope, FaultPlan, ReliableInbox, ReliableSender
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import Evaluator, Expression, Relation
from repro.sim import Channel, EnvironmentDelays, Simulator
from repro.sources.base import SourceDatabase

__all__ = ["ChannelLink", "ReliableChannelLink", "SimulatedEnvironment"]


class ChannelLink(SourceLink):
    """A source link that honors simulated channel ordering and delays."""

    def __init__(self, source: SourceDatabase, channel: Channel, announces: bool):
        super().__init__(source.name)
        self.source = source
        self.channel = channel
        self.announces = announces

    # ------------------------------------------------------------------
    # Availability and time (graceful-degradation hooks)
    # ------------------------------------------------------------------
    def now(self) -> Optional[float]:
        return self.channel.simulator.now

    def is_available(self) -> bool:
        plan = self.channel.plan
        if plan is None:
            return True
        return not plan.in_outage(self.channel.fault_key, self.channel.simulator.now)

    def outage_until(self) -> Optional[float]:
        plan = self.channel.plan
        if plan is None:
            return None
        window = plan.outage_at(self.channel.fault_key, self.channel.simulator.now)
        return window.end if window is not None else None

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def poll_many(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        self._require_available()
        self._flush_before_answer()
        return self._answer(queries)

    def _require_available(self) -> None:
        if not self.is_available():
            raise SourceUnavailableError(self.source_name, until=self.outage_until())

    def _flush_before_answer(self) -> None:
        # Flush-before-answer through the same FIFO the announcements use.
        announcement = self.source.take_announcement()
        if announcement is not None and self.announces:
            self.channel.send(announcement)
        self.channel.expedite()

    def _answer(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        snapshot = self.source.state()
        self.source.query_count += len(queries)
        self.poll_count += 1
        evaluator = Evaluator(snapshot)
        answers: Dict[str, Relation] = {}
        for name, expr in queries.items():
            answer = evaluator.evaluate(expr, name)
            self.polled_rows += answer.cardinality()
            answers[name] = answer
        return answers


class ReliableChannelLink(ChannelLink):
    """A channel link whose announcements survive a faulty channel.

    Outbound announcements go through a :class:`ReliableSender` (sequence
    numbers, retransmission with exponential backoff); the poll path, being
    a synchronous request/reply exchange, additionally syncs all unacked
    envelopes into the receiver's inbox so the mediator's queue is complete
    before a poll answer is used — the Section 4 in-order assumption,
    re-established over an unreliable link.
    """

    def __init__(
        self,
        source: SourceDatabase,
        channel: Channel,
        announces: bool,
        sender: ReliableSender,
        inbox: ReliableInbox,
    ):
        super().__init__(source, channel, announces)
        self.sender = sender
        self.inbox = inbox

    def poll_many(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        self._require_available()
        announcement = self.source.take_announcement()
        if announcement is not None and self.announces:
            self.sender.send(announcement)
        # Early-arrive whatever is still in flight, then recover anything
        # the channel lost: after the sync, the inbox has released every
        # announcement the source ever produced, gap-free and in order.
        self.channel.expedite()
        if self.announces:
            self.sender.sync_into_inbox()
        return self._answer(queries)


class SimulatedEnvironment:
    """A complete simulated integration environment."""

    def __init__(
        self,
        annotated: AnnotatedVDP,
        sources: Mapping[str, SourceDatabase],
        delays: EnvironmentDelays,
        flush_period: Optional[float] = None,
        eca_enabled: bool = True,
        key_based_enabled: bool = True,
        record_updates: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        backoff: Optional[BackoffPolicy] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        """``flush_period`` defaults to ``delays.u_hold_delay_med`` (the
        worst-case queue-holding time *is* the flush period under a periodic
        policy); it must be positive.  ``fault_plan`` (keyed by source name)
        makes every channel faulty and every link reliability-aware;
        ``backoff`` tunes the retransmission policy (defaults to a base
        timeout of one flush period, doubling, capped at 8 periods).
        ``tracer`` is threaded through the channels, the reliability layer,
        and the mediator; an enabled tracer is re-clocked onto the
        simulated clock, so identical runs yield byte-identical traces."""
        self.sim = Simulator(fault_plan=fault_plan)
        self.tracer = tracer
        if tracer.enabled:
            tracer.clock = lambda: self.sim.now
        self.delays = delays
        self.sources = dict(sources)
        self.record_updates = record_updates
        self.fault_plan = fault_plan
        self.flush_period = flush_period if flush_period is not None else delays.u_hold_delay_med
        if self.flush_period <= 0:
            raise SimulationError("flush_period must be positive")
        if backoff is None:
            backoff = BackoffPolicy(
                base_timeout=self.flush_period,
                multiplier=2.0,
                max_backoff=8 * self.flush_period,
            )
        self.backoff = backoff

        self.trace = IntegrationTrace(sorted(self.sources))
        self._channels: Dict[str, Channel] = {}
        self._senders: Dict[str, ReliableSender] = {}
        self._inboxes: Dict[str, ReliableInbox] = {}
        self._announce_armed: Dict[str, bool] = {name: False for name in self.sources}

        kinds = annotated.contributor_kinds()
        links: Dict[str, SourceLink] = {}
        for name in sorted(self.sources):
            source = self.sources[name]
            profile = delays.profile(name)
            announces = bool(name in kinds and kinds[name].announces)
            if fault_plan is None:
                channel = Channel(
                    self.sim,
                    profile.comm_delay,
                    deliver=self._make_deliver(name),
                    name=f"{name}->mediator",
                    tracer=tracer,
                )
                links[name] = ChannelLink(source, channel, announces)
            else:
                inbox = ReliableInbox(
                    self._make_sink(name),
                    name=f"{name}->mediator inbox",
                    tracer=tracer,
                )
                channel = Channel(
                    self.sim,
                    profile.comm_delay,
                    deliver=lambda env, st, _inbox=inbox: _inbox.deliver(env),
                    name=f"{name}->mediator",
                    plan=fault_plan,
                    fault_key=name,
                    tracer=tracer,
                )
                sender = ReliableSender(
                    channel, inbox, self.sim, self.backoff, tracer=tracer
                )
                self._inboxes[name] = inbox
                self._senders[name] = sender
                links[name] = ReliableChannelLink(source, channel, announces, sender, inbox)
            self._channels[name] = channel
            source.on_commit(self._make_commit_hook(name, profile.ann_delay, announces))

        # Simulated-channel links leave supports_parallel_poll False (the
        # event clock is single-threaded), so the VAP picks its serial poll
        # loop.
        self.mediator = SquirrelMediator(
            annotated,
            self.sources,
            links=links,
            eca_enabled=eca_enabled,
            key_based_enabled=key_based_enabled,
            tracer=tracer,
        )
        self.mediator.initialize()

        # t_view_init: record initial source states and the initial view.
        for name, source in self.sources.items():
            self.trace.record_source_state(name, self.sim.now, source.state())
        self._record_view("init")

        self.sim.every(
            self.flush_period,
            self._update_transaction,
            description="mediator queue flush",
        )

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def _make_deliver(self, source_name: str) -> Callable:
        def deliver(message: SetDelta, send_time: float) -> None:
            self.mediator.enqueue_update(
                source_name, message, send_time=send_time, arrival_time=self.sim.now
            )

        return deliver

    def _make_sink(self, source_name: str) -> Callable[[Envelope], None]:
        """The reliable inbox's in-order release target: the update queue."""

        def sink(envelope: Envelope) -> None:
            self.mediator.enqueue_update(
                source_name,
                envelope.payload,
                send_time=envelope.send_time,
                arrival_time=self.sim.now,
                seq=envelope.seq,
            )

        return sink

    def _make_commit_hook(self, name: str, ann_delay: float, announces: bool) -> Callable:
        def hook(source: SourceDatabase, delta: SetDelta) -> None:
            self.trace.record_source_state(name, self.sim.now, source.state())
            if not announces or self._announce_armed[name]:
                return
            self._announce_armed[name] = True
            self.sim.schedule(
                ann_delay, lambda: self._announce(name), f"{name}: announce updates"
            )

        return hook

    def _announce(self, name: str) -> None:
        self._announce_armed[name] = False
        announcement = self.sources[name].take_announcement()
        if announcement is None:
            return
        sender = self._senders.get(name)
        if sender is not None:
            sender.send(announcement)
        else:
            self._channels[name].send(announcement)

    def _update_transaction(self) -> None:
        result = self.mediator.run_update_transaction()
        if self.record_updates and not result.was_empty:
            self._record_view("update")

    def _record_view(self, kind: str) -> None:
        state = {
            export: self.mediator.query_relation(export)
            for export in self.mediator.vdp.exports
        }
        self.trace.record_view_state(self.sim.now, kind, state)

    # ------------------------------------------------------------------
    # Fault-tolerance introspection
    # ------------------------------------------------------------------
    def fault_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-source transport counters (what the faults did, what the
        reliability layer repaired)."""
        stats: Dict[str, Dict[str, int]] = {}
        for name, channel in self._channels.items():
            entry = {
                "sent": channel.messages_sent,
                "delivered": channel.messages_delivered,
                "dropped": channel.messages_dropped,
                "duplicated": channel.messages_duplicated,
            }
            sender = self._senders.get(name)
            if sender is not None:
                entry["retransmits"] = sender.retransmits
                entry["unacked"] = sender.unacked_count()
                entry["abandoned"] = sender.abandoned
            inbox = self._inboxes.get(name)
            if inbox is not None:
                entry["dedup_dropped"] = inbox.duplicates_dropped
                entry["gaps_detected"] = inbox.gaps_detected
                entry["released_in_order"] = inbox.delivered
            stats[name] = entry
        return stats

    def drained(self) -> bool:
        """True when no announcement is in flight, buffered, or unacked —
        the quiescence precondition of convergence checks."""
        for name, channel in self._channels.items():
            if channel.in_flight_count() > 0:
                return False
            inbox = self._inboxes.get(name)
            if inbox is not None and inbox.pending_gap():
                return False
            sender = self._senders.get(name)
            if sender is not None and sender.unacked_count() > 0:
                return False
            if self.sources[name].has_pending_announcement() and self._announce_armed.get(name):
                return False
        return True

    # ------------------------------------------------------------------
    # Driving the environment
    # ------------------------------------------------------------------
    def schedule_transaction(self, time: float, source: str, delta: SetDelta) -> None:
        """Commit ``delta`` at ``source`` at simulated time ``time``."""
        if source not in self.sources:
            raise SimulationError(f"unknown source {source!r}")
        self.sim.schedule_at(
            time,
            lambda: self.sources[source].execute(delta),
            f"{source}: commit transaction",
        )

    def schedule_action(self, time: float, action: Callable[[], None], description: str = "") -> None:
        """Schedule an arbitrary callable (e.g. a workload step)."""
        self.sim.schedule_at(time, action, description)

    def schedule_query(self, time: float, record: bool = True) -> None:
        """Observe the view's exports at ``time`` (a query transaction)."""

        def run() -> None:
            if record:
                self._record_view("query")
            else:  # observation without recording (warm-up, debugging)
                for export in self.mediator.vdp.exports:
                    self.mediator.query_relation(export)

        self.sim.schedule_at(time, run, "query transaction")

    def attach_update_stream(
        self,
        stream,
        rate: float,
        until: float,
        rng_seed: int = 0,
        start: float = 0.0,
    ) -> int:
        """Drive an :class:`~repro.workloads.UpdateStream` at a Poisson rate.

        Schedules stream steps with exponential inter-arrival times of mean
        ``1/rate`` from ``start`` up to ``until``; returns the number of
        scheduled transactions.  (Times are pre-drawn so the simulation
        remains fully deterministic.)
        """
        import random as _random

        if rate <= 0:
            raise SimulationError("update rate must be positive")
        rng = _random.Random(rng_seed)
        t = start
        scheduled = 0
        while True:
            t += rng.expovariate(rate)
            if t >= until:
                return scheduled
            self.sim.schedule_at(t, stream.step, "workload transaction")
            scheduled += 1

    def attach_query_load(
        self,
        rate: float,
        until: float,
        rng_seed: int = 1,
        start: float = 0.0,
        record: bool = True,
    ) -> int:
        """Schedule Poisson-arriving query transactions; returns the count."""
        import random as _random

        if rate <= 0:
            raise SimulationError("query rate must be positive")
        rng = _random.Random(rng_seed)
        t = start
        scheduled = 0
        while True:
            t += rng.expovariate(rate)
            if t >= until:
                return scheduled
            self.schedule_query(t, record=record)
            scheduled += 1

    def run_until(self, end_time: float) -> int:
        """Advance the simulation to ``end_time``."""
        return self.sim.run_until(end_time)
