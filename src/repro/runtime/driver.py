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

from typing import Callable, Dict, Mapping, Optional, Tuple

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
        return self.outage_until() is None

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
        if not self.is_available():
            raise SourceUnavailableError(self.source_name, until=self.outage_until())
        self.flush_before_answer()
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

    # ------------------------------------------------------------------
    # Announcing
    # ------------------------------------------------------------------
    def announce(self) -> None:
        """Send the source's pending net update as one indivisible message.

        The payload is ``(delta, cursor)``: the source-log cursor rides
        along so the write-ahead log can record how far into the source's
        log each committed transaction reaches.  A non-announcing
        (virtual-contributor) source's pending update is discarded.
        """
        delta, cursor = self.source.take_announcement_versioned()
        if delta is not None and self.announces:
            self._send((delta, cursor))

    def _send(self, payload) -> None:
        self.channel.send(payload)

    def flush_before_answer(self) -> None:
        """Deliver everything the source has produced so far, through the
        same FIFO the announcements use."""
        self.announce()
        self.channel.expedite()


class ReliableChannelLink(ChannelLink):
    """A channel link whose announcements survive a faulty channel.

    Outbound announcements go through a :class:`ReliableSender` (sequence
    numbers, retransmission with exponential backoff); the poll path, being
    a synchronous request/reply exchange, additionally syncs all unacked
    envelopes into the receiver's inbox so the mediator's queue is complete
    before a poll answer is used — the Section 4 in-order assumption,
    re-established over an unreliable link.

    This constructor is the one place announcements get their reliable
    transport: a :class:`~repro.sim.Channel` under fault key ``source.name``
    (the simulator's plan decides each transmission's fate) carries the
    sender's envelopes into a :class:`ReliableInbox`, whose in-order
    release calls ``enqueue(source_name, delta, send_time=, arrival_time=,
    seq=, cursor=)`` — :meth:`SquirrelMediator.enqueue_update`'s signature.
    """

    def __init__(
        self,
        sim: Simulator,
        source: SourceDatabase,
        announces: bool,
        enqueue: Callable[..., object],
        policy: BackoffPolicy,
        delay: float = 0.0,
        tracer: Tracer = NULL_TRACER,
    ):
        name = source.name

        def sink(envelope: Envelope) -> None:
            delta, cursor = envelope.payload
            enqueue(
                name,
                delta,
                send_time=envelope.send_time,
                arrival_time=sim.now,
                seq=envelope.seq,
                cursor=cursor,
            )

        self.inbox = ReliableInbox(sink, name=f"{name}->mediator inbox", tracer=tracer)
        channel = Channel(
            sim,
            delay,
            deliver=lambda envelope, send_time: self.inbox.deliver(envelope),
            name=f"{name}->mediator",
            fault_key=name,
            tracer=tracer,
        )
        super().__init__(source, channel, announces)
        self.sender = ReliableSender(channel, self.inbox, sim, policy, tracer=tracer)

    def _send(self, payload) -> None:
        self.sender.send(payload)

    def flush_before_answer(self) -> None:
        # Early-arrive whatever is still in flight, then recover anything
        # the channel lost: after the sync, the inbox has released every
        # announcement the source ever produced, gap-free and in order.
        super().flush_before_answer()
        self.sender.sync_into_inbox()


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
        self.links: Dict[str, ChannelLink] = {}
        self._announce_armed: Dict[str, bool] = {name: False for name in self.sources}

        kinds = annotated.contributor_kinds()
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
                self.links[name] = ChannelLink(source, channel, announces)
            else:
                self.links[name] = ReliableChannelLink(
                    self.sim,
                    source,
                    announces,
                    self._enqueue,
                    self.backoff,
                    delay=profile.comm_delay,
                    tracer=tracer,
                )
            source.on_commit(self._make_commit_hook(name, profile.ann_delay, announces))

        # Simulated-channel links leave supports_parallel_poll False (the
        # event clock is single-threaded), so the VAP picks its serial poll
        # loop.
        self.mediator = SquirrelMediator(
            annotated,
            self.sources,
            links=self.links,
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
    def _enqueue(self, source_name: str, delta: SetDelta, **meta) -> None:
        # Late-bound: the links are wired before the mediator exists.
        self.mediator.enqueue_update(source_name, delta, **meta)

    def _make_deliver(self, source_name: str) -> Callable:
        def deliver(message: Tuple[SetDelta, int], send_time: float) -> None:
            delta, cursor = message
            self._enqueue(
                source_name,
                delta,
                send_time=send_time,
                arrival_time=self.sim.now,
                cursor=cursor,
            )

        return deliver

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
        self.links[name].announce()

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
        for name, link in self.links.items():
            channel = link.channel
            entry = {
                "sent": channel.messages_sent,
                "delivered": channel.messages_delivered,
                "dropped": channel.messages_dropped,
                "duplicated": channel.messages_duplicated,
            }
            if isinstance(link, ReliableChannelLink):
                entry["retransmits"] = link.sender.retransmits
                entry["unacked"] = link.sender.unacked_count()
                entry["abandoned"] = link.sender.abandoned
                entry["dedup_dropped"] = link.inbox.duplicates_dropped
                entry["gaps_detected"] = link.inbox.gaps_detected
                entry["released_in_order"] = link.inbox.delivered
            stats[name] = entry
        return stats

    def drained(self) -> bool:
        """True when no announcement is in flight, buffered, or unacked —
        the quiescence precondition of convergence checks."""
        for name, link in self.links.items():
            if link.channel.in_flight_count() > 0:
                return False
            if isinstance(link, ReliableChannelLink) and (
                link.inbox.pending_gap() or link.sender.unacked_count() > 0
            ):
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
