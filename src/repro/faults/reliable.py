"""Reliable delivery over faulty channels: sequencing, dedup, retransmit.

Section 4's correctness argument leans on in-order, exactly-once
announcement delivery.  When a :class:`~repro.faults.FaultPlan` breaks that
(drops, duplicates, reorders), this layer restores the contract end to end:

* the **sender** (:class:`ReliableSender`) wraps every announcement in an
  :class:`Envelope` carrying a per-source sequence number, keeps unacked
  envelopes in a retransmission buffer, and retries each one on a
  per-message timeout with exponential backoff (:class:`BackoffPolicy`);
* the **receiver** (:class:`ReliableInbox`) smashes duplicates
  idempotently by sequence number, detects gaps, buffers out-of-order
  arrivals, and releases payloads to its sink strictly in order.

The acknowledgement path is modeled as a reliable (but lazy) back-channel:
the sender observes the inbox's contiguous high-water mark at each timeout
check, which is exactly what a cumulative-ACK protocol conveys.  All
timing flows through the discrete-event simulator — nothing here reads
wall-clock time, so chaos runs remain fully deterministic and replayable.

``ReliableSender.sync_into_inbox`` is the poll-path escape hatch: a poll is
a synchronous request/reply exchange, so before a poll answer is used the
sender hands every still-unacked envelope straight to the inbox.  That
restores the flush-before-answer guarantee the Eager Compensation
Algorithm requires even when announcements were lost in transit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Envelope",
    "BackoffPolicy",
    "ReliableInbox",
    "ReliableSender",
]


@dataclass(frozen=True)
class Envelope:
    """One sequenced announcement in transit."""

    seq: int
    payload: Any
    send_time: float


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry timing: ``base_timeout * multiplier^attempt``, capped.

    ``max_retries`` of ``None`` means retry until acknowledged (the fault
    plan's ``fault_free_after_attempt`` guarantees termination); a finite
    value abandons the message afterwards (counted, never silent).

    ``jitter="decorrelated"`` switches to decorrelated jitter: each delay
    is drawn uniformly from ``[base_timeout, previous * 3]`` and capped,
    which desynchronizes retry storms across senders that failed at the
    same instant.  The draw is a pure function of ``(jitter_seed, key,
    attempt)`` — same inputs, same delay — so chaos runs stay exactly
    replayable; pass a distinct ``key`` per message stream to decorrelate
    streams from each other.
    """

    base_timeout: float = 1.0
    multiplier: float = 2.0
    max_backoff: float = 30.0
    max_retries: Optional[int] = None
    jitter: str = "none"
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.base_timeout <= 0:
            raise SimulationError("base_timeout must be positive")
        if self.multiplier < 1.0:
            raise SimulationError("multiplier must be >= 1")
        if self.max_backoff < self.base_timeout:
            raise SimulationError("max_backoff must be >= base_timeout")
        if self.jitter not in ("none", "decorrelated"):
            raise SimulationError("jitter must be 'none' or 'decorrelated'")

    def delay(self, attempt: int, key: str = "") -> float:
        """The wait before the ``attempt``-th timeout check (0-based)."""
        if self.jitter == "none":
            return min(
                self.base_timeout * (self.multiplier ** attempt), self.max_backoff
            )
        # Decorrelated jitter, replayed deterministically: rebuild the
        # chain d0 = base, d_n = min(cap, U(base, 3 * d_{n-1})) with each
        # step's uniform draw seeded from (seed, key, step).
        delay = self.base_timeout
        for step in range(1, attempt + 1):
            rng = random.Random(self._draw_seed(key, step))
            delay = min(
                self.max_backoff, rng.uniform(self.base_timeout, delay * 3.0)
            )
        return min(delay, self.max_backoff)

    def _draw_seed(self, key: str, step: int) -> int:
        material = f"{self.jitter_seed}:{key}:{step}".encode()
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


class ReliableInbox:
    """Receiver-side sequencing: dedup, gap detection, in-order release."""

    def __init__(
        self,
        sink: Callable[[Envelope], None],
        name: str = "inbox",
        tracer: Tracer = NULL_TRACER,
    ):
        """``sink(envelope)`` is invoked exactly once per sequence number,
        in strictly increasing order."""
        self.tracer = tracer
        self.sink = sink
        self.name = name
        self.next_seq = 0
        self._buffer: Dict[int, Envelope] = {}
        self.delivered = 0
        self.duplicates_dropped = 0
        self.gaps_detected = 0

    @property
    def delivered_through(self) -> int:
        """Highest sequence number released in order (-1 when none yet)."""
        return self.next_seq - 1

    def pending_gap(self) -> bool:
        """True while buffered envelopes wait on a missing predecessor."""
        return bool(self._buffer)

    def missing(self) -> List[int]:
        """Sequence numbers known to be missing (gap detection)."""
        if not self._buffer:
            return []
        horizon = max(self._buffer)
        return [s for s in range(self.next_seq, horizon) if s not in self._buffer]

    def deliver(self, envelope: Envelope) -> int:
        """Accept one arrival; returns how many payloads were released.

        Duplicates (already released or already buffered) are smashed —
        dropped idempotently — and out-of-order arrivals are buffered until
        the gap fills.
        """
        seq = envelope.seq
        if seq < self.next_seq or seq in self._buffer:
            self.duplicates_dropped += 1
            if self.tracer.enabled:
                self.tracer.event("fault_dedup", inbox=self.name, seq=seq)
            return 0
        if seq > self.next_seq:
            self._buffer[seq] = envelope
            self.gaps_detected += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "fault_gap", inbox=self.name, seq=seq, expected=self.next_seq
                )
            return 0
        released = 0
        self._release(envelope)
        released += 1
        while self.next_seq in self._buffer:
            self._release(self._buffer.pop(self.next_seq))
            released += 1
        return released

    def _release(self, envelope: Envelope) -> None:
        self.next_seq = envelope.seq + 1
        self.delivered += 1
        self.sink(envelope)


class ReliableSender:
    """Sender-side retransmission with per-message timeout and backoff.

    ``channel`` must expose ``send(message, attempt=...)`` (the simulated
    faulty channel); ``simulator`` supplies timers; ``inbox`` is the peer
    whose cumulative-ACK high-water mark the timeout checks consult.
    """

    def __init__(
        self,
        channel,
        inbox: ReliableInbox,
        simulator,
        policy: BackoffPolicy,
        tracer: Tracer = NULL_TRACER,
    ):
        self.tracer = tracer
        self.channel = channel
        self.inbox = inbox
        self.simulator = simulator
        self.policy = policy
        #: The sequence number the next :meth:`send` will use.
        self.next_seq = 0
        self._unacked: Dict[int, Envelope] = {}
        self.sent = 0
        self.retransmits = 0
        self.abandoned = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any) -> Envelope:
        """Transmit one payload reliably; returns its envelope."""
        envelope = Envelope(self.next_seq, payload, self.simulator.now)
        self.next_seq += 1
        self._unacked[envelope.seq] = envelope
        self.sent += 1
        self.channel.send(envelope, attempt=0)
        self._schedule_check(envelope.seq, attempt=0)
        return envelope

    def _schedule_check(self, seq: int, attempt: int) -> None:
        self.simulator.schedule(
            self.policy.delay(attempt, key=f"{self.inbox.name}#{seq}"),
            lambda: self._check(seq, attempt),
            f"{self.inbox.name}: ack check #{seq} (attempt {attempt})",
        )

    def _check(self, seq: int, attempt: int) -> None:
        if seq not in self._unacked:
            return  # already resolved (acked via sync, or abandoned)
        if self.inbox.delivered_through >= seq:
            del self._unacked[seq]
            return  # cumulative ACK covers it
        if self.policy.max_retries is not None and attempt >= self.policy.max_retries:
            del self._unacked[seq]
            self.abandoned += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "fault_abandoned", inbox=self.inbox.name, seq=seq, attempts=attempt
                )
            return
        self.retransmits += 1
        if self.tracer.enabled:
            self.tracer.event(
                "fault_retransmit", inbox=self.inbox.name, seq=seq, attempt=attempt + 1
            )
        self.channel.send(self._unacked[seq], attempt=attempt + 1)
        self._schedule_check(seq, attempt + 1)

    # ------------------------------------------------------------------
    # Introspection and the synchronous poll path
    # ------------------------------------------------------------------
    def unacked_count(self) -> int:
        """Envelopes not yet covered by the cumulative ACK."""
        self._prune()
        return len(self._unacked)

    def _prune(self) -> None:
        acked = [s for s in self._unacked if s <= self.inbox.delivered_through]
        for seq in acked:
            del self._unacked[seq]

    def holds(self, seq: int) -> bool:
        """True while ``seq`` is still in the retransmission buffer."""
        return seq in self._unacked

    def forget_all(self) -> None:
        """Abandon everything sent so far: what is still on the wire is
        cancelled and nothing is retried, so the inbox hears no more."""
        self.channel.discard_in_flight()
        self._unacked.clear()

    def forget_oldest(self) -> int:
        """Lose the oldest unacked envelope, copies on the wire included
        (sender-side buffer loss).

        Returns its sequence number, or -1 when everything is acked.
        """
        self._prune()
        if not self._unacked:
            return -1
        seq = min(self._unacked)
        del self._unacked[seq]
        self.channel.discard_in_flight(lambda envelope: envelope.seq == seq)
        return seq

    def sync_into_inbox(self) -> int:
        """Hand every unacked envelope directly to the inbox (poll path).

        A poll is a synchronous request/reply exchange with the source, so
        the mediator may recover outstanding announcements through it —
        this fills any gaps the faulty channel left, guaranteeing the
        update queue is complete before a poll answer is used.  Returns the
        number of payloads the inbox released.
        """
        self._prune()
        released = 0
        for seq in sorted(self._unacked):
            released += self.inbox.deliver(self._unacked[seq])
        self._prune()
        return released
