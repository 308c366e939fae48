"""The primary side of WAL shipping: stream, retransmit, heal, heartbeat.

A :class:`WalShipper` taps the primary's
:class:`~repro.durability.DurabilityManager` observer hook — it sees each
:class:`~repro.durability.WalRecord` only *after* it is durable, so a
shipped record is by construction an acknowledged transaction — and
streams the records to each attached :class:`ReplicaMediator` over the
same transport source announcements use:

* each replica's stream is a :class:`~repro.sim.Channel` named
  ``ship:<replica>``, so the simulator's :class:`~repro.faults.FaultPlan`
  applies drops, duplicates, delays, reorders, and outage windows to it;
* a :class:`~repro.faults.ReliableSender` retransmits each record on its
  own timeout (every new record starts at ``base_timeout``, so a replica
  that recovers from a long outage is not pinned at max backoff) and a
  :class:`~repro.faults.ReliableInbox` releases records to the replica in
  order and exactly once, buffering past gaps;
* a gap no retransmission can fill (sender buffer loss, retry budget
  exhausted) marks the replica for **checkpoint-based resync**: the
  replica reloads the primary's newest checkpoint chain and the shipper
  re-ships the live WAL tail past it over a fresh stream — the same heal
  path as bootstrap.

Each shipped record travels with the committing transaction's exact
per-node repository writes (the durability manager's
``last_node_applies``), because replicas replay stored state *physically*
— they must never re-run propagation, which may poll a source (see
:mod:`repro.replication.replica`).  The shipper caches those writes per
transaction for as long as the record stays in the live WAL; a resync
that needs a tail record whose writes predate this shipper (it attached
later) simply forces a full checkpoint first, absorbing the tail.

Time is the :class:`~repro.sim.Simulator`'s: :meth:`WalShipper.tick`
advances it (whatever falls due is delivered or retransmitted), then heals
and heartbeats.  Heartbeats (carrying the primary's committed transaction
index) ride the tick directly rather than the faulted channel — the
failover detector cares about *shipper* liveness, and a dead primary
stops ticking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.durability.manager import DurabilityManager
from repro.durability.wal import WalRecord
from repro.faults.reliable import BackoffPolicy, Envelope, ReliableInbox, ReliableSender
from repro.obs.tracer import NULL_TRACER
from repro.sim.network import Channel
from repro.sim.scheduler import Simulator

from repro.replication.replica import ReplicaMediator

__all__ = ["WalShipper", "ShippedRecord"]


@dataclass
class ShippedRecord:
    """One WAL record plus its transaction's physical repository writes."""

    record: WalRecord
    node_applies: Tuple = ()


@dataclass
class _ReplicaStream:
    """One replica's ordered record stream: channel + sender + inbox."""

    replica: ReplicaMediator
    channel: Channel
    sender: ReliableSender
    inbox: ReliableInbox

    def permanent_gap(self) -> bool:
        """True when the inbox needs a seq no retransmission can still fill
        (retry budget exhausted, or sender-side buffer loss)."""
        needed = self.inbox.next_seq
        return needed < self.sender.next_seq and not self.sender.holds(needed)


class WalShipper:
    """Streams the primary's committed WAL records to its read replicas."""

    def __init__(
        self,
        manager: DurabilityManager,
        simulator: Optional[Simulator] = None,
        policy: Optional[BackoffPolicy] = None,
        tracer=NULL_TRACER,
    ):
        """``simulator`` is the clock the streams run on, and its
        ``fault_plan`` governs the ``ship:<replica>`` channels; a caller
        with other traffic passes its own (default: private, fault-free)."""
        self.manager = manager
        self.mediator = manager.mediator
        self.sim = simulator if simulator is not None else Simulator()
        self.policy = policy or BackoffPolicy()
        self.tracer = tracer
        self.streams: Dict[str, _ReplicaStream] = {}
        #: Per live-WAL transaction: its physical repository writes,
        #: snapshotted from the manager at observation time (pruned as
        #: checkpoints compact the WAL).
        self._applies: Dict[int, Tuple] = {}
        self._observer: Callable[[WalRecord], None] = self._on_record
        manager.observers.append(self._observer)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach_replica(self, replica: ReplicaMediator) -> None:
        """Register a replica and bootstrap it (checkpoint + WAL tail)."""
        if replica.name in self.streams:
            raise ValueError(f"replica {replica.name!r} already attached")
        self._bootstrap(replica)

    def detach_replica(self, name: str) -> None:
        """Drop a replica's stream (the replica object is untouched)."""
        stream = self.streams.pop(name, None)
        if stream is not None:
            stream.sender.forget_all()

    @property
    def replicas(self) -> List[ReplicaMediator]:
        """The attached replicas, in name order."""
        return [self.streams[name].replica for name in sorted(self.streams)]

    def close(self) -> None:
        """Stop shipping: deregister from the durability manager and cancel
        every stream (the simulator may outlive this shipper)."""
        if self._observer in self.manager.observers:
            self.manager.observers.remove(self._observer)
        for stream in self.streams.values():
            stream.sender.forget_all()

    def _open_stream(self, replica: ReplicaMediator) -> _ReplicaStream:
        def sink(envelope: Envelope) -> None:
            shipped = envelope.payload
            replica.apply_record(shipped.record, shipped.node_applies, self.sim.now)

        inbox = ReliableInbox(sink, name=f"replica:{replica.name}", tracer=self.tracer)
        channel = Channel(
            self.sim,
            0.0,
            deliver=lambda envelope, send_time: inbox.deliver(envelope),
            name=f"ship:{replica.name}",
            tracer=self.tracer,
        )
        sender = ReliableSender(channel, inbox, self.sim, self.policy, tracer=self.tracer)
        return _ReplicaStream(replica, channel, sender, inbox)

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def _on_record(self, record: WalRecord) -> None:
        """The durability observer: fan one committed record out to all."""
        self._applies[record.txn] = tuple(self.manager.last_node_applies)
        live = {r.txn for r in self.manager.wal.records}
        for txn in [t for t in self._applies if t not in live and t != record.txn]:
            del self._applies[txn]
        shipped = ShippedRecord(record, self._applies[record.txn])
        for name in sorted(self.streams):
            self._ship(self.streams[name], shipped)
        if self.tracer.enabled and self.streams:
            self.tracer.event(
                "wal_ship", txn=record.txn, replicas=sorted(self.streams)
            )

    def _ship(self, stream: _ReplicaStream, shipped: ShippedRecord) -> None:
        self.mediator.replication.records_shipped += 1
        stream.sender.send(shipped)

    # ------------------------------------------------------------------
    # The clock tick: deliver + retransmit (the simulator), heal, heartbeat
    # ------------------------------------------------------------------
    def tick(self, now: float) -> None:
        """Advance the shipping pipeline to ``now``: on a fault-free stream
        every record shipped so far is applied when this returns."""
        self.sim.run_until(max(now, self.sim.now))
        for name in sorted(self.streams):
            self._heal(name)
            self.streams[name].replica.observe_heartbeat(self.sim.now, self.manager._txn)
        self._update_lag_gauge()

    def _heal(self, name: str) -> None:
        """Resync a replica whose stream has an unfillable gap."""
        stream = self.streams[name]
        if stream.permanent_gap() and not stream.replica.needs_resync:
            if self.tracer.enabled:
                self.tracer.event(
                    "replica_gap", replica=name, seq=stream.inbox.next_seq
                )
            stream.replica.mark_gap()
        if stream.replica.needs_resync:
            self.resync_replica(name)

    def inject_gap(self, name: str) -> int:
        """Irrecoverably drop the oldest unacked envelope (test hook).

        Models sender-side buffer loss: the seq is gone from the stream,
        so the next tick detects a permanent gap and heals by resync.
        Returns the dropped seq, or -1 when nothing was in flight.
        """
        return self.streams[name].sender.forget_oldest()

    # ------------------------------------------------------------------
    # Gap healing
    # ------------------------------------------------------------------
    def resync_replica(self, name: str) -> None:
        """Heal one replica: checkpoint reload + live WAL tail re-ship.

        The old stream is cancelled first, so no record it still had on the
        wire or in its buffer can be applied on top of the reloaded state.
        """
        stream = self.streams[name]
        stream.sender.forget_all()
        self._bootstrap(stream.replica)

    def _bootstrap(self, replica: ReplicaMediator) -> None:
        """Checkpoint-load ``replica``; ship the live WAL tail on a new stream.

        A tail record whose physical writes predate this shipper (it
        attached after the record committed) cannot be re-shipped; a full
        checkpoint absorbs the whole tail instead, and the load retries
        against it.
        """
        floor_txn = replica.resync_from_checkpoint(self.sim.now)
        tail = [r for r in self.manager.wal.records if r.txn > floor_txn]
        if any(r.txn not in self._applies for r in tail):
            self.manager.checkpoint(full=True)
            floor_txn = replica.resync_from_checkpoint(self.sim.now)
            tail = [r for r in self.manager.wal.records if r.txn > floor_txn]
        stream = self.streams[replica.name] = self._open_stream(replica)
        for record in tail:
            self._ship(stream, ShippedRecord(record, self._applies[record.txn]))
        self.mediator.replication.replica_resyncs += 1

    # ------------------------------------------------------------------
    # Synchronous convergence (tests, soak checkpoints)
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Force every attached replica fully current, bypassing delays.

        Used where convergence must hold *now*: soak checkpoint
        verification and test assertions.  Per stream: heal a permanent
        gap by resync, then hand the sender's buffer — every undelivered
        record is in it — to the inbox in order.
        """
        for name in sorted(self.streams):
            self._heal(name)
            stream = self.streams[name]
            stream.channel.discard_in_flight()
            stream.sender.sync_into_inbox()
            stream.replica.observe_heartbeat(self.sim.now, self.manager._txn)
        self._update_lag_gauge()

    def _update_lag_gauge(self) -> None:
        lags = [
            lag
            for lag in (s.replica.lag(self.sim.now) for s in self.streams.values())
            if lag != float("inf")
        ]
        self.mediator.replication.replica_lag = max(lags, default=0.0)

    def __repr__(self) -> str:
        return f"<WalShipper replicas={sorted(self.streams)} now={self.sim.now}>"
