"""Fault-tolerant WAL-shipped read replicas (CQRS over the mediator).

The primary :class:`~repro.core.SquirrelMediator` already write-ahead
logs every committed update transaction; this package turns that log into
a replication stream:

* :class:`WalShipper` — primary side: taps the durability manager's
  observer hook and streams each committed
  :class:`~repro.durability.WalRecord` to every replica over the
  transport announcements use (:class:`~repro.sim.Channel`,
  :class:`~repro.faults.ReliableSender`,
  :class:`~repro.faults.ReliableInbox`), with heartbeats and
  checkpoint-based gap healing;
* :class:`ReplicaMediator` — replica side: a full mediator kept current
  by replaying each shipped record's physical repository writes
  idempotently (by transaction index, with ``(source, seq)`` floors
  advancing for failover), never polling a source before promotion;
  exposes its Theorem 7.2
  ignorance window as :meth:`~ReplicaMediator.lag` and promotes to
  primary through the recovery protocol (WAL tail + source-log catch-up)
  so no acknowledged transaction is ever lost;
* :class:`ReadRouter` — bounded-staleness reads: per-query staleness
  budgets route load round-robin across fresh-enough replicas and
  degrade (tagged), fall back to the primary, or reject
  (:class:`~repro.errors.StaleReadError`) when none qualifies;
* :class:`FailoverCoordinator` — heartbeat-timeout death detection and
  most-caught-up promotion;
* :class:`ReplicationHarness` — a deterministic full-stack driver for
  chaos tests and benchmarks.

``docs/replication.md`` walks through the design and its invariants.
"""

from repro.replication.failover import FailoverCoordinator
from repro.replication.harness import ReplicationHarness
from repro.replication.replica import PromotionResult, ReplicaMediator
from repro.replication.router import ReadRouter
from repro.replication.shipper import WalShipper

__all__ = [
    "WalShipper",
    "ReplicaMediator",
    "PromotionResult",
    "ReadRouter",
    "FailoverCoordinator",
    "ReplicationHarness",
]
