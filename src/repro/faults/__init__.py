"""Fault injection and fault tolerance for source-mediator links.

Three pieces, layered exactly as ``docs/fault_model.md`` describes:

* :class:`FaultPlan` / :class:`ChannelFaults` / :class:`OutageWindow` — a
  deterministic, seedable schedule of drops, duplicates, delays, reorders
  and crash-and-recover outage windows, consulted by the simulated
  channels on every transmission and delivery;
* :class:`Envelope` / :class:`ReliableInbox` / :class:`ReliableSender` /
  :class:`BackoffPolicy` — the reliability layer that restores in-order,
  exactly-once announcement delivery over a faulty channel (sequence
  numbers, idempotent dedup, gap detection, retransmission with
  exponential backoff);
* :class:`StalenessTag` / :class:`TaggedAnswer` — graceful degradation
  vocabulary: what a materialized answer admits about its freshness while
  a source is inside an outage window.

This package has no dependencies on the core or simulation layers, so any
layer may import it freely.
"""

from repro.faults.plan import (
    CRASH_PHASES,
    NO_FAULTS,
    ChannelFaults,
    CrashPoint,
    CrashSchedule,
    FaultDecision,
    FaultPlan,
    OutageWindow,
)
from repro.faults.reliable import (
    BackoffPolicy,
    Envelope,
    ReliableInbox,
    ReliableSender,
)
from repro.faults.staleness import StalenessTag, TaggedAnswer

__all__ = [
    "FaultPlan",
    "ChannelFaults",
    "FaultDecision",
    "OutageWindow",
    "NO_FAULTS",
    "CRASH_PHASES",
    "CrashPoint",
    "CrashSchedule",
    "Envelope",
    "ReliableInbox",
    "ReliableSender",
    "BackoffPolicy",
    "StalenessTag",
    "TaggedAnswer",
]
