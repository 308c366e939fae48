"""Crash-consistent durability for the Squirrel mediator.

The paper's mediator keeps its materialized data in memory; Section 2's
economic argument for materialization (don't re-read the sources) applies
with equal force across restarts.  This package makes the committed state
crash-recoverable with three cooperating pieces:

* :mod:`~repro.durability.wal` — a checksummed, torn-tail-tolerant
  **write-ahead delta log**: one record per committed update transaction,
  carrying per-source net deltas and post-transaction source-log cursors;
* :mod:`~repro.durability.checkpoint` — **non-quiescent incremental
  checkpoints**: only the nodes dirtied since the last checkpoint are
  imaged, at transaction boundaries, without draining the update queue;
* :mod:`~repro.durability.recovery` — the **recovery protocol**: newest
  checkpoint chain, plus WAL tail (idempotent by ``(source, seq)``), plus
  source-log catch-up past the cursors, in one propagation pass — with
  *selective re-initialization* of any source whose log was compacted past
  what replay needs.

:mod:`~repro.durability.harness` is the kill/restart simulator that drives
all of it under :class:`~repro.faults.CrashSchedule` injection.

The invariant everything hangs on: at every instant,

    checkpoint ⊕ WAL-tail ⊕ source-logs-past-cursor = committed state.
"""

from repro.durability.checkpoint import CheckpointPolicy, CheckpointStore
from repro.durability.harness import (
    Commit,
    CompactLog,
    CrashRunOutcome,
    run_crash_workload,
)
from repro.durability.manager import DurabilityManager, DurabilityStats
from repro.durability.recovery import (
    RecoveryManager,
    RecoveryResult,
    restart_after_crash,
)
from repro.durability.wal import WalRecord, WalSourceEntry, WriteAheadLog

__all__ = [
    "CheckpointPolicy",
    "CheckpointStore",
    "DurabilityManager",
    "DurabilityStats",
    "RecoveryManager",
    "RecoveryResult",
    "restart_after_crash",
    "WalRecord",
    "WalSourceEntry",
    "WriteAheadLog",
    "Commit",
    "CompactLog",
    "CrashRunOutcome",
    "run_crash_workload",
]
