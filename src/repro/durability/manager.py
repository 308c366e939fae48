"""The durability manager: WAL appends and checkpoint scheduling.

Attached to a live mediator, the manager hooks the IUP's commit point
(:attr:`IncrementalUpdateProcessor.durability`): after each non-empty
update transaction's kernel has applied every delta, the manager appends
one :class:`~repro.durability.wal.WalRecord` describing the transaction's
per-source net deltas and post-transaction cursors, then takes an
incremental checkpoint when the :class:`CheckpointPolicy` says one is due.

The ordering argument (see ``docs/durability.md``):

* the record is written at *commit* time, not before the kernel — a
  deferred transaction (source down mid-poll, entries requeued) must not
  log anything, or replay would apply it twice under two records;
* "write-ahead" is relative to the **checkpoint**: a transaction's record
  is always durable before any checkpoint image absorbs its effects, and
  the WAL is compacted only after a checkpoint publishes — so at every
  instant, checkpoint ⊕ WAL-tail ⊕ source-logs-past-cursor reconstructs
  the committed state;
* the mediator's own in-memory state past the last WAL append is *never*
  durable — but it is always re-derivable from the sources' logs, which
  commit before the mediator ever hears about a transaction.

Crash injection: a :class:`~repro.faults.CrashSchedule` makes the manager
raise :class:`~repro.errors.SimulatedCrash` at precisely chosen instants
(after the append, mid-append with a torn tail, or mid-checkpoint before
the publish rename) — the kill half of the kill/restart harness.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from typing import Callable

from repro.core.persistence import encode_repo_rows, source_cursor
from repro.core.update_queue import QueuedUpdate
from repro.deltas import Delta
from repro.durability.checkpoint import CheckpointPolicy, CheckpointStore
from repro.durability.wal import WalRecord, WalSourceEntry, WriteAheadLog
from repro.errors import MediatorError, SimulatedCrash
from repro.obs.metrics import reset_dataclass_counters

__all__ = ["DurabilityStats", "DurabilityManager"]

WAL_FILENAME = "wal.log"


@dataclass
class DurabilityStats:
    """Counters exposed through the mediator's metrics registry."""

    wal_records: int = 0
    wal_bytes: int = 0
    wal_compacted_records: int = 0
    checkpoints: int = 0
    checkpoint_nodes: int = 0
    checkpoint_rows: int = 0

    def reset(self) -> None:
        reset_dataclass_counters(self)


class DurabilityManager:
    """Makes one mediator's committed state crash-recoverable."""

    def __init__(
        self,
        mediator,
        directory: str,
        policy: Optional[CheckpointPolicy] = None,
        crash_schedule=None,
        sync: bool = False,
    ):
        if not mediator.initialized:
            raise MediatorError("attach durability after initialize() or recovery")
        self.mediator = mediator
        self.directory = directory
        self.policy = policy or CheckpointPolicy()
        self.crash_schedule = crash_schedule
        os.makedirs(directory, exist_ok=True)
        self.wal = WriteAheadLog(os.path.join(directory, WAL_FILENAME), sync=sync)
        # A previous incarnation may have died mid-append; appending after
        # a torn tail would corrupt the new record too.
        self.wal.truncate_tail()
        self.checkpoints = CheckpointStore(directory)
        self.stats = DurabilityStats()
        self._txn = self.wal.last_txn
        self._source_seqs: Dict[str, int] = self.wal.source_seqs()
        self._ckpt_id = self.checkpoints.latest_id()
        ckpt_wal_txn = 0
        if self._ckpt_id is not None:
            latest = self.checkpoints.load_all()[self._ckpt_id]
            for name, seq in latest.get("source_seqs", {}).items():
                self._source_seqs[name] = max(self._source_seqs.get(name, 0), seq)
            ckpt_wal_txn = latest.get("wal_txn", 0)
            self._txn = max(self._txn, ckpt_wal_txn)
        self._dirty: Set[str] = set()
        if self.wal.last_txn > ckpt_wal_txn:
            # Unabsorbed WAL records may already be reflected in the mediator
            # (a recovery replayed them), but their dirty sets are unknown to
            # this incarnation — image every storing node at the next
            # checkpoint so compaction cannot outrun the images.
            self._dirty = set(mediator.annotated.nodes_with_storage())
        self._txns_since = 0
        self._bytes_since = 0
        mediator.metrics.register_stats("durability", self.stats)
        self._checkpoint_ms = mediator.metrics.histogram(
            "durability.checkpoint_ms", "wall-clock milliseconds per checkpoint"
        )
        mediator.iup.durability = self
        #: Called with each committed :class:`WalRecord` *after* it is
        #: durable (and after any injected crash point) — the WAL-shipping
        #: tap.  A record a crash prevented from reaching an observer is
        #: still acknowledged: it is on disk, and failover recovery replays
        #: it from there.
        self.observers: List[Callable[[WalRecord], None]] = []
        #: The newest committed transaction's ``(node, delta)`` repository
        #: writes, in apply order — valid exactly while its record is the
        #: latest; observers snapshot it synchronously.
        self.last_node_applies: tuple = ()

    @classmethod
    def attach(
        cls,
        mediator,
        directory: str,
        policy: Optional[CheckpointPolicy] = None,
        crash_schedule=None,
        sync: bool = False,
    ) -> "DurabilityManager":
        """Attach durability to a mediator, bootstrapping if needed.

        A fresh directory gets a *base* checkpoint of the current state
        immediately: source-log replay alone cannot reconstruct initial
        populations (a source's pre-existing data predates its log), so
        recovery always needs a full image to start from.

        Re-attaching after a recovery re-bases the same way whenever the
        mediator holds state the directory cannot reconstruct — a recovery
        catch-up transaction is applied straight from source logs and never
        WAL-logged, so without a fresh full image a *second* crash would
        recover from the old checkpoint while later records' cursors skip
        right past the catch-up range.
        """
        manager = cls(mediator, directory, policy, crash_schedule, sync)
        if manager._ckpt_id is None or manager._state_ahead_of_log():
            manager.checkpoint(full=True)
        return manager

    def _state_ahead_of_log(self) -> bool:
        """True when some source's reflected cursor is ahead of the highest
        cursor the checkpoint chain and WAL together can reconstruct."""
        coverage: Dict[str, int] = {}
        latest = self.checkpoints.load_all().get(self._ckpt_id, {})
        for name, cursor in (latest.get("cursors") or {}).items():
            if cursor is not None:
                coverage[name] = cursor
        for record in self.wal.records:
            for name, entry in record.sources.items():
                if entry.cursor is not None:
                    coverage[name] = max(coverage.get(name, 0), entry.cursor)
        return any(
            source_cursor(self.mediator, name) > coverage.get(name, -1)
            for name in self.mediator.sources
        )

    # ------------------------------------------------------------------
    # The IUP commit hook
    # ------------------------------------------------------------------
    def on_transaction_commit(
        self,
        entries: Sequence[QueuedUpdate],
        processed: Sequence[str],
        node_applies: Sequence = (),
    ) -> None:
        """Log one committed update transaction; checkpoint if due.

        ``entries`` are the flushed-and-reflected queue entries;
        ``processed`` the non-leaf nodes whose repositories changed (the
        dirty set for the next incremental checkpoint); ``node_applies``
        the transaction's ``(node, delta)`` repository writes in apply
        order — not logged (the WAL replays through propagation), but
        exposed as :attr:`last_node_applies` so WAL-shipping observers can
        replicate stored state physically.
        """
        txn = self._txn + 1
        per_source: Dict[str, Delta] = {}
        cursors: Dict[str, Optional[int]] = {}
        order: List[str] = []
        for entry in entries:
            if entry.source not in per_source:
                per_source[entry.source] = entry.delta.copy()
                order.append(entry.source)
                cursors[entry.source] = entry.cursor
            else:
                per_source[entry.source].absorb(entry.delta)
                if entry.cursor is not None:
                    previous = cursors[entry.source]
                    cursors[entry.source] = (
                        entry.cursor if previous is None else max(previous, entry.cursor)
                    )
        sources: Dict[str, WalSourceEntry] = {}
        for name in order:
            sources[name] = WalSourceEntry(
                seq=self._source_seqs.get(name, 0) + 1,
                cursor=cursors[name],
                delta=per_source[name],
            )
        record = WalRecord(txn=txn, sources=sources)

        point = self._take_crash("torn-wal", txn)
        if point is not None:
            self.wal.append(record, torn=True)
            if self.mediator.tracer.enabled:
                self.mediator.tracer.event("wal_torn", txn=txn)
            self._crash("torn-wal", txn)
        nbytes = self.wal.append(record)
        self._txn = txn
        for name, entry in sources.items():
            self._source_seqs[name] = entry.seq
        self.stats.wal_records += 1
        self.stats.wal_bytes += nbytes
        self._txns_since += 1
        self._bytes_since += nbytes
        tracer = self.mediator.tracer
        if tracer.enabled:
            tracer.event(
                "wal_append", txn=txn, bytes=nbytes, sources=sorted(sources)
            )
        point = self._take_crash("post-wal-append", txn)
        if point is not None:
            self._crash("post-wal-append", txn)
        self.last_node_applies = tuple(node_applies)
        for observer in self.observers:
            observer(record)

        self._dirty.update(self.mediator.annotated.storing_set().intersection(processed))
        if self.policy.due(self._txns_since, self._bytes_since):
            self.checkpoint()

    def _take_crash(self, phase: str, txn: int):
        if self.crash_schedule is None:
            return None
        return self.crash_schedule.take(phase, txn)

    def _crash(self, phase: str, txn: int) -> None:
        if self.mediator.tracer.enabled:
            self.mediator.tracer.event("crash_injected", phase=phase, txn=txn)
        raise SimulatedCrash(phase, txn)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, full: bool = False) -> int:
        """Take a checkpoint now (at a transaction boundary); returns its id.

        Incremental by default — only nodes dirtied since the last
        checkpoint are imaged; ``full=True`` (and always for the first
        checkpoint of a directory) images every storing node.  The queue
        does **not** need to be empty: unreflected announcements are
        recoverable from source logs past the recorded cursors.
        """
        mediator = self.mediator
        started = time.perf_counter()
        new_id = 0 if self._ckpt_id is None else self._ckpt_id + 1
        parent = self._ckpt_id
        if parent is None:
            full = True
        node_names = (
            sorted(mediator.annotated.nodes_with_storage())
            if full
            else sorted(self._dirty)
        )
        with mediator.tracer.span("checkpoint") as span:
            nodes: Dict[str, Dict] = {}
            rows_written = 0
            for name in node_names:
                columns, rows = encode_repo_rows(mediator.store.repo(name))
                nodes[name] = {"columns": columns, "rows": rows}
                rows_written += len(rows)
            payload = {
                "id": new_id,
                "parent": parent,
                "wal_txn": self._txn,
                "source_seqs": dict(self._source_seqs),
                "cursors": {
                    name: source_cursor(mediator, name) for name in mediator.sources
                },
                "nodes": nodes,
            }
            point = self._take_crash("mid-checkpoint", self._txn)
            if point is not None:
                self.checkpoints.write(payload, abort_before_publish=True)
                self._crash("mid-checkpoint", self._txn)
            self.checkpoints.write(payload)
            self._ckpt_id = new_id
            self._dirty.clear()
            self._txns_since = 0
            self._bytes_since = 0
            # Only now is it safe to shed absorbed records.
            self.stats.wal_compacted_records += self.wal.compact(self._txn)
            self.stats.checkpoints += 1
            self.stats.checkpoint_nodes += len(nodes)
            self.stats.checkpoint_rows += rows_written
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._checkpoint_ms.observe(elapsed_ms)
            span.set(id=new_id, full=full, nodes=sorted(nodes), wal_txn=self._txn)
            if mediator.tracer.enabled:
                mediator.tracer.event(
                    "checkpoint_complete",
                    id=new_id,
                    full=full,
                    nodes=len(nodes),
                    rows=rows_written,
                )
        return new_id

    def close(self) -> None:
        """Detach from the mediator and release the WAL file handle."""
        if self.mediator.iup.durability is self:
            self.mediator.iup.durability = None
        self.wal.close()
