"""Restart recovery: checkpoint + WAL tail + source-log catch-up.

The recovery state machine (``docs/durability.md`` draws the picture):

1. **Load** the newest usable checkpoint chain and rebuild every storing
   node's repository from it.  The chain's ``cursors`` say exactly which
   source-log prefix that image reflects; ``source_seqs`` give the WAL
   replay floor per source.
2. **Replay the WAL tail** — records with ``txn`` past the chain's
   ``wal_txn``.  Each record's per-source component is skipped when its
   ``(source, seq)`` is at or below the checkpoint's floor (idempotence
   under arbitrary crash/restart interleavings); surviving deltas fold
   into one net per source and the cursors advance to the record's.
3. **Catch up from source logs** — each announcing source's log entries
   past its post-WAL cursor fold into the same per-source net (the source
   committed them while the mediator was down or before it could log
   them).  The pending announcement accumulator is discarded atomically
   with the cursor read: replay covers the same transactions.
4. One net per source is enqueued and **a single update transaction**
   propagates everything incrementally — recovery costs one propagation
   pass regardless of how many transactions were lost.
5. A source whose log has been **compacted past the cursor** cannot catch
   up by replay.  With ``on_stale="reinit"`` (the default here — recovery
   should self-heal) only that source's leaf relations and the
   materialized subtree above them are rebuilt from a fresh snapshot
   (:func:`~repro.core.persistence.reinitialize_sources`), staleness-tagged
   while the rebuild is in flight; ``on_stale="raise"`` surfaces
   :class:`~repro.errors.SnapshotStaleError` instead.

Why the catch-up transaction may run while stale sources are still wrong:
the contamination is confined.  During step 4 a stale source's leaves
contribute stale rows only to their *ancestors* — exactly the nodes step 5
recomputes from scratch and swaps wholesale.  Every node outside that
closure reads nothing from the stale leaves, by the VDP's edge structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.mediator import SquirrelMediator
from repro.core.persistence import decode_repo, reinitialize_sources
from repro.core.vdp import AnnotatedVDP
from repro.deltas import Delta
from repro.durability.checkpoint import CheckpointPolicy, CheckpointStore
from repro.durability.manager import WAL_FILENAME, DurabilityManager
from repro.durability.wal import WriteAheadLog
from repro.errors import MediatorError, SimulatedCrash, SnapshotStaleError
from repro.sources.base import SourceDatabase

__all__ = ["RecoveryResult", "RecoveryManager", "restart_after_crash"]


@dataclass
class RecoveryResult:
    """What one recovery did."""

    mediator: SquirrelMediator
    checkpoint_id: int
    wal_records_replayed: int = 0
    replayed_txns: int = 0  # source-log transactions caught up past cursors
    reinitialized_sources: Tuple[str, ...] = ()
    reinitialized_nodes: Tuple[str, ...] = ()
    stale_gaps: Dict[str, Tuple[int, int]] = field(default_factory=dict)


class RecoveryManager:
    """Rebuilds a mediator from one durability directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.checkpoints = CheckpointStore(directory)

    def recover(
        self,
        annotated: AnnotatedVDP,
        sources: Mapping[str, SourceDatabase],
        on_stale: str = "reinit",
        **mediator_kwargs,
    ) -> RecoveryResult:
        """Run the full recovery protocol; returns the live mediator.

        ``mediator_kwargs`` pass through to :class:`SquirrelMediator`
        (tracer, feature toggles).  Raises :class:`MediatorError` when the
        directory holds no usable checkpoint chain, and
        :class:`SnapshotStaleError` when a source's log gap cannot be
        replayed and ``on_stale="raise"``.
        """
        if on_stale not in ("raise", "reinit"):
            raise MediatorError(f"on_stale must be 'raise' or 'reinit', got {on_stale!r}")
        mediator = SquirrelMediator(annotated, sources, **mediator_kwargs)
        tracer = mediator.tracer
        with tracer.span("recovery") as span:
            meta, node_images = self.checkpoints.resolve_chain(
                annotated.nodes_with_storage()
            )
            for node_name, image in node_images.items():
                node = annotated.vdp.node(node_name)
                mediator.store.install_repo(
                    node_name,
                    decode_repo(
                        node.kind,
                        mediator.store.stored_schema(node_name),
                        image["columns"],
                        image["rows"],
                        node_name,
                    ),
                )
            mediator.store._initialized = True
            mediator.store._build_declared_indexes()
            mediator._initialized = True

            cursors: Dict[str, int] = {
                name: int(value) for name, value in meta.get("cursors", {}).items()
            }
            seq_floor: Dict[str, int] = {
                name: int(value) for name, value in meta.get("source_seqs", {}).items()
            }

            # Step 2: the WAL tail, filtered by the (source, seq) floor.
            wal_nets: Dict[str, Delta] = {}
            wal_records = 0
            with tracer.span("wal_replay") as wal_span:
                tail = [
                    record
                    for record in WriteAheadLog.read_records(
                        os.path.join(self.directory, WAL_FILENAME)
                    )
                    if record.txn > meta.get("wal_txn", 0)
                ]
                for record in tail:
                    wal_records += 1
                    for name, entry in record.sources.items():
                        if entry.seq <= seq_floor.get(name, 0):
                            continue
                        wal_nets.setdefault(name, Delta()).absorb(entry.delta)
                        if entry.cursor is not None:
                            cursors[name] = max(cursors.get(name, 0), entry.cursor)
                wal_span.set(records=wal_records, sources=sorted(wal_nets))
            for name, cursor in cursors.items():
                if name in mediator.sources:
                    mediator.queue.note_reflected_cursor(name, cursor)

            # Step 3: source-log catch-up past the post-WAL cursors, with
            # staleness detection against compacted logs.
            stale: Dict[str, Tuple[int, int]] = {}
            replayed = 0
            for source_name, kind in sorted(mediator.contributor_kinds.items()):
                if not kind.announces:
                    continue
                source = mediator.sources[source_name]
                cursor = cursors.get(source_name, 0)
                _, now_cursor = source.take_announcement_versioned()
                logged = {seq: delta for seq, delta in source.log()}
                needed = range(cursor + 1, now_cursor + 1)
                if any(seq not in logged for seq in needed):
                    present = sorted(logged)
                    floor = present[0] if present else now_cursor + 1
                    stale[source_name] = (cursor, floor)
                    continue
                net = wal_nets.get(source_name, Delta())
                for seq in needed:
                    net.absorb(logged[seq])
                    replayed += 1
                if not net.is_empty():
                    mediator.enqueue_update(source_name, net, cursor=now_cursor)
                else:
                    mediator.queue.note_reflected_cursor(source_name, now_cursor)
            if stale and on_stale == "raise":
                raise SnapshotStaleError(stale)
            if tracer.enabled and stale:
                tracer.event(
                    "snapshot_stale",
                    gaps={
                        name: {"cursor": gap[0], "log_floor": gap[1]}
                        for name, gap in sorted(stale.items())
                    },
                )

            # Step 4: one propagation pass over everything recovered.
            mediator.run_update_transaction()
            if tracer.enabled:
                tracer.event(
                    "recovery_catchup",
                    wal_records=wal_records,
                    replayed_txns=replayed,
                    stale=sorted(stale),
                )

            # Step 5: selective re-initialization of stale sources.
            reinit_nodes: Tuple[str, ...] = ()
            if stale:
                names = sorted(stale)
                for name in names:
                    mediator.begin_resync(name)
                try:
                    with tracer.span("selective_reinit") as reinit_span:
                        reinit_nodes = reinitialize_sources(mediator, names)
                        reinit_span.set(sources=names, nodes=sorted(reinit_nodes))
                finally:
                    for name in names:
                        mediator.end_resync(name)
            span.set(
                checkpoint=meta["id"],
                wal_records=wal_records,
                replayed_txns=replayed,
                stale=sorted(stale),
            )

        result = RecoveryResult(
            mediator=mediator,
            checkpoint_id=meta["id"],
            wal_records_replayed=wal_records,
            replayed_txns=replayed,
            reinitialized_sources=tuple(sorted(stale)),
            reinitialized_nodes=tuple(sorted(reinit_nodes)),
            stale_gaps=stale,
        )
        mediator.metrics.register_callable(
            "recovery.wal_records_replayed", lambda: result.wal_records_replayed
        )
        mediator.metrics.register_callable(
            "recovery.replayed_txns", lambda: result.replayed_txns
        )
        mediator.metrics.register_callable(
            "recovery.reinitialized_sources", lambda: len(result.reinitialized_sources)
        )
        return result


def restart_after_crash(
    directory: str,
    annotated: AnnotatedVDP,
    sources: Mapping[str, SourceDatabase],
    policy: Optional[CheckpointPolicy] = None,
    crash_schedule=None,
    **recover_kwargs,
) -> Tuple[DurabilityManager, List[RecoveryResult], List[SimulatedCrash]]:
    """The restart half of kill/restart: recover, then re-attach durability.

    Only the durability directory and the sources survived.  Recovery
    builds a fresh mediator from them (``recover_kwargs`` go to
    :meth:`RecoveryManager.recover`) and :meth:`DurabilityManager.attach`
    re-bases it; when the crash schedule kills that re-base checkpoint
    too, nothing was published, so recovery simply restarts.  Returns the
    live manager (``manager.mediator`` is the recovered mediator), every
    recovery that ran, and every crash that hit a re-attach, in order.
    """
    recoveries: List[RecoveryResult] = []
    crashes: List[SimulatedCrash] = []
    while True:
        recovery = RecoveryManager(directory).recover(
            annotated, sources, **recover_kwargs
        )
        recoveries.append(recovery)
        try:
            manager = DurabilityManager.attach(
                recovery.mediator,
                directory,
                policy=policy,
                crash_schedule=crash_schedule,
            )
        except SimulatedCrash as crash:
            crashes.append(crash)
            continue
        return manager, recoveries, crashes
