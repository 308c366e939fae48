"""The one restart path: image install, WAL-tail fold, source-log catch-up.

Every way a mediator comes back — crash recovery
(:meth:`RecoveryManager.recover`), a replica's bootstrap or gap heal
(:meth:`~repro.replication.ReplicaMediator.resync_from_checkpoint`) and a
replica's promotion (:meth:`~repro.replication.ReplicaMediator.promote`) —
is built from the three functions here (``docs/durability.md`` draws the
picture):

1. :func:`install_image` rebuilds every storing node's repository from a
   resolved checkpoint chain and records the chain's ``cursors``: exactly
   which source-log prefix that image reflects.
2. :func:`fold_wal_tail` folds the WAL records past the image into one net
   delta per source.  Each record's per-source component is skipped when
   its ``(source, seq)`` is at or below the floor (idempotence under
   arbitrary crash/restart interleavings) and the cursors advance to the
   record's.
3. :func:`catch_up` first checks every announcing source's log for the
   entries past its cursor.  A source whose log has been **compacted past
   the cursor** cannot catch up by replay: with ``on_stale="raise"`` the
   restart raises :class:`~repro.errors.SnapshotStaleError` with every gap
   before it takes any announcement.  Otherwise each source's pending
   announcement is discarded atomically with the cursor read (replay
   covers the same transactions), its log past the cursor folds into its
   WAL net, and **a single update transaction** propagates every net —
   one propagation pass however many transactions were lost.  Last, the
   stale sources' leaf relations and the materialized subtree above them
   are rebuilt from fresh snapshots
   (:func:`~repro.core.persistence.reinitialize_sources`), staleness-tagged
   while the rebuild is in flight.

Why the catch-up transaction may run while stale sources are still wrong:
the contamination is confined.  A stale source's leaves contribute stale
rows only to their *ancestors* — exactly the nodes the re-initialization
recomputes from scratch and swaps wholesale.  Every node outside that
closure reads nothing from the stale leaves, by the VDP's edge structure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, MutableMapping, Optional, Tuple

from repro.core.mediator import SquirrelMediator
from repro.core.persistence import decode_repo, reinitialize_sources
from repro.core.vdp import AnnotatedVDP
from repro.deltas import Delta
from repro.durability.checkpoint import CheckpointPolicy, CheckpointStore
from repro.durability.manager import WAL_FILENAME, DurabilityManager
from repro.durability.wal import WalRecord, WriteAheadLog
from repro.errors import MediatorError, SimulatedCrash, SnapshotStaleError
from repro.sources.base import SourceDatabase

__all__ = [
    "RecoveryResult",
    "RecoveryManager",
    "restart_after_crash",
    "install_image",
    "fold_wal_tail",
    "catch_up",
]


def install_image(
    mediator: SquirrelMediator, meta: Mapping, node_images: Mapping[str, Mapping]
) -> None:
    """Install a resolved checkpoint chain into a fresh mediator.

    ``meta`` and ``node_images`` are what
    :meth:`~repro.durability.CheckpointStore.resolve_chain` returns.  Each
    storing node's repository is decoded from its image, the store and the
    mediator are marked initialized, the declared join indexes are built
    once, and the chain's per-source cursors are recorded as reflected.
    Cursors of sources outside the mediator's federation (a source
    detached since the image was taken) are dropped.
    """
    vdp = mediator.annotated.vdp
    store = mediator.store
    for node_name, image in node_images.items():
        store.install_repo(
            node_name,
            decode_repo(
                vdp.node(node_name).kind,
                store.stored_schema(node_name),
                image["columns"],
                image["rows"],
                node_name,
            ),
        )
    store._initialized = True
    store._build_declared_indexes()
    mediator._initialized = True
    for name, cursor in meta.get("cursors", {}).items():
        if name in mediator.sources:
            mediator.queue.note_reflected_cursor(name, int(cursor))


def fold_wal_tail(
    records: Iterable[WalRecord], seq_floor: MutableMapping[str, int]
) -> Tuple[Dict[str, Delta], Dict[str, int], int]:
    """Fold WAL records into one net delta per source.

    A record's per-source entry is skipped when its ``seq`` is at or below
    ``seq_floor`` for that source; a folded entry advances the floor (in
    place) and the source's cursor.  Returns ``(nets, cursors, fresh)``,
    where ``fresh`` counts the records that contributed at least one entry.
    """
    nets: Dict[str, Delta] = {}
    cursors: Dict[str, int] = {}
    fresh = 0
    for record in records:
        folded = False
        for name, entry in record.sources.items():
            if entry.seq <= seq_floor.get(name, 0):
                continue
            seq_floor[name] = entry.seq
            folded = True
            nets.setdefault(name, Delta()).absorb(entry.delta)
            if entry.cursor is not None:
                cursors[name] = max(cursors.get(name, 0), entry.cursor)
        if folded:
            fresh += 1
    return nets, cursors, fresh


def catch_up(
    mediator: SquirrelMediator,
    cursors: Mapping[str, int],
    nets: Mapping[str, Delta],
    on_stale: str,
) -> Tuple[int, Dict[str, Tuple[int, int]], Tuple[str, ...]]:
    """Bring an installed mediator current from its sources' own logs.

    ``cursors`` and ``nets`` come from :func:`fold_wal_tail`; each source
    catches up from the higher of its WAL cursor and the cursor the
    mediator already reflects.  Returns ``(replayed, stale_gaps,
    reinitialized_nodes)``: the source-log transactions folded, each stale
    source's ``(cursor, log_floor)``, and the storing nodes the selective
    re-initialization replaced.
    """
    if on_stale not in ("raise", "reinit"):
        raise MediatorError(f"on_stale must be 'raise' or 'reinit', got {on_stale!r}")
    queue = mediator.queue
    for name, cursor in cursors.items():
        if name in mediator.sources:
            queue.note_reflected_cursor(name, cursor)

    # Check every source before taking any announcement, so a raise (or
    # the fallback) covers every gap and a raising restart touches nothing.
    logs: Dict[str, List[Tuple[int, Delta]]] = {}
    stale: Dict[str, Tuple[int, int]] = {}
    for name in mediator.annotated.announcing_sources():
        source = mediator.sources[name]
        cursor = queue.reflected_cursor(name) or 0
        log = logs[name] = source.log()
        seqs = {seq for seq, _ in log}
        if any(seq not in seqs for seq in range(cursor + 1, source.txn_count + 1)):
            stale[name] = (cursor, log[0][0] if log else source.txn_count + 1)
    if stale and on_stale == "raise":
        raise SnapshotStaleError(stale)
    tracer = mediator.tracer
    if tracer.enabled and stale:
        tracer.event(
            "snapshot_stale",
            gaps={
                name: {"cursor": gap[0], "log_floor": gap[1]}
                for name, gap in sorted(stale.items())
            },
        )

    replayed = 0
    for name, log in logs.items():
        # The pending accumulator describes transactions the log replay is
        # about to cover; take it atomically with the cursor so nothing
        # committed in between is delivered twice or lost.
        _, now_cursor = mediator.sources[name].take_announcement_versioned()
        if name in stale:
            continue
        cursor = queue.reflected_cursor(name) or 0
        net = nets.get(name, Delta())
        for seq, delta in log:
            if cursor < seq <= now_cursor:
                net.absorb(delta)
                replayed += 1
        if not net.is_empty():
            mediator.enqueue_update(name, net, cursor=now_cursor)
        else:
            queue.note_reflected_cursor(name, now_cursor)
    mediator.run_update_transaction()

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
    return replayed, stale, reinit_nodes


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
        replayed and ``on_stale="raise"``.  Images and cursors of a source
        detached since the checkpoint are dropped.
        """
        mediator = SquirrelMediator(annotated, sources, **mediator_kwargs)
        tracer = mediator.tracer
        with tracer.span("recovery") as span:
            meta, node_images = self.checkpoints.resolve_chain(
                annotated.nodes_with_storage()
            )
            install_image(mediator, meta, node_images)
            seq_floor = {
                name: int(value) for name, value in meta.get("source_seqs", {}).items()
            }
            with tracer.span("wal_replay") as wal_span:
                tail = [
                    record
                    for record in WriteAheadLog.read_records(
                        os.path.join(self.directory, WAL_FILENAME)
                    )
                    if record.txn > meta.get("wal_txn", 0)
                ]
                nets, cursors, _ = fold_wal_tail(tail, seq_floor)
                wal_span.set(records=len(tail), sources=sorted(nets))
            replayed, stale, reinit_nodes = catch_up(mediator, cursors, nets, on_stale)
            if tracer.enabled:
                tracer.event(
                    "recovery_catchup",
                    wal_records=len(tail),
                    replayed_txns=replayed,
                    stale=sorted(stale),
                )
            span.set(
                checkpoint=meta["id"],
                wal_records=len(tail),
                replayed_txns=replayed,
                stale=sorted(stale),
            )

        result = RecoveryResult(
            mediator=mediator,
            checkpoint_id=meta["id"],
            wal_records_replayed=len(tail),
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
