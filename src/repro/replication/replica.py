"""The replica side of WAL shipping: apply, resync, promote.

A :class:`ReplicaMediator` is a full second mediator over the *same*
autonomous sources, kept current not by polling them but by applying the
primary's shipped WAL records to its own materialized copies.  The one
iron rule: **a replica never touches a source before promotion.**  Every
poll path (``initial_snapshot``, ``take_announcement_versioned``) consumes
the source's pending announcement accumulator — state that belongs to the
primary's update pump — so a polling replica would silently corrupt the
primary.  Replication is therefore *physical*: each shipped record
carries the committing transaction's exact per-node repository writes
(captured at the primary's single apply point), and the replica replays
those writes verbatim — bit-identical stored state, and never a poll.
Re-running propagation instead would poll whenever a materialized node
sits over a virtual operand (the VAP must fetch the other join side), so
logical replay is only legal post-mortem.  Replicas bootstrap and heal
exclusively from the primary's durability directory (checkpoint chain +
live WAL tail, re-shipped by the
:class:`~repro.replication.WalShipper`), and first query a source at
:meth:`promote` time, when the primary is already dead.  Both go through
the one restart path of :mod:`repro.durability.recovery`: a resync is
:func:`~repro.durability.recovery.install_image` of the resolved chain, a
promotion is :func:`~repro.durability.recovery.fold_wal_tail` plus
:func:`~repro.durability.recovery.catch_up`.

Staleness model (the Theorem 7.2 extension — see
:class:`repro.sim.ReplicationDelays`): a replica knows it is current as of
``current_as_of``, the newest instant at which its applied transaction
index matched the primary's committed index (learned from applied records
and heartbeats).  ``lag(now) = now - current_as_of`` is the replica's
ignorance window; a resyncing replica's lag is unbounded (``inf``) until
the heal lands, exactly like a ``begin_resync`` source in the PR 6
backfill path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.mediator import SquirrelMediator
from repro.core.vdp import AnnotatedVDP
from repro.durability.checkpoint import CheckpointStore
from repro.durability.manager import WAL_FILENAME
from repro.durability.recovery import catch_up, fold_wal_tail, install_image
from repro.durability.wal import WalRecord, WriteAheadLog
from repro.errors import MediatorError
from repro.faults.staleness import StalenessTag, TaggedAnswer
from repro.obs.tracer import NULL_TRACER
from repro.relalg import TRUE
from repro.sources.base import SourceDatabase

__all__ = ["ReplicaMediator", "PromotionResult"]

_INF = float("inf")


@dataclass
class PromotionResult:
    """What one failover promotion replayed before going live."""

    replica: str
    wal_records_replayed: int = 0
    replayed_txns: int = 0
    reinitialized_sources: Tuple[str, ...] = ()


class ReplicaMediator:
    """One fault-tolerant read replica fed by shipped WAL records."""

    def __init__(
        self,
        name: str,
        annotated: AnnotatedVDP,
        sources: Mapping[str, SourceDatabase],
        directory: str,
        tracer=NULL_TRACER,
        **mediator_kwargs,
    ):
        self.name = name
        self.annotated = annotated
        self.sources = dict(sources)
        self.directory = directory
        self.checkpoints = CheckpointStore(directory)
        self.tracer = tracer
        self.mediator_kwargs = dict(mediator_kwargs)
        self.mediator_kwargs.setdefault("tracer", tracer)

        self.mediator: Optional[SquirrelMediator] = None
        self.seq_floor: Dict[str, int] = {}
        #: Highest primary transaction index whose record is applied here.
        self.applied_txn = 0
        #: Highest primary transaction index this replica knows exists.
        self.primary_txn_seen = 0
        #: Newest instant at which applied_txn covered primary_txn_seen.
        self.current_as_of = 0.0
        self.last_heartbeat: Optional[float] = None
        #: Set when a shipping gap became unhealable by retransmission;
        #: cleared by resync_from_checkpoint.  While set, reads are
        #: tagged/routed as unboundedly stale.
        self.needs_resync = False
        self.is_primary = False

        self.records_applied = 0
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Bootstrap / gap healing: checkpoint-based resync
    # ------------------------------------------------------------------
    def resync_from_checkpoint(self, now: float) -> int:
        """Rebuild this replica's state from the primary's checkpoint chain.

        Resolves the newest usable chain and installs it (:meth:`_install`).
        Returns the checkpoint's ``wal_txn`` — the shipper re-ships the live
        WAL tail past it to close the distance to the primary's present.
        """
        meta, node_images = self.checkpoints.resolve_chain(
            self.annotated.nodes_with_storage()
        )
        return self._install(meta, node_images, now)

    def _install(self, meta: Mapping, node_images: Mapping, now: float) -> int:
        """Swap in a fresh mediator built from one resolved chain.

        Installs every storing node's image (:func:`install_image`), seeds
        the ``(source, seq)`` idempotence floors from the chain's metadata,
        and replaces the old mediator, gap and all, wholesale.  Returns the
        chain's ``wal_txn``.
        """
        with self.tracer.span("replica_resync") as span:
            mediator = SquirrelMediator(self.annotated, self.sources, **self.mediator_kwargs)
            install_image(mediator, meta, node_images)
            self.mediator = mediator
            self.seq_floor = {
                source_name: int(value)
                for source_name, value in meta.get("source_seqs", {}).items()
            }
            self.applied_txn = int(meta.get("wal_txn", 0))
            self.primary_txn_seen = max(self.primary_txn_seen, self.applied_txn)
            if self.applied_txn >= self.primary_txn_seen:
                self.current_as_of = now
            self.needs_resync = False
            self.resyncs += 1
            span.set(
                replica=self.name,
                checkpoint=meta["id"],
                wal_txn=self.applied_txn,
            )
        return self.applied_txn

    def mark_gap(self) -> None:
        """Flag an unhealable shipping gap: reads degrade until resync.

        Every source goes ``begin_resync`` so tagged answers disclose
        unbounded staleness — a gapped replica may be missing arbitrary
        committed transactions and must never serve a bounded-staleness
        read as if it were merely lagging.
        """
        self.needs_resync = True
        if self.mediator is not None:
            for source_name in sorted(self.mediator.sources):
                self.mediator.begin_resync(source_name)

    # ------------------------------------------------------------------
    # Steady state: idempotent record application
    # ------------------------------------------------------------------
    def apply_record(
        self,
        record: WalRecord,
        node_applies: Sequence[Tuple[str, object]],
        now: float,
    ) -> bool:
        """Apply one shipped WAL record; returns True when it changed state.

        ``node_applies`` is the committing transaction's exact repository
        write list, captured at the primary's apply point — replaying it
        verbatim reproduces the primary's stored state bit-for-bit without
        running propagation (which may poll; see the module docstring).
        Idempotent by transaction index: a record at or below
        ``applied_txn`` (duplicate delivery, or one the bootstrap
        checkpoint already absorbed) is skipped, so replica state always
        sits on a transaction boundary the primary actually committed.
        The ``(source, seq)`` floors and reflected cursors advance
        alongside — :meth:`promote` resumes recovery from them.
        """
        if self.mediator is None:
            raise RuntimeError(f"replica {self.name!r} has no state; resync first")
        self.primary_txn_seen = max(self.primary_txn_seen, record.txn)
        if record.txn <= self.applied_txn:
            if not self.needs_resync and self.applied_txn >= self.primary_txn_seen:
                self.current_as_of = now
            return False
        with self.tracer.span("replica_apply") as span:
            for node_name, delta in node_applies:
                self.mediator.store.apply_delta(node_name, delta)
            for source_name in sorted(record.sources):
                if source_name not in self.mediator.sources:
                    continue
                entry = record.sources[source_name]
                if entry.seq > self.seq_floor.get(source_name, 0):
                    self.seq_floor[source_name] = entry.seq
                if entry.cursor is not None:
                    self.mediator.queue.note_reflected_cursor(
                        source_name, entry.cursor
                    )
            span.set(replica=self.name, txn=record.txn, nodes=len(node_applies))
        self.applied_txn = record.txn
        self.records_applied += 1
        if not self.needs_resync and self.applied_txn >= self.primary_txn_seen:
            self.current_as_of = now
        return True

    # ------------------------------------------------------------------
    # Liveness and staleness
    # ------------------------------------------------------------------
    def observe_heartbeat(self, now: float, primary_txn: int) -> None:
        """A heartbeat carrying the primary's committed transaction index."""
        self.last_heartbeat = now
        self.primary_txn_seen = max(self.primary_txn_seen, primary_txn)
        if not self.needs_resync and self.applied_txn >= self.primary_txn_seen:
            self.current_as_of = now

    def lag(self, now: float) -> float:
        """This replica's ignorance window at ``now`` (``inf`` mid-gap)."""
        if self.needs_resync or self.mediator is None:
            return _INF
        return max(0.0, now - self.current_as_of)

    def staleness_tag(self, now: float) -> StalenessTag:
        """Per-source staleness disclosure for answers served right now.

        Every source carries at least the replica's lag (the shipping
        pipeline's contribution), widened by whatever the underlying
        mediator's own tag discloses (resync markers → ``inf``).
        """
        lag = self.lag(now)
        base: Mapping[str, float] = {}
        names: Tuple[str, ...] = ()
        if self.mediator is not None:
            base = self.mediator.staleness_tag(now).staleness
            names = tuple(sorted(self.mediator.sources))
        staleness = {name: max(lag, base.get(name, 0.0)) for name in names}
        return StalenessTag(time=now, staleness=staleness)

    def query_tagged(
        self,
        relation: str,
        now: float,
        attrs=None,
        predicate=TRUE,
    ) -> TaggedAnswer:
        """A materialized-only read, tagged with this replica's staleness."""
        if self.mediator is None:
            raise RuntimeError(f"replica {self.name!r} has no state; resync first")
        answer = self.mediator.query_relation(relation, attrs, predicate)
        return TaggedAnswer(answer, self.staleness_tag(now))

    # ------------------------------------------------------------------
    # Failover: become the primary
    # ------------------------------------------------------------------
    def promote(self, now: float) -> PromotionResult:
        """Converge on everything the dead primary committed, then go live.

        The restart path of :mod:`repro.durability.recovery`, run over
        state the replica *already holds* instead of a cold checkpoint
        load:

        0. checkpoints compact the WAL, so transactions this replica never
           applied may survive *only* in the newest checkpoint chain — the
           on-disk tail cannot bridge a gap below the chain's ``wal_txn``.
           The chain is resolved once and installed whenever it is ahead
           (this also heals a promote() forced onto a gapped replica);
        1. :func:`fold_wal_tail` folds the primary's **on-disk WAL** past
           this replica's own ``(source, seq)`` floors — records the
           shipper never delivered (including ones a crash cut off
           mid-ship) are acknowledged transactions and must not be lost;
        2. :func:`catch_up` replays **source logs** past the post-WAL
           cursors — transactions sources committed that the primary never
           saw — in one update transaction, and re-initializes a source
           whose log was compacted past the cursor.  Touching the sources
           is legal now: the primary is dead, so its announcement
           accumulators have no other consumer.

        After this returns, the replica answers as the primary
        (``is_primary`` is set) and has lost no acknowledged transaction.
        """
        if self.mediator is None:
            raise RuntimeError(f"replica {self.name!r} has no state; resync first")
        with self.tracer.span("failover") as span:
            try:
                meta, node_images = self.checkpoints.resolve_chain(
                    self.annotated.nodes_with_storage()
                )
                behind = int(meta.get("wal_txn", 0)) > self.applied_txn
            except MediatorError:
                if self.needs_resync:
                    raise
                behind = False
            if self.needs_resync or behind:
                self._install(meta, node_images, now)
            mediator = self.mediator

            records = WriteAheadLog.read_records(os.path.join(self.directory, WAL_FILENAME))
            nets, cursors, wal_records = fold_wal_tail(records, self.seq_floor)
            wal_txn = max([self.applied_txn] + [record.txn for record in records])
            replayed, stale_gaps, _ = catch_up(mediator, cursors, nets, on_stale="reinit")
            stale = sorted(stale_gaps)

            self.applied_txn = wal_txn
            self.primary_txn_seen = max(self.primary_txn_seen, wal_txn)
            self.current_as_of = now
            self.is_primary = True
            mediator.replication.failovers += 1
            span.set(
                replica=self.name,
                wal_records=wal_records,
                replayed_txns=replayed,
                stale=stale,
            )
            if self.tracer.enabled:
                self.tracer.event(
                    "promotion",
                    replica=self.name,
                    txn=wal_txn,
                    wal_records=wal_records,
                    replayed_txns=replayed,
                    stale=stale,
                )
        return PromotionResult(
            replica=self.name,
            wal_records_replayed=wal_records,
            replayed_txns=replayed,
            reinitialized_sources=tuple(stale),
        )

    def __repr__(self) -> str:
        return (
            f"<ReplicaMediator {self.name!r} txn={self.applied_txn} "
            f"floors={self.seq_floor}>"
        )
