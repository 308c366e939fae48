"""The mediator's incremental-update queue (Section 4, Section 6.1).

Holds announcements from source databases in arrival order.  The IUP's
initialization step "flushes" the queue — takes every currently queued
update — and smashes them into a single delta (:meth:`UpdateQueue.flush`).
Updates arriving during an update transaction "remain in the queue until
the next cycle" (Section 6.4 step 1b); with our transactional drivers that
simply means they are enqueued after the flush.

For the Eager Compensation Algorithm (Section 6.3),
:meth:`UpdateQueue.pending_for_source` exposes the queued-but-unprocessed
deltas of one source without consuming them: those are exactly the updates
whose inverse smash brings a freshly polled answer back to the state the
materialized data reflects.

The paper's Section 4 message assumption — in-order, exactly-once — is
load-bearing: folding one source's delta twice corrupts the net (``+X``
delivered twice nets to ``+2``), and splitting ``+X`` then ``-X`` across
two flushes in the wrong order deletes a row that is not there yet.
Under faulty links the reliability layer (:mod:`repro.faults.reliable`)
restores that contract upstream, and the queue defends in depth: an
announcement carrying a per-source sequence number is deduplicated
idempotently and, if it arrives ahead of a
lower-numbered sibling, is held in sequence order so the flush fold stays
faithful to the source's commit timeline.

When an update transaction must be abandoned mid-flight (a needed source
went down between flush and poll — see :class:`~repro.errors.SourceUnavailableError`),
:meth:`UpdateQueue.requeue_front` puts the flushed entries back at the head
so the next cycle retries them, ahead of anything that arrived since.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.deltas import Delta
from repro.obs.provenance import TxnOrigin

__all__ = ["QueueStats", "QueuedUpdate", "UpdateQueue"]


@dataclass
class QueueStats:
    """Flush-fold counters, registered with the mediator's metrics registry.

    ``deltas_compacted`` counts the atoms the pre-compaction fold removed:
    the gross atom count of every flushed message minus the atom count of
    the per-source net deltas actually handed to the IUP.  Cancellation
    (``+X`` then ``-X``) and coalescing both land here — it is the exact
    amount of propagation input the fold saved.
    """

    deltas_compacted: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default)


@dataclass(frozen=True)
class QueuedUpdate:
    """One announcement sitting in the queue."""

    source: str
    delta: Delta
    send_time: Optional[float] = None  # simulated send time, when available
    arrival_time: Optional[float] = None
    seq: Optional[int] = None  # per-source sequence number, when sequenced
    txn_id: int = 0  # monotone per-source stamp assigned at enqueue
    #: The source-log cursor this announcement brings a reader up to (the
    #: source's transaction count at announcement-take time), when the
    #: collector threads it through.  Durability records it in the WAL so a
    #: restart knows where each source's log replay should resume.
    cursor: Optional[int] = None

    @property
    def origin(self) -> TxnOrigin:
        """This announcement's provenance origin (``source#txn_id``)."""
        return TxnOrigin(self.source, self.txn_id)


class UpdateQueue:
    """An in-order queue of source announcements."""

    def __init__(self) -> None:
        self._entries: List[QueuedUpdate] = []
        self._seen_seqs: Dict[str, Set[int]] = {}
        self._last_flushed_send: Dict[str, float] = {}
        self._reflected_cursors: Dict[str, int] = {}
        # Announcement sinks fire from VAP poll worker threads when sources
        # are polled concurrently; everything touching the entry list takes
        # this lock so arrival order stays a single consistent sequence.
        self._lock = threading.Lock()
        self._txn_counters: Dict[str, int] = {}
        self.total_enqueued = 0
        self.total_flushed = 0
        self.total_requeued = 0
        self.duplicates_dropped = 0
        self.reordered_arrivals = 0
        self.batches_flushed = 0
        self.messages_folded = 0
        self.stats = QueueStats()

    def enqueue(
        self,
        source: str,
        delta: Delta,
        send_time: Optional[float] = None,
        arrival_time: Optional[float] = None,
        seq: Optional[int] = None,
        cursor: Optional[int] = None,
    ) -> bool:
        """Accept one announcement (a single indivisible net-update message).

        With ``seq`` given, duplicates of an already-seen ``(source, seq)``
        are smashed idempotently (dropped, counted) and an arrival that
        overtook a lower-numbered same-source message is inserted in
        sequence order rather than arrival order.  Returns True when the
        entry was actually queued.

        Every *accepted* entry is stamped with a monotone per-source
        ``txn_id`` — the announcement's provenance origin
        (:class:`~repro.obs.provenance.TxnOrigin`).  Duplicates never
        consume an id, so one source transaction keeps one identity no
        matter how many times the network re-delivers it.
        """
        with self._lock:
            if seq is not None:
                seen = self._seen_seqs.setdefault(source, set())
                if seq in seen:
                    self.duplicates_dropped += 1
                    return False
                seen.add(seq)
            txn_id = self._txn_counters.get(source, 0) + 1
            self._txn_counters[source] = txn_id
            entry = QueuedUpdate(
                source, delta, send_time, arrival_time, seq, txn_id, cursor
            )
            position = len(self._entries)
            if seq is not None:
                for i, existing in enumerate(self._entries):
                    if (
                        existing.source == source
                        and existing.seq is not None
                        and existing.seq > seq
                    ):
                        position = i
                        break
            if position < len(self._entries):
                self.reordered_arrivals += 1
                self._entries.insert(position, entry)
            else:
                self._entries.append(entry)
            self.total_enqueued += 1
            return True

    def __len__(self) -> int:
        return len(self._entries)

    def is_empty(self) -> bool:
        """True when nothing is queued."""
        return not self._entries

    def flush(self) -> Tuple[Optional[Delta], List[QueuedUpdate]]:
        """Empty the queue; return the combined net delta and the entries.

        This is the IUP's ``empty_queue`` moment.  Entries are folded in
        arrival order by additive smash (:meth:`Delta.absorb`): two
        in-order messages from one source may carry ``+X`` then ``-X``
        (insert then delete between flushes), whose counts cancel to
        nothing — the true net effect.  Entries from different
        sources mention disjoint relations, so folding each source's
        messages into one per-source batch first, then combining batches,
        is both safe and order-faithful — and hands the IUP one net delta
        per source regardless of how many announcements arrived, so N
        messages cost a single propagation pass.
        """
        with self._lock:
            entries = self._entries
            self._entries = []
            self.total_flushed += len(entries)
        if not entries:
            return None, entries
        per_source: Dict[str, Delta] = {}
        for entry in entries:
            net = per_source.setdefault(entry.source, Delta())
            self.stats.deltas_compacted += net.absorb(entry.delta)
        self.batches_flushed += len(per_source)
        self.messages_folded += len(entries)
        combined = Delta()
        for net in per_source.values():
            combined.absorb(net)
        return combined, entries

    def requeue_front(self, entries: Sequence[QueuedUpdate]) -> None:
        """Put flushed-but-unprocessed entries back at the head of the queue.

        Used when an update transaction is abandoned after its flush (e.g.
        a required source went down before the VAP could poll it): the
        entries must be retried *before* anything that arrived since, or
        per-source ordering breaks.
        """
        if not entries:
            return
        with self._lock:
            self._entries = list(entries) + self._entries
            self.total_requeued += len(entries)
            self.total_flushed -= len(entries)

    def mark_reflected(self, entries: Sequence[QueuedUpdate]) -> None:
        """Record that flushed entries were actually propagated into the
        materialized data (the IUP calls this after its kernel completes —
        not when a transaction is deferred).  Feeds staleness tags."""
        for entry in entries:
            if entry.send_time is not None:
                previous = self._last_flushed_send.get(entry.source, float("-inf"))
                self._last_flushed_send[entry.source] = max(previous, entry.send_time)
            if entry.cursor is not None:
                self.note_reflected_cursor(entry.source, entry.cursor)

    def note_reflected_cursor(self, source: str, cursor: int) -> None:
        """Record that the materialized data reflects ``source``'s log
        through ``cursor`` (monotone — lower values never regress it).
        Seeded at view initialization and advanced by
        :meth:`mark_reflected` for cursor-carrying entries."""
        previous = self._reflected_cursors.get(source, -1)
        self._reflected_cursors[source] = max(previous, cursor)

    def reflected_cursor(self, source: str) -> Optional[int]:
        """The highest source-log cursor known to be reflected in the
        materialized data, or ``None`` when no cursor was ever threaded
        through for this source."""
        return self._reflected_cursors.get(source)

    def discard_source(self, source: str) -> int:
        """Drop every queued entry of one source; returns how many.

        Selective re-initialization replaces a source's materialized
        contributions with a fresh snapshot — announcements queued before
        the swap describe transactions the snapshot already reflects, and
        flushing them afterwards would double-apply.
        """
        with self._lock:
            kept = [e for e in self._entries if e.source != source]
            dropped = len(self._entries) - len(kept)
            self._entries = kept
            return dropped

    def forget_source(self, source: str) -> int:
        """Drop *all* state of one source: queued entries, dedup history,
        txn counter, cursors, send times.  Returns how many queued entries
        were dropped.

        Used when a source leaves the federation.  Unlike
        :meth:`discard_source` (which keeps sequencing state so the same
        source's later announcements still deduplicate), this forgets the
        source completely — if it ever re-attaches it starts a fresh
        sequencing timeline, exactly like a source never seen before.
        """
        with self._lock:
            kept = [e for e in self._entries if e.source != source]
            dropped = len(self._entries) - len(kept)
            self._entries = kept
            self._seen_seqs.pop(source, None)
            self._txn_counters.pop(source, None)
            self._reflected_cursors.pop(source, None)
            self._last_flushed_send.pop(source, None)
            return dropped

    def pending_for_source(self, source: str) -> List[Delta]:
        """Queued (unflushed) deltas of one source, in arrival order."""
        with self._lock:
            return [e.delta for e in self._entries if e.source == source]

    def last_send_time(self, source: str) -> Optional[float]:
        """Send time of the most recent queued announcement from a source."""
        with self._lock:
            times = [
                e.send_time
                for e in self._entries
                if e.source == source and e.send_time is not None
            ]
        return times[-1] if times else None

    def last_flushed_send_time(self, source: str) -> Optional[float]:
        """Send time of the newest update of ``source`` ever flushed into an
        update transaction — i.e. how recent the materialized data's
        knowledge of that source is.  Feeds staleness tags."""
        value = self._last_flushed_send.get(source)
        return value if value != float("-inf") else None

    def peek(self) -> List[QueuedUpdate]:
        """A copy of the current entries (observers only)."""
        with self._lock:
            return list(self._entries)
