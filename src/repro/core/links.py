"""Source links: how the mediator reaches source databases.

A :class:`SourceLink` answers queries against one source and guarantees the
ordering property the Eager Compensation Algorithm needs: *every
announcement the source sent before answering a poll is delivered to the
mediator's update queue before the answer is used*.  With in-order channels
(Section 4's message assumption) this holds automatically; link
implementations enforce it explicitly:

* :class:`DirectLink` — in-process calls.  Before answering, any pending
  (committed but unannounced) net update of an announcing source is taken
  and handed to the mediator's queue ("flush-before-answer").
* The simulation driver (:mod:`repro.runtime`) wraps a link around a
  delayed channel and *expedites* in-flight announcements before answering,
  which is the same FIFO guarantee under simulated latency.

Links also package all of one poll round's queries to a source into a
single source transaction (one snapshot), which is how the VAP ensures "no
more than one state of the same source can contribute to the view state".
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.deltas import SetDelta
from repro.relalg import Evaluator, Expression, Relation
from repro.sources.base import SourceDatabase

__all__ = ["SourceLink", "DirectLink", "DelayedLink"]

#: ``sink(source_name, delta, cursor=...)`` — cursor is the source-log
#: position the delta brings the reader up to (durability metadata).
AnnouncementSink = Callable[..., None]


class SourceLink:
    """Abstract link from the mediator to one source database."""

    #: Whether ``poll_many`` may be called from a worker thread while other
    #: links are being polled.  Links whose transport shares non-thread-safe
    #: state with the caller (e.g. the simulated-channel links, which drive
    #: a single-threaded event clock) must leave this False; the VAP then
    #: falls back to the serial poll loop.
    supports_parallel_poll = False

    def __init__(self, source_name: str):
        self.source_name = source_name
        self.poll_count = 0
        self.polled_rows = 0

    def poll_many(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        """Answer several queries against one snapshot of the source.

        Implementations must first deliver every announcement the source
        has already produced (the FIFO/flush-before-answer guarantee).
        Raises :class:`~repro.errors.SourceUnavailableError` when the
        source cannot currently be reached (see :meth:`is_available`).
        """
        raise NotImplementedError

    def is_available(self) -> bool:
        """True when the source can be polled right now.

        In-process links are always available; channel-backed links
        consult their fault plan's outage windows, so callers can degrade
        gracefully (serve tagged materialized data, defer update
        transactions) instead of failing mid-poll.
        """
        return True

    def outage_until(self) -> Optional[float]:
        """End time of the current outage window, when one is active."""
        return None

    def now(self) -> Optional[float]:
        """The link's notion of current time (simulated clock), if any."""
        return None


class DirectLink(SourceLink):
    """In-process link to a :class:`SourceDatabase`."""

    def __init__(
        self,
        source: SourceDatabase,
        announcement_sink: Optional[AnnouncementSink] = None,
        announces: bool = True,
    ):
        """``announcement_sink`` receives flushed announcements (usually the
        mediator's queue); ``announces=False`` marks a pure
        virtual-contributor, whose pending updates are irrelevant and are
        discarded rather than delivered."""
        super().__init__(source.name)
        self.source = source
        self.announcement_sink = announcement_sink
        self.announces = announces

    @property
    def supports_parallel_poll(self) -> bool:
        """True unless the source must be polled from its creating thread.

        Otherwise safe: the flush+snapshot pair is atomic under the
        source's lock, and the announcement sink (the mediator's update
        queue) locks internally.
        """
        return not self.source.thread_affine

    def poll_many(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        # Sources that can execute queries internally (SQLite) answer the
        # whole poll round inside one database transaction: announcement,
        # cursor, and answers are taken atomically and no Python snapshot
        # of the full source is materialized.  The source counts its own
        # queries (and its pushdown/fallback split), so only the link-side
        # counters are maintained here.
        if getattr(self.source, "supports_pushdown", False):
            announcement, cursor, answers = self.source.poll_and_query(queries)
            if (
                announcement is not None
                and self.announces
                and self.announcement_sink is not None
            ):
                self.announcement_sink(self.source_name, announcement, cursor=cursor)
            self.poll_count += 1
            for answer in answers.values():
                self.polled_rows += answer.cardinality()
            return answers
        # Flush-before-answer and the snapshot form one source transaction:
        # no commit can land between them, so the snapshot reflects exactly
        # the announcements delivered so far.  The cursor rides along so
        # the durability layer can record how far into the source's log the
        # delivered announcement reaches.
        announcement, cursor, snapshot = self.source.poll_transaction_versioned()
        if announcement is not None and self.announces and self.announcement_sink is not None:
            self.announcement_sink(self.source_name, announcement, cursor=cursor)
        # Non-announcing (virtual-contributor) sources simply drop the
        # accumulated net update: nothing materialized depends on it.
        self.source.query_count += len(queries)
        self.poll_count += 1
        answers: Dict[str, Relation] = {}
        evaluator = Evaluator(snapshot)
        for name, expr in queries.items():
            answer = evaluator.evaluate(expr, name)
            self.polled_rows += answer.cardinality()
            answers[name] = answer
        return answers


class DelayedLink(DirectLink):
    """A :class:`DirectLink` with a fixed per-poll wall-clock delay.

    Benchmarks use it to make source round-trip latency visible: with N
    delayed sources, serial polling costs ~N·delay of wall time while the
    VAP's concurrent fan-out costs ~delay.  Keep it out of the simulator —
    fault-plan latency lives in the channel layer; this one really sleeps.
    """

    def __init__(self, *args, delay: float = 0.05, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay

    def poll_many(self, queries: Mapping[str, Expression]) -> Dict[str, Relation]:
        import time

        time.sleep(self.delay)
        return super().poll_many(queries)
