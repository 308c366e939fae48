"""The Squirrel integration mediator (Section 4, Figure 3).

A mediator consists of five components wired together here:

* the **local store** — the annotated VDP, the materialized portions of the
  view, auxiliary materialized data, and the rulebase;
* the **query processor (QP)** — the interface for querying the view;
* the **virtual attributes processor (VAP)** — constructs temporary
  relations for virtual data, polling sources as needed;
* the **update queue** — holds incremental updates announced by sources;
* the **incremental update processor (IUP)** — propagates queued updates
  into the materialized data under rulebase control.

The three information flows of Section 4 map onto three methods:
announcements arrive through :meth:`SquirrelMediator.enqueue_update` (flow
1, processed by :meth:`run_update_transaction`), the VAP's polls travel
through the source links (flow 2), and queries enter through
:meth:`SquirrelMediator.query` (flow 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple, Union as TypingUnion

from repro.core.annotations import Annotation
from repro.core.builder import extend_vdp
from repro.core.derived_from import TempRequest
from repro.core.iup import IncrementalUpdateProcessor, UpdateTransactionResult
from repro.core.links import DirectLink, SourceLink
from repro.core.local_store import LocalStore
from repro.core.query_processor import QueryProcessor
from repro.core.rulebase import RuleBase
from repro.core.update_queue import UpdateQueue
from repro.core.vap import VirtualAttributeProcessor
from repro.core.vap_cache import VAPTempCache
from repro.core.vdp import VDP, AnnotatedVDP
from repro.deltas import Delta
from repro.errors import AnnotationError, MediatorError, SourceUnavailableError
from repro.faults.staleness import StalenessTag, TaggedAnswer
from repro.obs.metrics import MetricsRegistry, dataclass_counter_items
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import (
    TRUE,
    Evaluator,
    Expression,
    Predicate,
    Project,
    Relation,
    Scan,
    parse_expression,
)
from repro.sources.base import SourceDatabase
from repro.sources.contributors import ContributorKind

__all__ = [
    "AttachResult",
    "DetachResult",
    "MediatorStats",
    "ReplicationStats",
    "STATS_METRICS",
    "SquirrelMediator",
]

QueryInput = TypingUnion[str, Expression]


@dataclass
class ReplicationStats:
    """Counters for the WAL-shipping replication layer (``repro.replication``).

    Registered as ``replication.*`` on **every** mediator so the
    :data:`STATS_METRICS` derivation is total; a mediator with no
    :class:`~repro.replication.WalShipper` attached simply reports zeros.
    ``replica_lag`` is a gauge — the worst current replica ignorance
    window (Theorem 7.2 terms), not a monotone counter.
    """

    records_shipped: int = 0
    replica_lag: float = 0.0
    replica_resyncs: int = 0
    failovers: int = 0


@dataclass
class MediatorStats:
    """A one-stop snapshot of every component's counters.

    The snapshot is *derived* from the mediator's metrics registry
    (:attr:`SquirrelMediator.metrics`) via :data:`STATS_METRICS` — adding a
    field here means adding one mapping row, not another hand-copied
    assignment in :meth:`SquirrelMediator.stats`."""

    queries: int
    materialized_only_queries: int
    virtual_queries: int
    update_transactions: int
    rules_fired: int
    polls: int
    polled_rows: int
    compensations: int
    key_based_constructions: int
    cache_hits: int
    cache_misses: int
    cache_invalidations: int
    parallel_poll_batches: int
    poll_wall_time: float
    stored_rows: int
    stored_cells: int
    rows_scanned: int
    rows_hashed: int
    index_probes: int
    index_rebuilds: int
    propagation_passes: int
    deltas_compacted: int
    deltas_smashed: int
    pushdown_queries: int
    fallback_queries: int
    stored_bytes: int
    records_shipped: int
    replica_lag: float
    replica_resyncs: int
    failovers: int

    def diff(self, other: "MediatorStats") -> "MediatorStats":
        """Per-field ``self - other`` — counter deltas across a workload
        window (take a snapshot before, one after, diff them)."""
        before = dict(dataclass_counter_items(other))
        return MediatorStats(
            **{name: value - before[name] for name, value in dataclass_counter_items(self)}
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain field→value mapping, in declaration order."""
        return dict(dataclass_counter_items(self))


#: MediatorStats field -> metrics-registry reading it is derived from.
STATS_METRICS: Dict[str, str] = {
    "queries": "qp.queries",
    "materialized_only_queries": "qp.materialized_only",
    "virtual_queries": "qp.with_virtual",
    "update_transactions": "iup.transactions",
    "rules_fired": "iup.rules_fired",
    "polls": "vap.polls",
    "polled_rows": "vap.polled_rows",
    "compensations": "vap.compensations",
    "key_based_constructions": "vap.key_based_used",
    "cache_hits": "vap.cache_hits",
    "cache_misses": "vap.cache_misses",
    "cache_invalidations": "vap.cache_invalidations",
    "parallel_poll_batches": "vap.parallel_poll_batches",
    "poll_wall_time": "vap.poll_wall_time",
    "stored_rows": "store.stored_rows",
    "stored_cells": "store.stored_cells",
    "rows_scanned": "eval.rows_scanned",
    "rows_hashed": "eval.rows_hashed",
    "index_probes": "eval.index_probes",
    "index_rebuilds": "eval.index_rebuilds",
    "propagation_passes": "iup.propagation_passes",
    "deltas_compacted": "queue.deltas_compacted",
    "deltas_smashed": "store.deltas_smashed",
    "pushdown_queries": "sources.pushdown_queries",
    "fallback_queries": "sources.fallback_queries",
    "stored_bytes": "store.stored_bytes",
    "records_shipped": "replication.records_shipped",
    "replica_lag": "replication.replica_lag",
    "replica_resyncs": "replication.replica_resyncs",
    "failovers": "replication.failovers",
}


@dataclass(frozen=True)
class AttachResult:
    """What one dynamic :meth:`SquirrelMediator.attach_source` did."""

    source: str
    new_nodes: Tuple[str, ...]      # every node the extension added, topologically
    backfill_nodes: Tuple[str, ...]  # the storing subset that was populated
    backfill_rows: int               # total multiplicity backfilled
    cursor: int                      # the source-log position the backfill reflects


@dataclass(frozen=True)
class DetachResult:
    """What one dynamic :meth:`SquirrelMediator.detach_source` did."""

    source: str
    removed_nodes: Tuple[str, ...]   # leaves + every ancestor that left with them
    retired_repos: Tuple[str, ...]   # removed nodes whose storage was dropped
    dropped_messages: int            # queued announcements discarded with the source


class SquirrelMediator:
    """A deployed Squirrel integration mediator."""

    def __init__(
        self,
        annotated: AnnotatedVDP,
        sources: Mapping[str, SourceDatabase],
        links: Optional[Mapping[str, SourceLink]] = None,
        eca_enabled: bool = True,
        key_based_enabled: bool = True,
        tracer: Tracer = NULL_TRACER,
    ):
        """Wire a mediator over the given sources.

        ``links`` overrides the default in-process :class:`DirectLink` per
        source — the simulation runtime passes channel-aware links here.
        ``eca_enabled`` / ``key_based_enabled`` are the two mechanisms the
        paper ablates — Eager-Compensation of polled answers (§6.3) and
        key-based construction (Example 2.3); production use leaves them
        on.
        ``tracer`` (default: the shared disabled :data:`NULL_TRACER`) is
        threaded through every component; pass an enabled
        :class:`~repro.obs.tracer.Tracer` to record spans/events, construct
        it with ``provenance=True`` for delta provenance, and attach a
        :class:`~repro.obs.profile.CostProfiler` to it
        (``CostProfiler().attach(tracer)``) for per-node costs.
        """
        self.tracer = tracer
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.sources = dict(sources)
        self.contributor_kinds: Dict[str, ContributorKind] = annotated.contributor_kinds()
        self._check_sources()

        self.queue = UpdateQueue()
        self.store = LocalStore(annotated)
        self.rulebase = RuleBase(self.vdp)
        self.store.declare_index_requirements(self.rulebase.index_requirements())
        self.links: Dict[str, SourceLink] = dict(links) if links else {}
        for name, source in self.sources.items():
            if name not in self.links:
                kind = self.contributor_kinds.get(name)
                self.links[name] = DirectLink(
                    source,
                    announcement_sink=self.enqueue_update,
                    announces=bool(kind and kind.announces),
                )
        self.vap = VirtualAttributeProcessor(
            annotated,
            self.store,
            self.links,
            self.queue,
            eca_enabled=eca_enabled,
            key_based_enabled=key_based_enabled,
            tracer=tracer,
        )
        self.iup = IncrementalUpdateProcessor(
            annotated,
            self.store,
            self.rulebase,
            self.vap,
            self.queue,
            tracer=tracer,
        )
        self.qp = QueryProcessor(annotated, self.store, self.vap, tracer=tracer)
        self.metrics = MetricsRegistry()
        self.metrics.register_stats("qp", self.qp.stats)
        self.metrics.register_stats("iup", self.iup.stats)
        self.metrics.register_stats("vap", self.vap.stats)
        self.metrics.register_stats("eval", self.store.counters)
        self.metrics.register_stats("queue", self.queue.stats)
        self.metrics.register_stats("store", self.store.stats)
        # Zero until a repro.replication.WalShipper attaches to this
        # mediator's durability manager and starts updating them.
        self.replication = ReplicationStats()
        self.metrics.register_stats("replication", self.replication)
        self.metrics.register_callable("store.stored_rows", self.store.total_stored_rows)
        self.metrics.register_callable("store.stored_cells", self.store.total_stored_cells)
        self.metrics.register_callable("store.stored_bytes", self.store.total_stored_bytes)
        self.metrics.register_callable(
            "sources.pushdown_queries",
            lambda: sum(
                getattr(s, "pushdown_queries", 0) for s in self.sources.values()
            ),
        )
        self.metrics.register_callable(
            "sources.fallback_queries",
            lambda: sum(
                getattr(s, "fallback_queries", 0) for s in self.sources.values()
            ),
        )
        self._initialized = False
        # Sources whose materialized contributions are being rebuilt after a
        # recovery found their logs truncated (selective re-initialization
        # in flight).  Answers served meanwhile disclose them as stale.
        self._resyncing: Set[str] = set()

    def _check_sources(self) -> None:
        for leaf in self.vdp.leaves():
            source_name = self.vdp.source_of_leaf(leaf)
            source = self.sources.get(source_name)
            if source is None:
                raise MediatorError(f"no source database named {source_name!r} supplied")
            if leaf not in source.schemas:
                raise MediatorError(
                    f"source {source_name!r} has no relation {leaf!r} (leaf names must "
                    "match source relation names)"
                )
            leaf_schema = self.vdp.node(leaf).schema
            if source.schemas[leaf].attribute_names != leaf_schema.attribute_names:
                raise MediatorError(
                    f"leaf {leaf!r} schema mismatch between VDP and source {source_name!r}"
                )

    # ------------------------------------------------------------------
    # View initialization
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Load every materialized node bottom-up from the current sources.

        This is ``t_view_init``: the initial population is computed from one
        snapshot of each source (sources are read one at a time — the view
        then reflects a state *vector*, as the consistency definition
        allows).
        """
        with self.tracer.span("view_init") as span:
            leaf_values: Dict[str, Relation] = {}
            for source_name in sorted({self.vdp.source_of_leaf(l) for l in self.vdp.leaves()}):
                source = self.sources[source_name]
                # One atomic source transaction: the pending announcement is
                # discarded (the snapshot already reflects it) and the
                # returned cursor is exactly the log position the snapshot
                # corresponds to — the durability layer's replay origin.
                snapshot, cursor = source.initial_snapshot()
                for leaf in self.vdp.leaves_of_source(source_name):
                    leaf_values[leaf] = snapshot[leaf]
                self.queue.note_reflected_cursor(source_name, cursor)
            self.store.initialize(leaf_values)
            # Any cached temporaries reflect the pre-initialization state.
            self.vap.clear_cache()
            self.tracer.provenance.clear()
            self._initialized = True
            span.set(leaves=sorted(leaf_values))

    @property
    def initialized(self) -> bool:
        """True once :meth:`initialize` has run."""
        return self._initialized

    def install_source_prefilters(self) -> int:
        """Enable the Section 6.2 source-side optimization.

        Builds one :class:`~repro.deltas.LeafParentFilter` per leaf-parent
        node from its definition chain and installs the set at each
        announcing source, so atoms irrelevant to every leaf-parent are
        dropped *before* transmission.  Returns the number of filters
        installed.  (Correct by construction: an atom is kept whenever any
        leaf-parent's selection accepts it or its relation is unfiltered.)
        """
        from repro.deltas import LeafParentFilter

        per_source: Dict[str, list] = {}
        for lp in self.vdp.leaf_parents():
            definition = self.vdp.node(lp).definition
            filt = LeafParentFilter.from_chain(lp, definition)
            source_name = self.vdp.source_of_leaf(self.vdp.children(lp)[0])
            per_source.setdefault(source_name, []).append(filt)
        installed = 0
        for source_name, filters in per_source.items():
            kind = self.contributor_kinds.get(source_name)
            if kind is None or not kind.announces:
                continue
            self.sources[source_name].set_prefilters(filters)
            installed += len(filters)
        return installed

    # ------------------------------------------------------------------
    # Dynamic federation membership (Section 8 — "Dynamicity")
    # ------------------------------------------------------------------
    def attach_source(
        self,
        source: SourceDatabase,
        views: Mapping[str, TypingUnion[str, Expression]],
        annotations: Optional[Mapping[str, TypingUnion[str, Annotation]]] = None,
        exports: Optional[Sequence[str]] = None,
        link: Optional[SourceLink] = None,
    ) -> AttachResult:
        """Grow the federation with a new source at runtime.

        ``views`` defines the nodes the source contributes (they may
        reference existing VDP nodes — joins against the current federation
        are the normal case); ``annotations`` annotates the new nodes
        (``"m"``/``"materialized"``, ``"v"``/``"virtual"``, the paper's
        bracket form, or :class:`Annotation` objects — unmentioned new
        nodes, hoisted leaf-parents included, default to fully
        materialized); ``exports`` defaults to every new view name.

        The attach does **not** quiesce unrelated subtrees.  New storing
        nodes are backfilled through the ordinary VAP path: polls are
        pinned to the state the materialized data already reflects by the
        Eager Compensation Algorithm, so announcements sitting in the queue
        are excluded from the backfill and propagate through the new rules
        on the next update transaction — exactly once either way.  During
        the backfill the new source is flagged mid-resync, so tagged
        answers disclose it honestly.  With a durability manager attached,
        the attach commits a full checkpoint (the structural change
        invalidates incremental chains).

        The attach is atomic: if the backfill fails (a partner link down
        mid-poll raises ``SourceUnavailableError``, the common case), the
        source registration, link, queue cursor, and structural swap are
        all rolled back before the exception propagates, so the mediator
        is exactly as if the attach was never attempted and the call can
        simply be retried.
        """
        self._require_init()
        name = source.name
        if name in self.sources:
            raise MediatorError(f"source {name!r} is already attached")
        source_schemas = dict(source.schemas)
        source_of = {rel: name for rel in source.schemas}
        export_list = sorted(views) if exports is None else list(exports)
        new_vdp = extend_vdp(self.vdp, source_schemas, source_of, views, export_list)
        old_names = set(self.vdp.nodes)
        new_names = tuple(n for n in new_vdp.topological_order() if n not in old_names)
        new_annotated = AnnotatedVDP(
            new_vdp, self._resolve_new_annotations(new_vdp, new_names, annotations)
        )
        new_kinds = new_annotated.contributor_kinds()

        # Existing sources the extension flips to announcing: their pending
        # accumulators cover transactions the backfill polls are about to
        # reflect — drain (and discard) them now so they are never
        # delivered post-flip and double-applied.
        for other in sorted(self.sources):
            kind = new_kinds.get(other)
            old_kind = self.contributor_kinds.get(other)
            if kind and kind.announces and not (old_kind and old_kind.announces):
                _, other_cursor = self.sources[other].take_announcement_versioned()
                self.queue.note_reflected_cursor(other, other_cursor)

        # One atomic (drain, cursor) on the joining source: the backfill
        # polls that follow observe exactly transactions 1..cursor, and any
        # later commit reaches the queue as an ordinary announcement.
        prev_annotated = self.annotated
        _, cursor = source.initial_snapshot()
        self.sources[name] = source
        joining_kind = new_kinds.get(name)
        if link is None:
            link = DirectLink(
                source,
                announcement_sink=self.enqueue_update,
                announces=bool(joining_kind and joining_kind.announces),
            )
        self.links[name] = link
        self.queue.note_reflected_cursor(name, cursor)
        self._install_structure(new_annotated)

        storing = tuple(
            n
            for n in new_names
            if not new_vdp.node(n).is_leaf
            and new_annotated.annotation(n).materialized_attrs
        )
        backfill_rows = 0
        self.begin_resync(name)
        try:
            with self.tracer.span(
                "backfill", source=name, nodes=sorted(storing)
            ) as span:
                if storing:
                    requests = [
                        TempRequest(
                            n, frozenset(new_vdp.node(n).schema.attribute_names)
                        )
                        for n in storing
                    ]
                    values = self.vap.materialize(requests, {})
                    for n in storing:
                        value = values[n]
                        # Temps carry attributes in request (sorted) order;
                        # repositories must use the node's declared order.
                        want = new_vdp.node(n).schema.attribute_names
                        if value.schema.attribute_names != want:
                            value = Evaluator({n: value}).evaluate(
                                Project(Scan(n), list(want)), n
                            )
                        self.store.reinitialize_node(n, value)
                        backfill_rows += value.cardinality()
                span.set(rows=backfill_rows)
        except BaseException:
            # Atomicity: undo everything installed above so the failed
            # attach leaves no trace — partially backfilled repositories,
            # the registration, the link, the queue cursor, and the
            # extended structure all revert, and the caller may retry.
            for n in storing:
                self.store.retire_node(n)
            self.sources.pop(name, None)
            self.links.pop(name, None)
            self.queue.forget_source(name)
            self._install_structure(prev_annotated)
            raise
        finally:
            self.end_resync(name)
        # Temps cached while the new repositories were still absent would
        # bypass them afterwards; start the cache clean over the new VDP.
        self.vap.clear_cache()
        if self.tracer.enabled:
            self.tracer.event(
                "source_attach",
                source=name,
                nodes=sorted(new_names),
                backfill_nodes=sorted(storing),
                backfill_rows=backfill_rows,
            )
        if self.iup.durability is not None:
            self.iup.durability.checkpoint(full=True)
        return AttachResult(name, new_names, storing, backfill_rows, cursor)

    def detach_source(self, name: str) -> DetachResult:
        """Shrink the federation: remove a source and its dependent subtree.

        Every leaf of the source leaves the VDP together with all its
        ancestors (any node whose value depends on the departed data).
        Remaining nodes are untouched — their repositories, ΔR state and
        queued announcements survive; exports shrink to the surviving
        names, with any newly-maximal surviving node auto-exported to keep
        the VDP valid.  All queue state of the departed source (queued
        entries included — a deferred transaction's requeued messages among
        them) is forgotten, so a later re-attach starts a fresh timeline.
        """
        self._require_init()
        if name not in self.sources:
            raise MediatorError(f"cannot detach unknown source {name!r}")
        removed = frozenset(self.vdp.upward(self.vdp.leaves_of_source(name)))
        remaining_nodes = [
            node for node_name, node in self.vdp.nodes.items() if node_name not in removed
        ]
        remaining = {n.name for n in remaining_nodes}
        exports = [e for e in self.vdp.exports if e in remaining]
        # A surviving non-leaf whose every parent departed is newly maximal
        # and must be exported for the VDP to stay valid.
        for node in remaining_nodes:
            if node.is_leaf or node.name in exports:
                continue
            if not any(p in remaining for p in self.vdp.parents(node.name)):
                exports.append(node.name)
        new_vdp = VDP(remaining_nodes, exports)
        new_annotated = AnnotatedVDP(
            new_vdp,
            {
                n: ann
                for n, ann in self.annotated.annotations.items()
                if n in remaining
            },
        )
        retired = tuple(sorted(n for n in removed if self.store.has_repo(n)))
        for n in removed:
            self.store.retire_node(n)
        dropped = self.queue.forget_source(name)
        self.sources.pop(name)
        self.links.pop(name, None)
        self._resyncing.discard(name)
        self._install_structure(new_annotated)
        self.vap.clear_cache()
        if self.tracer.enabled:
            self.tracer.event(
                "source_detach",
                source=name,
                removed_nodes=sorted(removed),
                dropped_messages=dropped,
            )
        if self.iup.durability is not None:
            self.iup.durability.checkpoint(full=True)
        return DetachResult(name, tuple(sorted(removed)), retired, dropped)

    def _resolve_new_annotations(
        self,
        new_vdp: VDP,
        new_names: Sequence[str],
        overrides: Optional[Mapping[str, TypingUnion[str, Annotation]]],
    ) -> Dict[str, Annotation]:
        resolved = dict(self.annotated.annotations)
        pending = dict(overrides or {})
        for node_name in new_names:
            node = new_vdp.node(node_name)
            if node.is_leaf:
                continue
            override = pending.pop(node_name, None)
            attrs = node.schema.attribute_names
            if override is None or override in ("m", "materialized"):
                resolved[node_name] = Annotation.all_materialized(attrs)
            elif isinstance(override, Annotation):
                resolved[node_name] = override
            elif override in ("v", "virtual"):
                resolved[node_name] = Annotation.all_virtual(attrs)
            else:
                resolved[node_name] = Annotation.parse(override)
        if pending:
            raise AnnotationError(
                f"annotations for unknown new nodes: {sorted(pending)}"
            )
        return resolved

    def _install_structure(self, annotated: AnnotatedVDP) -> None:
        """Swap every component onto a new annotated VDP, in place.

        The store's repositories, the update queue, the links, all counters
        and the durability hook survive — only the structural views of the
        world (VDP, annotations, rulebase, contributor kinds, VAP cache and
        planning memos) are replaced.  Callers must have ``self.sources``
        already matching the new VDP's leaves.
        """
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.contributor_kinds = annotated.contributor_kinds()
        self._check_sources()
        self.store.annotated = annotated
        self.store.vdp = annotated.vdp
        self.rulebase = RuleBase(self.vdp)
        self.store.declare_index_requirements(self.rulebase.index_requirements())
        vap = self.vap
        vap.annotated = annotated
        vap.vdp = annotated.vdp
        vap.links = dict(self.links)
        vap.cache = VAPTempCache(self.vdp)
        self.iup.annotated = annotated
        self.iup.vdp = annotated.vdp
        self.iup.rulebase = self.rulebase
        self.qp.annotated = annotated
        self.qp.vdp = annotated.vdp
        # Contributor kinds may have flipped for surviving sources (a new
        # materialized consumer, or the last one leaving).
        for source_name, source_link in self.links.items():
            if hasattr(source_link, "announces"):
                kind = self.contributor_kinds.get(source_name)
                source_link.announces = bool(kind and kind.announces)

    # ------------------------------------------------------------------
    # Flow 1: incremental updates
    # ------------------------------------------------------------------
    def enqueue_update(
        self,
        source_name: str,
        delta: Delta,
        send_time: Optional[float] = None,
        arrival_time: Optional[float] = None,
        seq: Optional[int] = None,
        cursor: Optional[int] = None,
    ) -> None:
        """Receive one announcement message from a source.

        ``seq`` (per-source sequence number, supplied by reliability-aware
        drivers) lets the queue smash duplicates idempotently and hold
        overtaking arrivals in sequence order — see
        :meth:`UpdateQueue.enqueue`.  ``cursor`` (the source-log position
        the message brings a reader up to) feeds the durability layer's
        write-ahead log when present.
        """
        if source_name not in self.sources:
            raise MediatorError(f"announcement from unknown source {source_name!r}")
        self.queue.enqueue(source_name, delta, send_time, arrival_time, seq=seq, cursor=cursor)

    def collect_announcements(self) -> int:
        """Pull pending net updates from every announcing source (the
        in-process stand-in for sources actively pushing); returns the
        number of messages enqueued."""
        self._require_init()
        collected = 0
        for name in self.annotated.announcing_sources():
            announcement, cursor = self.sources[name].take_announcement_versioned()
            if announcement is not None:
                self.enqueue_update(name, announcement, cursor=cursor)
                collected += 1
        return collected

    def run_update_transaction(self) -> UpdateTransactionResult:
        """One IUP execution over whatever the queue currently holds."""
        self._require_init()
        return self.iup.run_transaction()

    def refresh(self) -> UpdateTransactionResult:
        """Convenience: collect announcements, then run an update transaction."""
        self.collect_announcements()
        return self.run_update_transaction()

    # ------------------------------------------------------------------
    # Flow 3: queries
    # ------------------------------------------------------------------
    def query(self, query: QueryInput, name: str = "answer") -> Relation:
        """Answer a query (text or expression) over the integrated view."""
        self._require_init()
        expr = parse_expression(query) if isinstance(query, str) else query
        return self.qp.query(expr, name)

    def query_relation(
        self,
        relation: str,
        attrs: Optional[Sequence[str]] = None,
        predicate: Predicate = TRUE,
    ) -> Relation:
        """The paper's ``π_A σ_f R`` query form against one view relation."""
        self._require_init()
        return self.qp.query_relation(relation, attrs, predicate)

    # ------------------------------------------------------------------
    # Graceful degradation under source outages
    # ------------------------------------------------------------------
    def source_availability(self) -> Dict[str, bool]:
        """Current reachability of every source, per its link."""
        return {name: link.is_available() for name, link in self.links.items()}

    def unavailable_sources(self) -> Tuple[str, ...]:
        """Sources whose links report an active outage, sorted."""
        return tuple(sorted(n for n, up in self.source_availability().items() if not up))

    def begin_resync(self, source_name: str) -> None:
        """Mark a source's materialized contributions as mid-rebuild.

        Recovery calls this when a source's log was truncated past the
        saved cursor: until :meth:`end_resync`, staleness tags disclose the
        source with unbounded staleness so degraded answers stay honest.
        """
        if source_name not in self.sources:
            raise MediatorError(f"cannot resync unknown source {source_name!r}")
        self._resyncing.add(source_name)

    def end_resync(self, source_name: str) -> None:
        """Clear the mid-rebuild marker set by :meth:`begin_resync`."""
        self._resyncing.discard(source_name)

    def resyncing_sources(self) -> Tuple[str, ...]:
        """Sources currently flagged as mid-rebuild, sorted."""
        return tuple(sorted(self._resyncing))

    def staleness_tag(self, now: Optional[float] = None) -> StalenessTag:
        """The staleness disclosure for answers served right now.

        For each unavailable source the tag carries ``now`` minus the send
        time of the newest update from it that the materialized data
        reflects (``inf`` when nothing from it was ever reflected and no
        timing is known) — the per-source staleness measure of
        :mod:`repro.correctness.freshness`, computed live instead of from
        a trace.  ``now`` defaults to the links' simulated clock when one
        is exposed, else 0.0 (in-process deployments are never degraded).
        """
        if now is None:
            clocks = [t for t in (link.now() for link in self.links.values()) if t is not None]
            now = max(clocks, default=0.0)
        staleness: Dict[str, float] = {}
        for name in self.unavailable_sources():
            reflected = self.queue.last_flushed_send_time(name)
            if reflected is None:
                link = self.links[name]
                outage_end = link.outage_until()
                # Nothing from this source reflected since init; the best
                # honest bound is "since the view was initialized", which
                # the simulated clock started at t=0.  Unknown otherwise.
                reflected = 0.0 if outage_end is not None else None
            staleness[name] = float("inf") if reflected is None else max(0.0, now - reflected)
        # A source mid-resync may be perfectly reachable, yet its
        # materialized contributions are a rebuild-in-progress: disclose it
        # with unbounded staleness until the resync transaction lands.
        for name in self._resyncing:
            staleness[name] = float("inf")
        return StalenessTag(time=now, staleness=staleness)

    def query_relation_tagged(
        self,
        relation: str,
        attrs: Optional[Sequence[str]] = None,
        predicate: Predicate = TRUE,
        now: Optional[float] = None,
    ) -> TaggedAnswer:
        """Like :meth:`query_relation`, but the answer carries a staleness tag.

        Materialized-only answers keep flowing during an outage — tagged
        with how stale the unavailable sources' contributions may be.  A
        query that *needs* to poll an unavailable source raises
        :class:`~repro.errors.SourceUnavailableError` (typed, immediate)
        rather than hanging on a dead link.
        """
        self._require_init()
        tag = self.staleness_tag(now)
        value = self.qp.query_relation(relation, attrs, predicate)
        if self.tracer.enabled and tag.staleness:
            self.tracer.event(
                "stale_answer",
                relation=relation,
                sources=sorted(tag.staleness),
                staleness={
                    source: (age if age != float("inf") else None)
                    for source, age in sorted(tag.staleness.items())
                },
            )
        return TaggedAnswer(value=value, tag=tag)

    def export_state(self, relation: str) -> Relation:
        """The full current value of one export relation (virtual attributes
        are fetched as needed) — used by examples and correctness checkers."""
        if relation not in self.vdp.exports:
            raise MediatorError(f"{relation!r} is not an export relation")
        return self.query_relation(relation)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> MediatorStats:
        """Aggregate counters across all components, derived from the
        metrics registry through the :data:`STATS_METRICS` mapping."""
        snapshot = self.metrics.snapshot()
        return MediatorStats(
            **{field: snapshot[metric] for field, metric in STATS_METRICS.items()}
        )

    def reset_stats(self) -> None:
        """Zero every component counter (benchmark hygiene).  Fields-derived
        through the registry: new counters on any registered stats object
        reset for free.  A caller that attached a
        :class:`~repro.obs.profile.CostProfiler` calls its ``reset()``
        beside this so the profile window stays the counter window."""
        self.metrics.reset()

    def _require_init(self) -> None:
        if not self._initialized:
            raise MediatorError("mediator not initialized; call initialize() first")

    def __repr__(self) -> str:
        kinds = {k: v.value for k, v in self.contributor_kinds.items()}
        return f"<SquirrelMediator exports={list(self.vdp.exports)} sources={kinds}>"
