"""Per-node cost profiles folded live from the tracer stream.

The tracer (PR 4) records *what happened*; this module aggregates those
spans and events into *who is expensive* — the attributed, queryable cost
data the ROADMAP's cost-based annotation advisor needs (the paper's §8
leaves "how to choose m/v annotations" open; any advisor starts from
exactly this profile).

:class:`CostProfiler` is a tracer **sink** (see
:meth:`~repro.obs.tracer.Tracer.add_sink`): it receives each record once
complete and folds it incrementally, so profiling long soak runs does not
require retaining the trace (pair it with ``Tracer(retain=False)`` for
bounded memory).  The folded result is a :class:`CostProfile`:

* **per node** — propagation time and rows (``process_node`` spans,
  ``rule_fire`` / ``node_apply`` events), VAP construct/poll rows and
  cache verdicts per virtual subtree, and query latency per exported
  node (a query's duration is attributed to every relation it references,
  captured from its ``query_classify`` event);
* **per edge** — rule firings with delta/contribution row flow;
* **per source** — poll count/time and pre-compensation answer rows
  (``poll_answer`` events, emitted exactly where ``VAPStats.polled_rows``
  accrues), compensations;
* **durability** — WAL bytes per transaction, checkpoint time/rows.

Every count the profiler folds mirrors a counter some stats dataclass
increments at the same site, so :meth:`CostProfile.reconcile` can check
the attribution against :class:`~repro.core.mediator.MediatorStats`
**exactly** — any drift between the trace taxonomy and the counters is a
bug, not noise (property-tested in ``tests/obs/test_profile.py``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer

__all__ = [
    "NodeCost",
    "EdgeCost",
    "SourceCost",
    "QueryCost",
    "TxnCost",
    "DurabilityCost",
    "CostProfile",
    "CostProfiler",
]


def _num_dict(obj: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            out[f.name] = {str(k): v for k, v in sorted(value.items())}
        else:
            out[f.name] = value
    return out


@dataclasses.dataclass
class NodeCost:
    """Everything one VDP node cost during the profiled window."""

    # IUP propagation (materialized side)
    process_time: float = 0.0      # process_node span seconds
    processed: int = 0             # process_node spans (≡ nodes_processed)
    fires_out: int = 0             # rule firings out of this node
    delta_rows_out: int = 0        # smashed delta rows fired out
    contribution_rows_in: int = 0  # rows contributed *into* this node
    applies: int = 0               # node_apply events
    apply_rows: int = 0            # delta rows applied to this node
    # VAP construction (virtual side)
    constructs: int = 0            # temp_built events
    construct_rows: int = 0        # rows in built temporaries
    polls: int = 0                 # poll answers feeding this relation
    poll_rows: int = 0             # pre-compensation answer rows
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    key_based: int = 0             # key-based construction plans chosen
    # QP (demand side)
    queries: int = 0               # queries referencing this relation
    query_time: float = 0.0        # referencing queries' latency seconds

    @property
    def propagation_time(self) -> float:
        return self.process_time

    @property
    def propagation_rows(self) -> int:
        return self.apply_rows


@dataclasses.dataclass
class EdgeCost:
    """Cost of one rulebase edge (child -> parent)."""

    fires: int = 0
    delta_rows: int = 0
    contribution_rows: int = 0


@dataclasses.dataclass
class SourceCost:
    """Cost attributed to one source."""

    polls: int = 0              # poll_answer events (≡ VAPStats.polls share)
    poll_rows: int = 0          # pre-compensation answer rows
    poll_time: float = 0.0      # poll span seconds (batch-level, per source)
    poll_spans: int = 0
    compensations: int = 0


@dataclasses.dataclass
class QueryCost:
    """Aggregate query-path cost."""

    count: int = 0
    time: float = 0.0
    rows: int = 0
    virtual: int = 0
    materialized_only: int = 0


@dataclasses.dataclass
class TxnCost:
    """Aggregate update-transaction cost."""

    count: int = 0
    time: float = 0.0


@dataclasses.dataclass
class DurabilityCost:
    """WAL / checkpoint cost, with per-transaction WAL attribution."""

    wal_records: int = 0
    wal_bytes: int = 0
    checkpoints: int = 0
    checkpoint_time: float = 0.0
    checkpoint_rows: int = 0
    wal_bytes_by_txn: Dict[int, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class CostProfile:
    """The folded profile: stable shape, deterministic serialization.

    ``nodes`` / ``edges`` / ``sources`` key their cost records by node
    name, ``(child, parent)`` pair, and source name.  The aggregate
    sections (``queries``, ``txns``, ``durability``) carry the costs that
    have no single owning node.  Counters reconcile exactly with
    :class:`~repro.core.mediator.MediatorStats` — see :meth:`reconcile`.
    """

    nodes: Dict[str, NodeCost] = dataclasses.field(default_factory=dict)
    edges: Dict[Tuple[str, str], EdgeCost] = dataclasses.field(default_factory=dict)
    sources: Dict[str, SourceCost] = dataclasses.field(default_factory=dict)
    queries: QueryCost = dataclasses.field(default_factory=QueryCost)
    txns: TxnCost = dataclasses.field(default_factory=TxnCost)
    durability: DurabilityCost = dataclasses.field(default_factory=DurabilityCost)
    cache_subsumption_hits: int = 0
    compensations: int = 0

    # -- derived totals (the reconciliation currency) -------------------
    def total(self, field: str) -> float:
        """Sum one :class:`NodeCost` field (or property) over all nodes."""
        return sum(getattr(cost, field) for cost in self.nodes.values())

    def source_total(self, field: str) -> float:
        return sum(getattr(cost, field) for cost in self.sources.values())

    # -- ranking --------------------------------------------------------
    def top(self, k: int, key: str = "propagation_time") -> List[Tuple[str, float]]:
        """The ``k`` most expensive nodes by ``key`` (a :class:`NodeCost`
        field or property), costliest first; name-ordered ties."""
        ranked = sorted(
            ((name, getattr(cost, key)) for name, cost in self.nodes.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k]

    # -- the advisor's input --------------------------------------------
    def attribute_costs(self) -> Dict[str, Dict[str, float]]:
        """Per-node attributed costs in the annotation advisor's input
        shape: ``{node: {cost_kind: value}}``, keys sorted, one row per
        node ever observed.  This is the contract the future cost-based
        advisor consumes — keep it stable."""
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self.nodes):
            cost = self.nodes[name]
            out[name] = {
                "cache_hits": cost.cache_hits,
                "cache_misses": cost.cache_misses,
                "construct_rows": cost.construct_rows,
                "constructs": cost.constructs,
                "poll_rows": cost.poll_rows,
                "propagation_rows": cost.propagation_rows,
                "propagation_time": cost.propagation_time,
                "queries": cost.queries,
                "query_time": cost.query_time,
                "rule_fires": cost.fires_out,
            }
        return out

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict with deterministic key order."""
        return {
            "kind": "cost-profile",
            "version": 1,
            "nodes": {name: _num_dict(self.nodes[name]) for name in sorted(self.nodes)},
            "edges": {
                f"{child}->{parent}": _num_dict(self.edges[(child, parent)])
                for child, parent in sorted(self.edges)
            },
            "sources": {
                name: _num_dict(self.sources[name]) for name in sorted(self.sources)
            },
            "queries": _num_dict(self.queries),
            "txns": _num_dict(self.txns),
            "durability": _num_dict(self.durability),
            "cache_subsumption_hits": self.cache_subsumption_hits,
            "compensations": self.compensations,
            "attribute_costs": self.attribute_costs(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- reconciliation -------------------------------------------------
    def reconcile(self, stats: Any) -> List[str]:
        """Check the profile's totals against a
        :class:`~repro.core.mediator.MediatorStats` snapshot taken over
        the same window.  Returns mismatch descriptions (empty = exact).

        Every checked pair is emitted at the *same instrumentation site*
        as the counter it mirrors, so equality is exact, not approximate.
        """
        checks: List[Tuple[str, float, float]] = [
            ("rules_fired", self.total("fires_out"), stats.rules_fired),
            ("update_transactions", self.txns.count, stats.update_transactions),
            ("queries", self.queries.count, stats.queries),
            ("virtual_queries", self.queries.virtual, stats.virtual_queries),
            (
                "materialized_only_queries",
                self.queries.materialized_only,
                stats.materialized_only_queries,
            ),
            ("polls", self.source_total("polls"), stats.polls),
            ("polled_rows", self.source_total("poll_rows"), stats.polled_rows),
            ("compensations", self.compensations, stats.compensations),
            (
                "key_based_constructions",
                self.total("key_based"),
                stats.key_based_constructions,
            ),
            ("cache_hits", self.total("cache_hits"), stats.cache_hits),
            ("cache_misses", self.total("cache_misses"), stats.cache_misses),
            (
                "cache_invalidations",
                self.total("cache_invalidations"),
                stats.cache_invalidations,
            ),
            ("subsumption_hits", self.cache_subsumption_hits, stats.subsumption_hits),
        ]
        mismatches = []
        for name, profiled, counted in checks:
            if profiled != counted:
                mismatches.append(
                    f"{name}: profile folded {profiled!r}, stats counted {counted!r}"
                )
        return mismatches


class CostProfiler:
    """Folds the tracer's record stream into a :class:`CostProfile`.

    Attach to an **enabled** tracer before the profiled work runs::

        tracer = Tracer(enabled=True)         # retain=False for soaks
        profiler = CostProfiler()
        profiler.attach(tracer)
        ...                                   # run the workload
        profile = profiler.profile()

    The sink runs on whichever thread completes the record — in this
    codebase that is always the main thread (workers never touch the
    tracer), so the fold needs no locking.
    """

    def __init__(self) -> None:
        self._profile = CostProfile()
        # query span id -> refs captured from its query_classify event
        # (the event arrives while the span is still open).
        self._pending_query_refs: Dict[int, List[str]] = {}
        self._span_handlers: Dict[str, Callable[[Dict[str, Any], float], None]] = {
            "process_node": self._span_process_node,
            "poll": self._span_poll,
            "query": self._span_query,
            "update_txn": self._span_update_txn,
            "checkpoint": self._span_checkpoint,
        }
        self._event_handlers: Dict[str, Callable[[Dict[str, Any]], None]] = {
            "rule_fire": self._event_rule_fire,
            "node_apply": self._event_node_apply,
            "poll_answer": self._event_poll_answer,
            "temp_built": self._event_temp_built,
            "cache_hit": self._event_cache_hit,
            "cache_miss": self._event_cache_miss,
            "cache_invalidate": self._event_cache_invalidate,
            "compensation": self._event_compensation,
            "key_based": self._event_key_based,
            "query_classify": self._event_query_classify,
            "wal_append": self._event_wal_append,
            "checkpoint_complete": self._event_checkpoint_complete,
        }

    # -- wiring ---------------------------------------------------------
    def attach(self, tracer: Tracer) -> "CostProfiler":
        tracer.add_sink(self.on_record)
        return self

    def detach(self, tracer: Tracer) -> None:
        tracer.remove_sink(self.on_record)

    def profile(self) -> CostProfile:
        """The live folded profile (keeps accumulating while attached)."""
        return self._profile

    def reset(self) -> None:
        self._profile = CostProfile()
        self._pending_query_refs.clear()

    # -- the sink -------------------------------------------------------
    def on_record(self, record: Dict[str, Any]) -> None:
        name = record["name"]
        if record["type"] == "span":
            handler = self._span_handlers.get(name)
            if handler is not None:
                end = record["end"]
                duration = (end - record["start"]) if end is not None else 0.0
                handler(record, duration)
        else:
            handler = self._event_handlers.get(name)
            if handler is not None:
                handler(record)

    # -- helpers --------------------------------------------------------
    def _node(self, name: str) -> NodeCost:
        cost = self._profile.nodes.get(name)
        if cost is None:
            cost = self._profile.nodes[name] = NodeCost()
        return cost

    def _edge(self, child: str, parent: str) -> EdgeCost:
        key = (child, parent)
        cost = self._profile.edges.get(key)
        if cost is None:
            cost = self._profile.edges[key] = EdgeCost()
        return cost

    def _source(self, name: str) -> SourceCost:
        cost = self._profile.sources.get(name)
        if cost is None:
            cost = self._profile.sources[name] = SourceCost()
        return cost

    # -- span folds -----------------------------------------------------
    def _span_process_node(self, record: Dict[str, Any], duration: float) -> None:
        cost = self._node(record["attrs"]["node"])
        cost.processed += 1
        cost.process_time += duration

    def _span_poll(self, record: Dict[str, Any], duration: float) -> None:
        cost = self._source(record["attrs"]["source"])
        cost.poll_spans += 1
        cost.poll_time += duration

    def _span_query(self, record: Dict[str, Any], duration: float) -> None:
        attrs = record["attrs"]
        agg = self._profile.queries
        agg.count += 1
        agg.time += duration
        agg.rows += attrs.get("rows", 0)
        if attrs.get("virtual"):
            agg.virtual += 1
        else:
            agg.materialized_only += 1
        for ref in self._pending_query_refs.pop(record["id"], []):
            node = self._node(ref)
            node.queries += 1
            node.query_time += duration

    def _span_update_txn(self, record: Dict[str, Any], duration: float) -> None:
        self._profile.txns.count += 1
        self._profile.txns.time += duration

    def _span_checkpoint(self, record: Dict[str, Any], duration: float) -> None:
        self._profile.durability.checkpoints += 1
        self._profile.durability.checkpoint_time += duration

    # -- event folds ----------------------------------------------------
    def _event_rule_fire(self, record: Dict[str, Any]) -> None:
        attrs = record["attrs"]
        child, parent = attrs["child"], attrs["parent"]
        delta, contribution = attrs["delta_size"], attrs["contribution_size"]
        node = self._node(child)
        node.fires_out += 1
        node.delta_rows_out += delta
        self._node(parent).contribution_rows_in += contribution
        edge = self._edge(child, parent)
        edge.fires += 1
        edge.delta_rows += delta
        edge.contribution_rows += contribution

    def _event_node_apply(self, record: Dict[str, Any]) -> None:
        attrs = record["attrs"]
        node = self._node(attrs["node"])
        node.applies += 1
        node.apply_rows += attrs["delta_size"]

    def _event_poll_answer(self, record: Dict[str, Any]) -> None:
        attrs = record["attrs"]
        source = self._source(attrs["source"])
        source.polls += 1
        source.poll_rows += attrs["rows"]
        node = self._node(attrs["relation"])
        node.polls += 1
        node.poll_rows += attrs["rows"]

    def _event_temp_built(self, record: Dict[str, Any]) -> None:
        attrs = record["attrs"]
        node = self._node(attrs["relation"])
        node.constructs += 1
        node.construct_rows += attrs["rows"]

    def _event_cache_hit(self, record: Dict[str, Any]) -> None:
        self._node(record["attrs"]["relation"]).cache_hits += 1
        if record["attrs"].get("subsumption"):
            self._profile.cache_subsumption_hits += 1

    def _event_cache_miss(self, record: Dict[str, Any]) -> None:
        self._node(record["attrs"]["relation"]).cache_misses += 1

    def _event_cache_invalidate(self, record: Dict[str, Any]) -> None:
        self._node(record["attrs"]["relation"]).cache_invalidations += 1

    def _event_compensation(self, record: Dict[str, Any]) -> None:
        self._profile.compensations += 1
        self._source(record["attrs"]["source"]).compensations += 1

    def _event_key_based(self, record: Dict[str, Any]) -> None:
        self._node(record["attrs"]["relation"]).key_based += 1

    def _event_query_classify(self, record: Dict[str, Any]) -> None:
        span_id = record["span"]
        if span_id is not None:
            self._pending_query_refs[span_id] = list(record["attrs"].get("refs", ()))

    def _event_wal_append(self, record: Dict[str, Any]) -> None:
        attrs = record["attrs"]
        dur = self._profile.durability
        dur.wal_records += 1
        dur.wal_bytes += attrs["bytes"]
        txn = attrs["txn"]
        dur.wal_bytes_by_txn[txn] = dur.wal_bytes_by_txn.get(txn, 0) + attrs["bytes"]

    def _event_checkpoint_complete(self, record: Dict[str, Any]) -> None:
        self._profile.durability.checkpoint_rows += record["attrs"]["rows"]
