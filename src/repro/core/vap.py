"""The Virtual Attribute Processor (Section 6.3).

The VAP materializes *temporary relations* holding the current value of
(projections of) virtual or hybrid relations, on behalf of the query
processor (answering queries that touch virtual attributes) and of the IUP
(supplying virtual relations that rules must read).

Phase 1 — *planning* (:meth:`VirtualAttributeProcessor.plan`): starting
from the input set ``{(R_i, A_i, f_i)}``, repeatedly expand the earliest
(parents-first) unprocessed request via ``derived_from``; child requests
already answerable from materialized storage stop the recursion; requests
for the same relation are merged (attribute union, selection disjunction —
the paper's step (2b)).  For a hybrid join node whose materialized
attributes include a child's key, the planner may instead choose the
*key-based construction* of Example 2.3, which reconstructs the virtual
attributes by natural-joining the node's own stored projection with a
key+virtual-attribute projection of that child — often avoiding polls of
other children entirely.

Phase 2 — *construction* (:meth:`VirtualAttributeProcessor.construct`):
temporaries are built bottom-up.  Leaf-parent temporaries poll their source
database; all polls against one source are packaged into a single source
transaction (one snapshot), so at most one state of each source contributes
to a view state.  Poll answers from announcing (hybrid-contributor) sources
are rewound by the Eager Compensation Algorithm so they match the state the
materialized data already reflects.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.compensation import compensate
from repro.core.derived_from import TempRequest, derived_from, narrow_definition
from repro.core.links import SourceLink
from repro.core.local_store import LocalStore
from repro.core.update_queue import UpdateQueue
from repro.core.vap_cache import VAPTempCache
from repro.core.vdp import AnnotatedVDP, NodeKind
from repro.deltas import Delta
from repro.errors import MediatorError, SourceUnavailableError
from repro.obs.metrics import reset_dataclass_counters
from repro.obs.provenance import origin_labels
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import (
    TRUE,
    Evaluator,
    Expression,
    Join,
    Predicate,
    Project,
    Relation,
    Scan,
    Select,
    TruePredicate,
    conjoin,
    conjuncts,
)

__all__ = ["PlannedTemp", "VAPStats", "VirtualAttributeProcessor"]

#: Cap on the threads one concurrent poll round may use.
_MAX_POLL_WORKERS = 8


@dataclass(frozen=True)
class PlannedTemp:
    """One temporary relation the VAP has decided to construct."""

    request: TempRequest
    strategy: str  # "poll" | "children" | "key-based"
    key_attrs: Tuple[str, ...] = ()
    virtual_children: Tuple[str, ...] = ()

    @property
    def relation(self) -> str:
        """The VDP node this temporary stands in for."""
        return self.request.relation


@dataclass
class VAPStats:
    """Counters exposed to benchmarks."""

    polls: int = 0
    polled_sources: int = 0
    polled_rows: int = 0
    temps_built: int = 0
    key_based_used: int = 0
    compensations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    parallel_poll_batches: int = 0
    poll_wall_time: float = 0.0  # seconds spent waiting on source polls

    def reset(self) -> None:
        """Zero every counter (fields-derived; new counters reset for free)."""
        reset_dataclass_counters(self)


class VirtualAttributeProcessor:
    """Plans and constructs temporary relations for virtual data."""

    def __init__(
        self,
        annotated: AnnotatedVDP,
        store: LocalStore,
        links: Mapping[str, SourceLink],
        queue: UpdateQueue,
        eca_enabled: bool = True,
        key_based_enabled: bool = True,
        tracer: Tracer = NULL_TRACER,
    ):
        self.tracer = tracer
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.store = store
        self.links = dict(links)
        self.queue = queue
        self.eca_enabled = eca_enabled
        self.key_based_enabled = key_based_enabled
        self.stats = VAPStats()
        self.cache = VAPTempCache(self.vdp)
        self._cache_bypass = False

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def materialize(
        self,
        requests: Iterable[TempRequest],
        in_flight: Optional[Mapping[str, List[Delta]]] = None,
    ) -> Dict[str, Relation]:
        """Plan and construct temporaries for the given requests.

        Returns a mapping from VDP node name to the temporary relation
        standing in for it.  ``in_flight`` carries, per source, the deltas
        flushed for the update transaction in progress (the IUP context);
        they join the queued deltas in the compensation set.
        """
        with self.tracer.span("vap_materialize") as span:
            served: Dict[str, Relation] = {}
            planned = self.plan(requests, served)
            temps = self.construct(planned, in_flight or {}, initial=served)
            span.set(temps=sorted(temps))
            return temps

    # ------------------------------------------------------------------
    # Temp cache management
    # ------------------------------------------------------------------
    def _cacheable(self, relation: str) -> bool:
        """Whether temporaries for ``relation`` may be served from / stored
        in the cache.  Requires eager compensation (it pins every
        constructed temp to the materialized state, making "invalidate on
        transaction apply" exact) and that every source under the node
        announces its updates — a non-announcing virtual contributor can
        change without the mediator ever hearing, so its polls stay live.
        """
        if not self.eca_enabled or self._cache_bypass:
            return False
        return self.annotated.sources_announce(relation)

    def invalidate_cache(self, leaf_deltas: Mapping[str, Delta]) -> int:
        """Drop cache entries whose lineage the applied deltas touch (called
        by the IUP right after the kernel advances the materialized state).
        Returns the number of entries dropped.

        With tracing on, each drop is emitted as a ``cache_invalidate``
        event naming the leaves whose filtered deltas killed the entry and
        — when provenance tracking is on — the origin set of the source
        transactions responsible (the union of the triggering leaves'
        committed origins)."""
        victims = self.cache.invalidate_detailed(leaf_deltas)
        self.stats.cache_invalidations += len(victims)
        tracer = self.tracer
        if tracer.enabled and victims:
            prov = tracer.provenance
            for victim in victims:
                origins = frozenset().union(
                    *(prov.origins_of(leaf) for leaf in victim.triggering_leaves)
                ) if victim.triggering_leaves else frozenset()
                tracer.event(
                    "cache_invalidate",
                    relation=victim.relation,
                    attrs=sorted(victim.request.attrs),
                    leaves=sorted(victim.triggering_leaves),
                    origins=origin_labels(origins),
                )
        return len(victims)

    def clear_cache(self) -> None:
        """Drop every cached temporary (view re-initialization)."""
        self.cache.clear()

    @contextmanager
    def cache_bypassed(self) -> Iterator[None]:
        """Run with the temp cache inert — no lookups, no fills.  The
        correctness harness uses this for cold-cache recomputation."""
        previous = self._cache_bypass
        self._cache_bypass = True
        try:
            yield
        finally:
            self._cache_bypass = previous

    # ------------------------------------------------------------------
    # Phase 1: planning
    # ------------------------------------------------------------------
    def plan(
        self,
        requests: Iterable[TempRequest],
        served: Optional[Dict[str, Relation]] = None,
    ) -> List[PlannedTemp]:
        """The first VAP phase: decide every temporary to construct.

        The result is ordered parents-first (reverse it for construction).
        When ``served`` is given, each request is first offered to the temp
        cache at expansion time (i.e. *after* same-relation merging); a hit
        lands the value in ``served`` and prunes the node's entire subtree
        from the plan — no child requests, no polls.
        """
        tracer = self.tracer
        with tracer.span("vap_plan") as span:
            unprocessed: Dict[str, TempRequest] = {}
            for request in requests:
                if self.store.covers(request):
                    continue  # answerable straight from the local store
                self._merge_request(unprocessed, request)

            processed: List[PlannedTemp] = []
            seen: Dict[str, int] = {}
            while unprocessed:
                # Earliest in parents-first order == highest topological index.
                name = max(unprocessed, key=self.vdp.rank)
                request = unprocessed.pop(name)
                if served is not None and self._cacheable(name):
                    value = self.cache.lookup(request)
                    if value is not None:
                        served[name] = value
                        self.stats.cache_hits += 1
                        if tracer.enabled:
                            tracer.event("cache_hit", relation=name)
                        continue  # subtree pruned: children never requested
                    self.stats.cache_misses += 1
                    if tracer.enabled:
                        tracer.event("cache_miss", relation=name)
                elif tracer.enabled and served is not None and self._cache_bypass:
                    tracer.event("cache_bypass", relation=name)
                plan = self._plan_one(request, unprocessed)
                if name in seen:
                    raise MediatorError(f"VAP planning revisited node {name!r}")
                seen[name] = len(processed)
                processed.append(plan)
            span.set(
                planned=[f"{p.relation}:{p.strategy}" for p in processed],
                served=sorted(served) if served else [],
            )
            return processed

    def _merge_request(self, pending: Dict[str, TempRequest], request: TempRequest) -> None:
        existing = pending.get(request.relation)
        pending[request.relation] = existing.merge(request) if existing else request

    def _plan_one(self, request: TempRequest, unprocessed: Dict[str, TempRequest]) -> PlannedTemp:
        name = request.relation
        node = self.vdp.node(name)
        children = self.vdp.children(name)
        if any(self.vdp.node(c).is_leaf for c in children):
            # Leaf-parent: constructed by polling the source (restriction (a)
            # guarantees a single leaf child and a pure select/project chain).
            return PlannedTemp(request, "poll")

        child_requests = derived_from(self.vdp, name, request.attrs, request.predicate)
        key_plan = self._try_key_based(request, child_requests) if self.key_based_enabled else None
        if key_plan is not None:
            plan, needed = key_plan
        else:
            plan = PlannedTemp(request, "children")
            needed = child_requests
        for child_request in needed:
            if not self.store.covers(child_request):
                self._merge_request(unprocessed, child_request)
        return plan

    def _try_key_based(
        self, request: TempRequest, child_requests: List[TempRequest]
    ) -> Optional[Tuple[PlannedTemp, List[TempRequest]]]:
        """Attempt the Example 2.3 key-based construction.

        Applicable when the node is a hybrid bag node whose stored
        projection contains, for every child that must supply virtual
        attributes, a key of that child that functionally determines them.
        Chosen when it polls/fetches strictly fewer children than the
        children-based construction.
        """
        name = request.relation
        node = self.vdp.node(name)
        if node.kind is not NodeKind.BAG or not self.store.has_repo(name):
            return None
        # The construction relies on π_{K∪A_v}(node) ⊆ π_{K∪A_v}(child) —
        # true for SPJ definitions (every output row embeds a row of each
        # child) but FALSE for unions, where a row may come from the other
        # branch entirely.
        from repro.relalg import Union as _Union

        if isinstance(node.definition, _Union):
            return None
        ann = self.annotated.annotation(name)
        if not ann.hybrid:
            return None
        materialized = frozenset(ann.materialized_attrs)
        virtual_needed = frozenset(request.attrs) - materialized
        if not virtual_needed:
            return None
        # Children that would require a fetch under the children-based plan.
        uncovered = [cr for cr in child_requests if not self.store.covers(cr)]
        if not uncovered:
            return None

        key_attrs: List[str] = []
        fetch_requests: List[TempRequest] = []
        virtual_children: List[str] = []
        remaining = set(virtual_needed)
        for child_request in child_requests:
            child = child_request.relation
            child_attrs = frozenset(self.vdp.node(child).schema.attribute_names)
            supplied = remaining & child_attrs
            if not supplied:
                continue
            child_fds = self.vdp.fds(child)
            child_key = self._find_key(child, supplied, materialized & child_attrs)
            if child_key is None:
                return None  # some virtual attribute has no key-based path
            key_attrs.extend(a for a in child_key if a not in key_attrs)
            fetch_attrs = frozenset(child_key) | supplied
            pushable = [
                c for c in conjuncts(request.predicate) if c.attributes() <= fetch_attrs
            ]
            fetch = TempRequest(child, fetch_attrs, conjoin(*pushable) if pushable else TRUE)
            fetch_requests.append(fetch)
            virtual_children.append(child)
            remaining -= supplied
        if remaining:
            return None

        needed_fetches = [fr for fr in fetch_requests if not self.store.covers(fr)]
        if len(needed_fetches) >= len(uncovered):
            return None  # no saving over the children-based plan
        plan = PlannedTemp(
            request,
            "key-based",
            key_attrs=tuple(key_attrs),
            virtual_children=tuple(virtual_children),
        )
        self.stats.key_based_used += 1
        if self.tracer.enabled:
            self.tracer.event(
                "key_based",
                relation=name,
                key=list(key_attrs),
                children=list(virtual_children),
            )
        return plan, fetch_requests

    def _find_key(
        self, child: str, supplied: FrozenSet[str], candidate_pool: FrozenSet[str]
    ) -> Optional[Tuple[str, ...]]:
        """A minimal subset of the node's materialized attributes (restricted
        to ``child``'s attributes) that functionally determines ``supplied``
        in the child — typically the child's declared key."""
        fds = self.vdp.fds(child)
        declared = self.vdp.node(child).schema.key
        if declared and set(declared) <= candidate_pool and supplied <= fds.closure(declared):
            return tuple(declared)
        # Fall back to any single materialized attribute that determines all.
        for attr in sorted(candidate_pool):
            if supplied <= fds.closure([attr]):
                return (attr,)
        if candidate_pool and supplied <= fds.closure(candidate_pool):
            return tuple(sorted(candidate_pool))
        return None

    # ------------------------------------------------------------------
    # Phase 2: construction
    # ------------------------------------------------------------------
    def construct(
        self,
        planned: Sequence[PlannedTemp],
        in_flight: Mapping[str, List[Delta]],
        initial: Optional[Mapping[str, Relation]] = None,
    ) -> Dict[str, Relation]:
        """The second VAP phase: build all temporaries bottom-up.

        ``initial`` seeds the temp pool with cache-served values (their
        subtrees were pruned from ``planned``).  Every freshly constructed
        temporary for a cacheable relation is offered back to the cache.
        """
        tracer = self.tracer
        with tracer.span("vap_construct") as span:
            counters = self.store.counters
            scanned, produced = counters.rows_scanned, counters.rows_produced
            temps: Dict[str, Relation] = dict(initial) if initial else {}
            access: List[str] = []  # per σ evaluated: "range" or "scan"
            polls = [p for p in planned if p.strategy == "poll"]
            internals = [p for p in reversed(planned) if p.strategy != "poll"]

            self._construct_polls(polls, temps, in_flight)
            for plan in polls:
                if self._cacheable(plan.relation):
                    self.cache.store(plan.request, temps[plan.relation])
                    if tracer.enabled:
                        tracer.event("cache_store", relation=plan.relation)
            for plan in internals:
                temps[plan.relation] = self._construct_internal(plan, temps, access)
                self.stats.temps_built += 1
                if tracer.enabled:
                    tracer.event(
                        "temp_built",
                        relation=plan.relation,
                        strategy=plan.strategy,
                        rows=temps[plan.relation].cardinality(),
                    )
                if self._cacheable(plan.relation):
                    self.cache.store(plan.request, temps[plan.relation])
                    if tracer.enabled:
                        tracer.event("cache_store", relation=plan.relation)
            span.set(
                built=len(planned),
                rows_scanned=counters.rows_scanned - scanned,
                rows_out=counters.rows_produced - produced,
                access=access,
            )
            return temps

    def _construct_polls(
        self,
        polls: Sequence[PlannedTemp],
        temps: Dict[str, Relation],
        in_flight: Mapping[str, List[Delta]],
    ) -> None:
        # Package all polls of one source into a single transaction.
        by_source: Dict[str, List[PlannedTemp]] = {}
        for plan in polls:
            leaf = self.vdp.children(plan.relation)[0]
            source = self.vdp.source_of_leaf(leaf)
            by_source.setdefault(source, []).append(plan)
        if not by_source:
            # Fully served from cache / materialized storage: no source is
            # contacted, so none needs to be reachable.
            return

        ordered = sorted(by_source.items())
        links: Dict[str, SourceLink] = {}
        for source, _ in ordered:
            link = self.links.get(source)
            if link is None:
                raise MediatorError(f"no source link for {source!r}")
            if not link.is_available():
                # Fail fast with a typed error instead of hanging on a
                # crashed source; callers degrade (tagged materialized
                # answers, deferred update transactions) or surface it.
                # Only sources this poll round actually needs are checked.
                raise SourceUnavailableError(source, until=link.outage_until())
            links[source] = link

        queries_by_source = {
            source: {plan.relation: self._temp_expression(plan) for plan in plans}
            for source, plans in ordered
        }
        tracer = self.tracer
        with tracer.span("poll_batch") as batch_span:
            started = time.perf_counter()
            answers_by_source = self._run_polls(links, queries_by_source)
            self.stats.poll_wall_time += time.perf_counter() - started
            batch_span.set(sources=[source for source, _ in ordered])

        for source, plans in ordered:
            answers = answers_by_source[source]
            self.stats.polls += len(plans)
            self.stats.polled_sources += 1
            for plan in plans:
                answer = answers[plan.relation]
                answer_rows = answer.cardinality()
                self.stats.polled_rows += answer_rows
                if tracer.enabled:
                    # Pre-compensation cardinality, emitted exactly where
                    # VAPStats.polled_rows accrues — the profiler's
                    # per-source row attribution reconciles against the
                    # counter 1:1 (temp_built rows are post-compensation).
                    tracer.event(
                        "poll_answer",
                        source=source,
                        relation=plan.relation,
                        rows=answer_rows,
                    )
                temps[plan.relation] = self._maybe_compensate(
                    plan, answer, source, in_flight
                )
                self.stats.temps_built += 1
                if tracer.enabled:
                    tracer.event(
                        "temp_built",
                        relation=plan.relation,
                        strategy="poll",
                        rows=temps[plan.relation].cardinality(),
                    )

    def _run_polls(
        self,
        links: Mapping[str, SourceLink],
        queries_by_source: Mapping[str, Dict[str, Expression]],
    ) -> Dict[str, Dict[str, Relation]]:
        """One ``poll_many`` per source — concurrent when every link opts in.

        Each source still answers its whole query batch against one
        snapshot (the per-source transaction guarantee lives inside
        ``poll_many``); threads only overlap *across* sources, turning
        wall-clock poll latency into max-over-sources.  Answers are
        gathered in sorted-source order regardless of completion order, so
        downstream merges — and which source's failure surfaces when
        several fail — stay deterministic.
        """
        tracer = self.tracer
        use_threads = len(links) > 1 and all(
            link.supports_parallel_poll for link in links.values()
        )
        if not use_threads:
            answers: Dict[str, Dict[str, Relation]] = {}
            for source, queries in sorted(queries_by_source.items()):
                with tracer.span("poll", source=source, temps=sorted(queries)):
                    answers[source] = links[source].poll_many(queries)
            return answers
        self.stats.parallel_poll_batches += 1
        workers = min(len(links), _MAX_POLL_WORKERS)

        def timed_poll(source: str, queries: Dict[str, Expression]):
            # Worker threads never touch the span stack — they just time
            # their own poll; the main thread backfills completed spans.
            started = tracer.clock() if tracer.enabled else 0.0
            result = links[source].poll_many(queries)
            ended = tracer.clock() if tracer.enabled else 0.0
            return result, started, ended

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="vap-poll"
        ) as pool:
            futures = {
                source: pool.submit(timed_poll, source, queries)
                for source, queries in sorted(queries_by_source.items())
            }
            gathered = {source: futures[source].result() for source in sorted(futures)}
        if tracer.enabled:
            for source in sorted(gathered):
                _, started, ended = gathered[source]
                tracer.add_completed_span(
                    "poll",
                    started,
                    ended,
                    source=source,
                    temps=sorted(queries_by_source[source]),
                    parallel=True,
                )
        return {source: result for source, (result, _, _) in gathered.items()}

    def _temp_expression(self, plan: PlannedTemp) -> Expression:
        node = self.vdp.node(plan.relation)
        needed = frozenset(plan.request.attrs) | plan.request.predicate.attributes()
        expr: Expression = narrow_definition(node.definition, needed, self.vdp.schemas())
        if not isinstance(plan.request.predicate, TruePredicate):
            expr = Select(expr, plan.request.predicate)
        return Project(expr, plan.request.sorted_attrs())

    def _maybe_compensate(
        self,
        plan: PlannedTemp,
        answer: Relation,
        source: str,
        in_flight: Mapping[str, List[Delta]],
    ) -> Relation:
        leaf = self.vdp.children(plan.relation)[0]
        if not self.eca_enabled or not self.annotated.sources_announce(leaf):
            return answer
        uncompensated = list(in_flight.get(source, [])) + self.queue.pending_for_source(source)
        if not uncompensated:
            return answer
        self.stats.compensations += 1
        if self.tracer.enabled:
            self.tracer.event(
                "compensation",
                relation=plan.relation,
                source=source,
                deltas=len(uncompensated),
            )
        return compensate(
            answer,
            plan.relation,
            self._temp_expression(plan),
            leaf,
            self.vdp.node(leaf).schema,
            uncompensated,
        )

    def _construct_internal(
        self, plan: PlannedTemp, temps: Mapping[str, Relation], access: List[str]
    ) -> Relation:
        name = plan.relation
        node = self.vdp.node(name)
        if plan.strategy == "children":
            catalog = {}
            for child in self.vdp.children(name):
                catalog[child] = self._resolve(child, temps)
            expr = self._temp_expression(plan)
            return self._evaluate(expr, catalog, name, access)

        # Key-based: natural-join the node's stored projection with the
        # key+virtual projections of the supplying children (Example 2.3).
        # Conjuncts of the request predicate that read only stored
        # attributes select *below* the joins (σ_f(A ⋈ B) = σ_f(A) ⋈ B when
        # f reads A alone), so the joins see the selected rows rather than
        # the whole repository (a range σ reads only its slice of an ordered
        # index); the rest apply above, where the virtual attributes exist.
        repo_alias = f"__repo__{name}"
        ann = self.annotated.annotation(name)
        stored = frozenset(ann.materialized_attrs)
        below: List[Predicate] = []
        above: List[Predicate] = []
        for conjunct in conjuncts(plan.request.predicate):
            (below if conjunct.attributes() <= stored else above).append(conjunct)
        catalog: Dict[str, Relation] = {repo_alias: self.store.repo(name)}
        expr: Expression = Scan(repo_alias)
        if below:
            expr = Select(expr, conjoin(*below))
        for child in plan.virtual_children:
            child_value = self._resolve(child, temps)
            child_attrs = frozenset(child_value.schema.attribute_names)
            keep = sorted(
                (set(plan.key_attrs) & child_attrs)
                | ((set(plan.request.attrs) - stored) & child_attrs)
            )
            alias = f"__kb__{child}"
            catalog[alias] = child_value
            expr = Join(expr, Project(Scan(alias), tuple(keep), dedup=True), None)
        if above:
            expr = Select(expr, conjoin(*above))
        expr = Project(expr, plan.request.sorted_attrs())
        return self._evaluate(expr, catalog, name, access, indexable=frozenset((repo_alias,)))

    def _resolve(self, child: str, temps: Mapping[str, Relation]) -> Relation:
        if child in temps:
            return temps[child]
        if self.store.has_repo(child):
            return self.store.repo(child)
        raise MediatorError(
            f"VAP needs {child!r} but no temporary or repository is available"
        )

    def _evaluate(self, expr: Expression, catalog: Mapping[str, Relation], name: str,
                  access: List[str], indexable: FrozenSet[str] = frozenset()) -> Relation:
        schemas = {alias: rel.schema.rename_relation(alias) for alias, rel in catalog.items()}
        evaluator = Evaluator(catalog, schemas, self.store.counters, indexable=indexable)
        answer = evaluator.evaluate(expr, name)
        access.extend(evaluator.access)
        return answer
