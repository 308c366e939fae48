"""The Incremental Update Processor (Section 6.4).

An update transaction has three phases:

(a) **Preparation** — a dry-run of the kernel over the flushed delta to
    determine which rules will fire and which virtual/hybrid relations those
    rules must read; each such read becomes a :class:`TempRequest`.
(b) **VAP call** — materialize the requested temporaries.  The VAP
    populates them to the state ``ref'(t_{i-1})`` by compensating poll
    answers against both the flushed delta and anything still queued.
(c) **Kernel** — the IUP Kernel Algorithm proper: traverse the VDP
    children-first; *process* each node with a pending delta by firing all
    rules out of it (accumulating contributions into its parents' ΔR
    repositories) and only then applying its own delta to its repository —
    the ordering discipline that captures every ``ΔR ⋈ ΔS`` cross-term
    exactly once (Example 6.1).

Temporary relations stand in for virtual/hybrid relations during the
kernel; when a node with a temporary is processed, its delta is applied to
the temporary too, so sibling reads observe the same
new-if-processed/old-if-not states as materialized repositories do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.derived_from import TempRequest, child_requirements
from repro.core.local_store import LocalStore
from repro.core.rulebase import RuleBase
from repro.core.update_queue import QueuedUpdate, UpdateQueue
from repro.core.vap import VirtualAttributeProcessor
from repro.core.vdp import AnnotatedVDP, NodeKind
from repro.deltas import AnyDelta, BagDelta, SetDelta, select_project, set_to_bag
from repro.errors import MediatorError, SourceUnavailableError
from repro.obs.metrics import reset_dataclass_counters
from repro.obs.provenance import TxnOrigin, origin_labels
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import TRUE, Relation

__all__ = ["IUPStats", "UpdateTransactionResult", "IncrementalUpdateProcessor"]


@dataclass
class IUPStats:
    """Counters exposed to benchmarks."""

    transactions: int = 0
    empty_transactions: int = 0
    deferred_transactions: int = 0
    rules_fired: int = 0
    nodes_processed: int = 0
    temp_requests: int = 0
    delta_atoms_applied: int = 0
    propagation_passes: int = 0
    batched_messages: int = 0

    def reset(self) -> None:
        """Zero every counter (fields-derived; new counters reset for free)."""
        reset_dataclass_counters(self)


@dataclass
class UpdateTransactionResult:
    """What one update transaction did (for observers and benchmarks)."""

    flushed_messages: int
    flushed_atoms: int
    processed_nodes: Tuple[str, ...]
    rules_fired: int
    temps_requested: Tuple[str, ...]
    sources_polled: int
    deferred: bool = False
    unavailable_source: Optional[str] = None

    @property
    def was_empty(self) -> bool:
        """True when the queue was empty and nothing happened."""
        return self.flushed_messages == 0


class IncrementalUpdateProcessor:
    """Propagates queued source updates into the materialized data."""

    def __init__(
        self,
        annotated: AnnotatedVDP,
        store: LocalStore,
        rulebase: RuleBase,
        vap: VirtualAttributeProcessor,
        queue: UpdateQueue,
        tracer: Tracer = NULL_TRACER,
    ):
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.store = store
        self.rulebase = rulebase
        self.vap = vap
        self.queue = queue
        self.tracer = tracer
        self.stats = IUPStats()
        #: A :class:`~repro.durability.DurabilityManager`, when attached.
        #: Notified at commit time — after the kernel has applied every
        #: delta and the entries were marked reflected, so the logged record
        #: describes only state the store durably reflects (a deferred
        #: transaction never reaches the hook and never logs).
        self.durability = None
        #: The current transaction's repository writes, in apply order —
        #: exactly the arguments of every :meth:`_apply_to_node` since the
        #: transaction began.  Handed to the durability commit hook so WAL
        #: shipping can replicate stored state physically (replicas replay
        #: these instead of re-running propagation, which may poll).
        self._txn_applies: List[Tuple[str, AnyDelta]] = []

    # ------------------------------------------------------------------
    # The general IUP algorithm
    # ------------------------------------------------------------------
    def run_transaction(self) -> UpdateTransactionResult:
        """Flush the queue and propagate everything in it (one transaction)."""
        self.stats.transactions += 1
        tracer = self.tracer
        with tracer.span("update_txn") as txn_span:
            with tracer.span("queue_flush") as flush_span:
                combined, entries = self.queue.flush()
                flush_span.set(messages=len(entries))
            if combined is None:
                self.stats.empty_transactions += 1
                txn_span.set(empty=True)
                return UpdateTransactionResult(0, 0, (), 0, (), 0)

            leaf_deltas = self._leaf_deltas(combined)
            prov = tracer.provenance
            if prov.enabled:
                prov.begin_transaction(self._leaf_subs(entries))
            if tracer.enabled:
                for leaf in sorted(leaf_deltas):
                    tracer.event(
                        "leaf_delta",
                        leaf=leaf,
                        entries=leaf_deltas[leaf].entry_count(),
                        origins=origin_labels(prov.live_origins(leaf)),
                    )

            # Phase (a): determine needed temporary relations.  With
            # provenance on, leaves whose net delta cancelled to empty but
            # whose per-origin sub-deltas did not are still traversed (for
            # attribution-only firings), so their rules' reads are prepared
            # too.
            extra_affected: Set[str] = set(prov.live_nodes()) if prov.enabled else set()
            with tracer.span("iup_prepare") as prep_span:
                requests = self._prepare(leaf_deltas, extra_affected)
                prep_span.set(temps=sorted(requests))
            self.stats.temp_requests += len(requests)

            # Phase (b): populate them through the VAP (state ref'(t_{i-1})).
            # A source going down between flush and poll aborts the
            # transaction *before* any store mutation (the kernel has not
            # run), so the flushed entries can be requeued intact and
            # retried next cycle — graceful degradation instead of a hang
            # or a half-applied delta.
            polls_before = self.vap.stats.polled_sources
            in_flight = self._in_flight_by_source(entries)
            try:
                temps = self.vap.materialize(requests.values(), in_flight) if requests else {}
            except SourceUnavailableError as exc:
                self.queue.requeue_front(entries)
                self.stats.deferred_transactions += 1
                tracer.event("txn_deferred", source=exc.source)
                txn_span.set(deferred=True)
                return UpdateTransactionResult(
                    0, 0, (), 0, tuple(sorted(requests)), 0,
                    deferred=True, unavailable_source=exc.source,
                )
            sources_polled = self.vap.stats.polled_sources - polls_before

            # Phase (c): the kernel, reading temporaries in place of
            # virtual data.  The N flushed messages were smashed into
            # per-leaf deltas above, so the whole batch costs exactly one
            # propagation pass.
            self._index_temps(temps)
            self.stats.batched_messages += len(entries)
            self._txn_applies = []
            with tracer.span("kernel") as kernel_span:
                self.stats.propagation_passes += 1
                processed, fired = self._kernel(leaf_deltas, temps)
                kernel_span.set(nodes=list(processed), rules_fired=fired)
            prov.commit()
            self.queue.mark_reflected(entries)
            if self.durability is not None:
                self.durability.on_transaction_commit(
                    entries, processed, self._txn_applies
                )
            # The kernel just advanced the materialized state past these
            # leaf deltas, so cached VAP temporaries whose lineage they
            # touch are now stale — exactly here, and only here, do they
            # die.  (A deferred transaction mutates nothing, so its path
            # above invalidates nothing.)
            self.vap.invalidate_cache(leaf_deltas)
            txn_span.set(
                messages=len(entries),
                atoms=combined.atom_count(),
                rules_fired=fired,
                sources_polled=sources_polled,
            )

        return UpdateTransactionResult(
            flushed_messages=len(entries),
            flushed_atoms=combined.atom_count(),
            processed_nodes=tuple(processed),
            rules_fired=fired,
            temps_requested=tuple(sorted(requests)),
            sources_polled=sources_polled,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _leaf_deltas(self, combined: SetDelta) -> Dict[str, BagDelta]:
        """Split the flushed delta into per-leaf bag deltas.

        Leaf node names coincide with source relation names; atoms naming
        relations outside the VDP are ignored (the source announced more
        than this mediator integrates).
        """
        out: Dict[str, BagDelta] = {}
        for leaf in self.vdp.leaves():
            restricted = combined.restrict_to([leaf])
            if not restricted.is_empty():
                out[leaf] = set_to_bag(restricted)
        return out

    def _leaf_subs(
        self, entries: List[QueuedUpdate]
    ) -> Dict[str, List[Tuple[TxnOrigin, BagDelta]]]:
        """Per-leaf, per-origin sub-deltas of the flushed entries.

        These are the *pre-fold* deltas: their bag-sum equals the
        net-accumulated per-leaf delta (cancellation is addition of signed
        counts), which is what makes leaf-level provenance attribution
        exact.
        """
        leaves = set(self.vdp.leaves())
        out: Dict[str, List[Tuple[TxnOrigin, BagDelta]]] = {}
        for entry in entries:
            for relation in entry.delta.relations():
                if relation not in leaves:
                    continue
                restricted = entry.delta.restrict_to([relation])
                if not restricted.is_empty():
                    out.setdefault(relation, []).append(
                        (entry.origin, set_to_bag(restricted))
                    )
        return out

    def _in_flight_by_source(self, entries: List[QueuedUpdate]) -> Dict[str, List[SetDelta]]:
        grouped: Dict[str, List[SetDelta]] = {}
        for entry in entries:
            grouped.setdefault(entry.source, []).append(entry.delta)
        return grouped

    def _index_temps(self, temps: Mapping[str, Relation]) -> None:
        """Build declared join-key indexes on this transaction's temporaries.

        Temporaries are fresh relations, so this is a per-transaction build
        over |temp| rows — but the kernel then applies deltas to them
        (:meth:`_apply_to_node`) with the indexes maintained incrementally,
        and every rule firing probes instead of re-hashing.
        """
        for name, temp in temps.items():
            attrs = set(temp.schema.attribute_names)
            for keys in sorted(self.store.index_requirements_for(name)):
                if set(keys) <= attrs:
                    temp.ensure_index(keys, self.store.counters)

    # ------------------------------------------------------------------
    # Phase (a): the IUP Preparation Algorithm
    # ------------------------------------------------------------------
    def _prepare(
        self,
        leaf_deltas: Mapping[str, BagDelta],
        extra_affected: Iterable[str] = (),
    ) -> Dict[str, TempRequest]:
        """Dry-run the kernel to collect temporary-relation requests.

        Conservatively treats every node reachable from an updated leaf as
        affected (a real run might see its delta cancel to empty); for every
        rule that would fire, the relations the rule reads that are not
        covered by materialized storage are requested at the width the
        rule's definition references.
        """
        affected: Set[str] = set(leaf_deltas) | set(extra_affected)
        requests: Dict[str, TempRequest] = {}
        schemas = self.vdp.schemas()
        for name in self.vdp.topological_order():
            if name not in affected:
                continue
            for rule in self.rulebase.rules_out_of(name):
                parent = rule.parent
                affected.add(parent)
                parent_node = self.vdp.node(parent)
                needs = child_requirements(
                    parent_node.definition,
                    frozenset(parent_node.schema.attribute_names),
                    TRUE,
                    schemas,
                )
                for sibling in rule.sibling_names():
                    requirement = needs.get(sibling)
                    if requirement is None:
                        continue
                    if self._covered(requirement):
                        continue
                    existing = requests.get(sibling)
                    requests[sibling] = (
                        existing.merge(requirement) if existing else requirement
                    )
        return requests

    def _covered(self, request: TempRequest) -> bool:
        if not self.store.has_repo(request.relation):
            return False
        ann = self.annotated.annotation(request.relation)
        return ann.covers(request.attrs | request.predicate.attributes())

    # ------------------------------------------------------------------
    # Phase (c): the IUP Kernel Algorithm
    # ------------------------------------------------------------------
    def _kernel(
        self,
        leaf_deltas: Mapping[str, BagDelta],
        temps: Dict[str, Relation],
    ) -> Tuple[List[str], int]:
        processed: List[str] = []
        fired = 0
        tracer = self.tracer
        prov = tracer.provenance

        # Initialization (step 1): fire all rules out of updated leaves.
        for leaf in sorted(leaf_deltas):
            fired += self._fire_rules_out_of(leaf, leaf_deltas[leaf], temps)

        # Upward traversal (step 2): process nodes children-first.
        for name in self.vdp.non_leaves():
            if not self.store.has_pending_delta(name):
                continue
            delta = self.store.delta(name)
            node = self.vdp.node(name)
            if node.kind is NodeKind.SET:
                before = delta.atom_count()
                delta = self._normalize_set_delta(name, delta, temps)
                if delta.atom_count() != before:
                    # Set-semantics normalization dropped atoms: the node's
                    # actual change is no longer the bag image of its
                    # contributions, so origin attribution through it can
                    # only be an upper bound.
                    prov.mark_approx(name)
                if delta.is_empty():
                    self.store.clear_delta(name)
                    continue
            with tracer.span("process_node", node=name):
                fired += self._fire_rules_out_of(name, delta, temps)
                self._apply_to_node(name, delta, temps)
                if tracer.enabled:
                    size = (
                        delta.atom_count()
                        if isinstance(delta, SetDelta)
                        else delta.entry_count()
                    )
                    tracer.event("node_apply", node=name, delta_size=size)
            self.store.clear_delta(name)
            processed.append(name)
            self.stats.nodes_processed += 1

        # Attribution pass (step 3): with every delta applied, blame each
        # origin by firing its exclusion deltas against post-state
        # catalogs (see _reconcile_provenance for why it must run last).
        if prov.enabled:
            self._reconcile_provenance(temps)
        return processed, fired

    def _normalize_set_delta(
        self, name: str, delta: SetDelta, temps: Mapping[str, Relation]
    ) -> SetDelta:
        """Drop redundant atoms from a set node's accumulated delta.

        Normalizes against the node's repository when it stores full rows,
        else against its (old-state) temporary, so the propagated delta is
        the exact net change in either case.
        """
        if self.store.has_repo(name) and self.annotated.is_fully_materialized(name):
            return self.store.normalize_set_delta(name, delta)
        temp = temps.get(name)
        if temp is None:
            return delta
        out = SetDelta()
        for r, sign in delta.atoms_for(name):
            present = temp.contains(r)
            if sign > 0 and not present:
                out.insert(name, r)
            elif sign < 0 and present:
                out.delete(name, r)
        self.store.stats.deltas_smashed += delta.atom_count() - out.atom_count()
        return out

    def _fire_rules_out_of(
        self, name: str, delta: AnyDelta, temps: Mapping[str, Relation]
    ) -> int:
        bag_delta = set_to_bag(delta) if isinstance(delta, SetDelta) else delta
        fired = 0
        tracer = self.tracer
        for rule in self.rulebase.rules_out_of(name):
            catalog = {}
            for sibling in rule.sibling_names():
                catalog[sibling] = self._resolve(sibling, temps)
            contribution = rule.fire(bag_delta, catalog, self.store.counters)
            if not contribution.is_empty():
                self.store.accumulate(rule.parent, contribution)
            fired += 1
            self.stats.rules_fired += 1
            if tracer.enabled:
                out_size = (
                    contribution.atom_count()
                    if isinstance(contribution, SetDelta)
                    else contribution.entry_count()
                )
                tracer.event(
                    "rule_fire",
                    child=name,
                    parent=rule.parent,
                    delta_size=bag_delta.entry_count(),
                    contribution_size=out_size,
                )
        return fired

    # ------------------------------------------------------------------
    # Delta provenance attribution (active only with provenance tracing)
    # ------------------------------------------------------------------
    def _reconcile_provenance(self, temps: Mapping[str, Relation]) -> None:
        """Blame origins bottom-up against *post-transaction* state.

        The contract (``repro.obs.provenance``) is exclusion semantics: an
        origin belongs to a node's origin set iff excluding that source
        transaction would change the node's recomputed value.  For a
        linear rule, the origin's *exclusion delta* at the parent is the
        rule fired with the child's exclusion delta against the siblings'
        post-transaction values — post-state, because under exclusion every
        *other* origin stays applied.  That is why this pass cannot run
        during the upward traversal: there rules fire against mixed
        pre/post sibling states (exact for the value computation, by
        telescoping), so a join cross term — a new-R row meeting a new-S
        row — would be blamed only on whichever side fired second and
        silently omitted from the other side's origin set.

        Exclusion deltas accumulate in the provenance tracker's per-origin
        row counts (summed across a node's incoming edges, so diamond
        paths that cancel drop the origin correctly).  Non-linear rules
        (difference, self-joins) don't decompose per origin; they carry the
        child's whole origin set across and flag the parent approximate —
        an upper bound, never an omission.  The same demotion applies when
        one origin reaches both inputs of a join (its exclusion delta is
        then not linear in either child alone).
        """
        prov = self.tracer.provenance
        leaves = set(self.vdp.leaves())
        edges_into: Dict[str, List[Tuple[str, CompiledRule]]] = {}
        for child in self.vdp.topological_order():
            for rule in self.rulebase.rules_out_of(child):
                edges_into.setdefault(rule.parent, []).append((child, rule))
        with self.tracer.span("provenance_reconcile"):
            # non_leaves() is children-first, so when a parent is visited
            # every child's origin set and exclusion sub-deltas are final.
            for parent in self.vdp.non_leaves():
                for child, rule in edges_into.get(parent, ()):
                    live = prov.live_origins(child)
                    if not live:
                        continue
                    if prov.live_approx(child) or not rule.is_linear:
                        prov.note_origins(parent, live)
                        prov.mark_approx(parent)
                        continue
                    catalog = {}
                    shared = frozenset()
                    for sibling in rule.sibling_names():
                        catalog[sibling] = self._resolve(sibling, temps)
                        shared |= live & prov.live_origins(sibling)
                    if shared:
                        prov.note_origins(parent, shared)
                        prov.mark_approx(parent)
                    for origin, sub in prov.sub_deltas(child):
                        prov.record_contribution(
                            parent, origin, rule.fire(sub, catalog)
                        )
            if self.tracer.enabled:
                for node in prov.live_nodes():
                    if node in leaves:
                        continue
                    self.tracer.event(
                        "node_provenance",
                        node=node,
                        origins=origin_labels(prov.live_origins(node)),
                        approx=prov.live_approx(node),
                    )

    def _resolve(self, name: str, temps: Mapping[str, Relation]) -> Relation:
        if name in temps:
            return temps[name]
        if self.store.has_repo(name):
            # For a hybrid node this is the projection onto its materialized
            # attributes — sufficient exactly when preparation found the
            # rule's requirement covered (otherwise a temporary exists).
            return self.store.repo(name)
        raise MediatorError(
            f"rule needs virtual node {name!r} but no temporary was prepared"
        )

    def _apply_to_node(
        self, name: str, delta: AnyDelta, temps: Dict[str, Relation]
    ) -> None:
        """Apply a processed node's delta to its repository and temporary."""
        if isinstance(delta, SetDelta):
            self.stats.delta_atoms_applied += delta.atom_count()
        else:
            self.stats.delta_atoms_applied += delta.entry_count()
        self._txn_applies.append((name, delta))
        self.store.apply_delta(name, delta)
        temp = temps.get(name)
        if temp is not None:
            bag_delta = set_to_bag(delta) if isinstance(delta, SetDelta) else delta
            projected = select_project(
                bag_delta, name, TRUE, tuple(temp.schema.attribute_names)
            )
            projected.apply_to(temp, name)
