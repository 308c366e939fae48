"""The mediator's local store (Section 4, Section 6.4).

Two repositories are associated with each non-leaf node ``v`` with
``relation(v) = R``:

* ``R`` — the "current" population.  For a *fully materialized* bag node
  this is the node's bag; for a *hybrid* node it is the bag of the node's
  rows projected onto the materialized attributes; for a set node it is the
  set of full rows; for a *fully virtual* node nothing is stored.
* ``ΔR`` — the smash of incremental changes accumulated for ``R`` during a
  single IUP execution.  Deltas are always **full width** (they carry
  virtual attributes too, obtained from temporaries when necessary), so a
  parent rule can consume them regardless of its own annotation.

The store also performs view initialization: each node is populated
bottom-up by evaluating its definition over the already-populated children
(leaf children read from their sources).

Repositories additionally carry **persistent join indexes** on the key
tuples the compiled rulebase declares it will probe
(:meth:`LocalStore.declare_index_requirements`).  They are built once when
the repository is populated and maintained incrementally by the relation's
``insert``/``delete`` as deltas are applied — propagation therefore probes
an up-to-date index instead of re-hashing the sibling relation on every
rule firing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Set, Tuple

from repro.core.annotations import Annotation
from repro.core.derived_from import TempRequest
from repro.core.vdp import AnnotatedVDP, NodeKind
from repro.deltas import Delta, select_project
from repro.errors import MediatorError
from repro.relalg import (
    TRUE,
    BagRelation,
    EvalCounters,
    Evaluator,
    Relation,
    RelationSchema,
)

__all__ = ["LocalStore", "StoreStats"]

@dataclass
class StoreStats:
    """Net-effect compaction counters for the store's ΔR repositories.

    ``deltas_smashed`` counts atoms folded away by smashing incoming
    contributions into accumulated per-node deltas plus atoms dropped as
    redundant when a set node's delta is normalized — the kernel-level
    generalization of the update queue's ``deltas_compacted``.
    """

    deltas_smashed: int = 0

    def reset(self) -> None:
        from repro.obs.metrics import reset_dataclass_counters

        reset_dataclass_counters(self)


class LocalStore:
    """Materialized repositories and per-transaction delta repositories."""

    def __init__(self, annotated: AnnotatedVDP):
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.counters = EvalCounters()
        self.stats = StoreStats()
        self._repos: Dict[str, Relation] = {}
        self._deltas: Dict[str, Delta] = {}
        self._index_requirements: Dict[str, Set[Tuple[str, ...]]] = {}
        self._initialized = False

    def install_repo(self, name: str, relation: Relation) -> None:
        """Install an externally built repository (checkpoint restore)."""
        self._repos[name] = relation

    # ------------------------------------------------------------------
    # Persistent join indexes
    # ------------------------------------------------------------------
    def declare_index_requirements(
        self, requirements: Mapping[str, Set[Tuple[str, ...]]]
    ) -> None:
        """Register the join-key indexes the compiled rulebase will probe.

        Called once at mediator wiring, before :meth:`initialize`.  Indexes
        are built when repositories are populated and thereafter maintained
        incrementally by ``insert``/``delete`` — never rebuilt.  Keys not
        fully covered by a node's *stored* schema (hybrid projections) are
        skipped; those reads go through temporaries, which the IUP indexes
        per transaction.
        """
        for base, keysets in requirements.items():
            self._index_requirements.setdefault(base, set()).update(keysets)
        if self._initialized:
            self._build_declared_indexes()

    def index_requirements_for(self, name: str) -> Set[Tuple[str, ...]]:
        """Declared key tuples for one node."""
        return set(self._index_requirements.get(name, ()))

    def _build_declared_indexes(self) -> None:
        for name, keysets in self._index_requirements.items():
            repo = self._repos.get(name)
            if repo is not None:
                repo.ensure_indexes(keysets, self.counters)

    # ------------------------------------------------------------------
    # Storage schemas
    # ------------------------------------------------------------------
    def stored_schema(self, name: str) -> RelationSchema:
        """The schema of the stored portion of node ``name``."""
        node = self.vdp.node(name)
        ann = self.annotated.annotation(name)
        if ann.fully_materialized:
            return node.schema
        return node.schema.project(ann.materialized_attrs, name)

    def has_repo(self, name: str) -> bool:
        """True when the node stores anything."""
        return name in self._repos

    def covers(self, request: TempRequest) -> bool:
        """True when the node's stored projection alone answers ``request``."""
        if request.relation not in self._repos:
            return False
        ann = self.annotated.annotation(request.relation)
        return ann.covers(request.attrs | request.predicate.attributes())

    def repo(self, name: str) -> Relation:
        """The live repository of a node (raises for fully virtual nodes)."""
        try:
            return self._repos[name]
        except KeyError as exc:
            raise MediatorError(f"node {name!r} has no materialized repository") from exc

    def repos(self) -> Dict[str, Relation]:
        """All repositories, keyed by node name (live references)."""
        return dict(self._repos)

    # ------------------------------------------------------------------
    # Initialization (view-init time)
    # ------------------------------------------------------------------
    def initialize(self, leaf_values: Mapping[str, Relation]) -> None:
        """Populate every storing node bottom-up from leaf snapshots.

        ``leaf_values`` maps each leaf node name to its source relation's
        current value.  Fully virtual nodes are evaluated transiently (their
        value may be needed by storing ancestors) but not retained.
        """
        for name, full_value in self.evaluate_all(leaf_values):
            ann = self.annotated.annotation(name)
            if ann.materialized_attrs:
                self._repos[name] = self._stored_projection(name, full_value, ann)
        self._deltas = {}
        self._initialized = True
        self._build_declared_indexes()

    def evaluate_all(self, leaf_values: Mapping[str, Relation]) -> Iterator[Tuple[str, Relation]]:
        """Every non-leaf node's full value, evaluated bottom-up over leaf
        snapshots (what view initialization computes), children first."""
        transient: Dict[str, Relation] = {}
        for name in self.vdp.topological_order():
            node = self.vdp.node(name)
            if node.is_leaf:
                try:
                    transient[name] = leaf_values[name]
                except KeyError as exc:
                    raise MediatorError(f"missing initial value for leaf {name!r}") from exc
                continue
            evaluator = Evaluator(transient, counters=self.counters)
            transient[name] = evaluator.evaluate(node.definition, name)
            yield name, transient[name]

    def reinitialize_node(self, name: str, full_value: Relation) -> None:
        """Replace one storing node's repository with a fresh full value.

        Selective re-initialization (recovery after a source-log gap)
        recomputes the affected subtree from scratch and swaps each node's
        stored projection wholesale: declared indexes are rebuilt on the
        new repository and any accumulated ΔR is discarded (it described
        changes to the replaced population).
        """
        ann = self.annotated.annotation(name)
        if not ann.materialized_attrs:
            raise MediatorError(f"node {name!r} stores nothing; cannot reinitialize")
        self._repos[name] = self._stored_projection(name, full_value, ann)
        self._deltas.pop(name, None)
        self._repos[name].ensure_indexes(self._index_requirements.get(name, ()), self.counters)

    def _stored_projection(self, name: str, full_value: Relation, ann: Annotation) -> Relation:
        node = self.vdp.node(name)
        if ann.fully_materialized:
            return full_value.copy()
        # Hybrid: store the bag projection onto the materialized attributes.
        if node.kind is NodeKind.SET:
            raise MediatorError(f"set node {name!r} cannot be hybrid")
        stored: Counter = Counter()
        for r, n in full_value.items():
            stored[r.project(ann.materialized_attrs)] += n
        return BagRelation(self.stored_schema(name), stored)

    # ------------------------------------------------------------------
    # Delta repositories (ΔR)
    # ------------------------------------------------------------------
    def delta(self, name: str) -> Delta:
        """The accumulated full-width delta for a node (empty if none)."""
        return self._deltas.setdefault(name, Delta())

    def accumulate(self, name: str, delta: Delta) -> None:
        """Smash an incoming contribution into the node's ΔR repository, in
        place.

        Smashing is the kernel's net-effect compaction: atoms the incoming
        contribution cancels against the accumulated ΔR vanish here and are
        never applied or propagated.  The cancellation count is surfaced as
        ``store.deltas_smashed``.
        """
        self.stats.deltas_smashed += self.delta(name).absorb(delta)

    def has_pending_delta(self, name: str) -> bool:
        """True when the node has a non-empty accumulated delta."""
        d = self._deltas.get(name)
        return d is not None and not d.is_empty()

    def clear_delta(self, name: str) -> None:
        """Reset a node's ΔR repository (after processing)."""
        self._deltas.pop(name, None)

    def pending_nodes(self) -> Tuple[str, ...]:
        """Nodes with non-empty ΔR, in topological order."""
        return tuple(
            n for n in self.vdp.non_leaves() if self.has_pending_delta(n)
        )

    # ------------------------------------------------------------------
    # Applying deltas to repositories
    # ------------------------------------------------------------------
    def apply_delta(self, name: str, delta: Delta) -> None:
        """Apply a full-width delta to the node's stored projection."""
        if name not in self._repos:
            return  # fully virtual: nothing stored
        ann = self.annotated.annotation(name)
        repo = self._repos[name]
        if ann.fully_materialized:
            delta.apply_to(repo, name)
        else:
            projected = select_project(
                delta, name, predicate=TRUE, attrs=ann.materialized_attrs
            )
            projected.apply_to(repo, name)

    def retire_node(self, name: str) -> None:
        """Forget one node's storage entirely (repository, ΔR, indexes).

        Dynamic detach removes a subtree from the VDP; the store must drop
        the retired nodes' repositories so space is reclaimed and stale
        populations can never be read back.  Safe to call for nodes that
        never stored anything.
        """
        self._repos.pop(name, None)
        self._deltas.pop(name, None)
        self._index_requirements.pop(name, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_stored_rows(self) -> int:
        """Total multiplicity stored across all repositories (space proxy)."""
        return sum(repo.cardinality() for repo in self._repos.values())

    def total_stored_cells(self) -> int:
        """Stored rows × arity summed over repositories (finer space proxy)."""
        return sum(
            repo.cardinality() * repo.schema.arity for repo in self._repos.values()
        )

    def total_stored_bytes(self) -> int:
        """Estimated bytes across all repositories (see ``estimated_bytes``)."""
        return sum(repo.estimated_bytes() for repo in self._repos.values())

    def storage_metrics(self) -> List[Dict[str, object]]:
        """Per-node storage footprint rows for the stats CLI.

        One entry per storing node, sorted by name: stored multiplicity,
        distinct rows, and the byte estimate.
        """
        return [
            {
                "node": name,
                "rows_stored": repo.cardinality(),
                "distinct_rows": repo.distinct_size(),
                "estimated_bytes": repo.estimated_bytes(),
            }
            for name, repo in sorted(self._repos.items())
        ]

    @property
    def initialized(self) -> bool:
        """True once :meth:`initialize` has run."""
        return self._initialized
