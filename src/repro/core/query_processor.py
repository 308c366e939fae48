"""The Query Processor (Section 4, Section 6.3).

The QP is the mediator's query interface.  "Upon receiving a query against
the view, the QP determines first whether the query can be answered solely
based on the materialized portion of the view.  In case virtual data is
needed ... the QP requests the VAP to construct temporary relations
containing the relevant data."

Queries are algebra expressions over the VDP's non-leaf relations (usually
the export relations).  The QP computes, per referenced relation, the
attribute set the query touches (the same lineage walk that powers
``derived_from``); relations whose touched attributes are all materialized
are read straight from the local store, the rest go through the VAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.core.derived_from import TempRequest, child_requirements
from repro.core.local_store import LocalStore
from repro.core.vap import VirtualAttributeProcessor
from repro.core.vdp import AnnotatedVDP
from repro.errors import MediatorError
from repro.obs.metrics import reset_dataclass_counters
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import (
    TRUE,
    Evaluator,
    Expression,
    Predicate,
    Project,
    Relation,
    Scan,
    Select,
    TruePredicate,
)

__all__ = ["QPStats", "QueryProcessor"]


@dataclass
class QPStats:
    """Counters exposed to benchmarks."""

    queries: int = 0
    materialized_only: int = 0
    with_virtual: int = 0

    def reset(self) -> None:
        """Zero every counter (fields-derived; new counters reset for free)."""
        reset_dataclass_counters(self)


class QueryProcessor:
    """Answers queries against the integrated view."""

    def __init__(
        self,
        annotated: AnnotatedVDP,
        store: LocalStore,
        vap: VirtualAttributeProcessor,
        tracer: Tracer = NULL_TRACER,
    ):
        self.tracer = tracer
        self.annotated = annotated
        self.vdp = annotated.vdp
        self.store = store
        self.vap = vap
        self.stats = QPStats()

    # ------------------------------------------------------------------
    def query(self, expr: Expression, name: str = "answer") -> Relation:
        """Answer an algebra query over the mediator's non-leaf relations."""
        tracer = self.tracer
        with tracer.span("query", answer=name) as span:
            refs = sorted(expr.relation_names())
            self._check_refs(refs)
            self.stats.queries += 1

            requests = self._requests_for(expr, refs)
            uncovered = [r for r in requests.values() if not self._covered(r)]
            if tracer.enabled:
                tracer.event(
                    "query_classify",
                    refs=refs,
                    uncovered=sorted(r.relation for r in uncovered),
                )
            if uncovered:
                self.stats.with_virtual += 1
                # Only the uncovered requests go to the VAP: covered relations
                # are read straight from the store below, and handing them over
                # anyway would pollute the VAP's temp cache hit/miss accounting
                # (plan() would just re-derive their coveredness and drop them).
                temps = self.vap.materialize(uncovered)
            else:
                self.stats.materialized_only += 1
                temps = {}

            catalog: Dict[str, Relation] = {}
            for ref in refs:
                if ref in temps:
                    catalog[ref] = temps[ref]
                elif self.store.has_repo(ref):
                    catalog[ref] = self.store.repo(ref)
                else:
                    raise MediatorError(f"no data available for relation {ref!r}")
            schemas = {alias: rel.schema.rename_relation(alias) for alias, rel in catalog.items()}
            counters = self.store.counters
            evaluator = Evaluator(catalog, schemas=schemas, counters=counters)
            scanned = counters.rows_scanned
            with tracer.span("query_evaluate") as evaluate_span:
                answer = evaluator.evaluate(expr, name)
            if tracer.enabled:
                rows = answer.cardinality()
                evaluate_span.set(rows_scanned=counters.rows_scanned - scanned, rows_out=rows)
                span.set(rows=rows, virtual=bool(uncovered))
            return answer

    def query_relation(
        self,
        relation: str,
        attrs: Optional[Sequence[str]] = None,
        predicate: Predicate = TRUE,
        name: str = "answer",
    ) -> Relation:
        """The paper's query form ``π_A σ_f R`` against one view relation."""
        node = self.vdp.node(relation)
        attrs = tuple(attrs) if attrs is not None else node.schema.attribute_names
        expr: Expression = Scan(relation)
        if not isinstance(predicate, TruePredicate):
            expr = Select(expr, predicate)
        return self.query(Project(expr, attrs), name)

    # ------------------------------------------------------------------
    def _check_refs(self, refs: Iterable[str]) -> None:
        for ref in refs:
            node = self.vdp.node(ref)  # raises for unknown names
            if node.is_leaf:
                raise MediatorError(
                    f"queries run against mediator relations, not source leaf {ref!r}"
                )

    def _requests_for(self, expr: Expression, refs: Sequence[str]) -> Dict[str, TempRequest]:
        """Per-relation data requirements of the query.

        For the common single-relation chain ``π_A σ_f (R)`` the request is
        formed directly with ``f`` pushed into it (so a poll fetches only
        the selected rows); general expressions use the lineage walk.
        """
        chain = self._as_chain(expr)
        if chain is not None:
            relation, attrs, predicate = chain
            return {relation: TempRequest(relation, attrs, predicate)}
        schemas = self.vdp.schemas()
        output = frozenset(expr.infer_schema(schemas, "q").attribute_names)
        return child_requirements(expr, output, TRUE, schemas)

    @staticmethod
    def _as_chain(expr: Expression) -> Optional[Tuple[str, FrozenSet[str], Predicate]]:
        attrs: Optional[FrozenSet[str]] = None
        predicate: Predicate = TRUE
        node = expr
        while True:
            if isinstance(node, Project):
                if attrs is None:
                    attrs = frozenset(node.attrs)
                node = node.child
            elif isinstance(node, Select):
                predicate = predicate & node.predicate if not isinstance(predicate, TruePredicate) else node.predicate
                node = node.child
            elif isinstance(node, Scan):
                if attrs is None:
                    return None  # full scan: fall through to the generic path
                return node.name, attrs | predicate.attributes(), predicate
            else:
                return None

    def _covered(self, request: TempRequest) -> bool:
        if not self.store.has_repo(request.relation):
            return False
        ann = self.annotated.annotation(request.relation)
        return ann.covers(request.attrs | request.predicate.attributes())
