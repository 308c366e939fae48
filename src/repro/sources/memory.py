"""In-memory source database.

The default source used in tests, examples and most benchmarks: relations
are :class:`~repro.relalg.SetRelation` instances, transactions apply
directly, and queries run through the algebra evaluator over a snapshot —
so every query sees a single consistent state, as the VAP's
one-transaction-per-poll packaging requires (Section 6.3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.deltas import SetDelta
from repro.errors import SourceError
from repro.relalg import (
    EvalCounters,
    Evaluator,
    Expression,
    Relation,
    RelationSchema,
    Row,
    SetRelation,
)
from repro.sources.base import SourceDatabase

__all__ = ["MemorySource"]


class MemorySource(SourceDatabase):
    """A source database backed by in-process set relations."""

    def __init__(
        self,
        name: str,
        schemas: Sequence[RelationSchema],
        initial: Optional[Mapping[str, Iterable]] = None,
    ):
        """``initial`` maps relation name to an iterable of value tuples."""
        super().__init__(name, schemas)
        self._relations: Dict[str, SetRelation] = {
            s.name: SetRelation(s) for s in schemas
        }
        self.counters = EvalCounters()
        if initial:
            for rel_name, value_rows in initial.items():
                if rel_name not in self._relations:
                    raise SourceError(f"source {name!r} has no relation {rel_name!r}")
                schema = self.schemas[rel_name]
                self._relations[rel_name] = SetRelation.from_values(schema, value_rows)

    def _snapshot(self) -> Dict[str, SetRelation]:
        return {name: rel.copy() for name, rel in self._relations.items()}

    def _contains(self, relation: str, row: Row) -> bool:
        return self._relations[relation].contains(row)

    def _apply(self, delta: SetDelta) -> None:
        for rel_name in delta.relations():
            delta.apply_to(self._relations[rel_name], rel_name)

    def query(self, expr: Expression, name: str = "answer") -> Relation:
        """Evaluate an algebra expression against the current state."""
        unknown = expr.relation_names() - set(self._relations)
        if unknown:
            raise SourceError(
                f"source {self.name!r} cannot answer query over {sorted(unknown)}"
            )
        self.query_count += 1
        evaluator = Evaluator(self._relations, counters=self.counters)
        return evaluator.evaluate(expr, name)
