"""The Eager Compensation Algorithm generalization (Section 6.3).

When the mediator polls a hybrid-contributor source ``DB_k`` during an
update transaction, the answer reflects the source's *current* committed
state — which may already include updates whose announcements are (a)
sitting in the mediator's update queue, or (b) part of the delta ``Δ``
flushed for the transaction in progress.  The materialized data, however,
reflects the earlier state ``ref'(t_{i-1}).k``.

To make the poll answer line up, we apply "the inverse of [the] smash of
the updates for ``S`` that are in the update-queue up to the time when the
result of polling is received" — pushed through the same
selection/projection as the poll query itself, which is sound because apply
commutes with select and project (Section 6.2).

:func:`compensate` implements exactly that: given the polled answer for a
temporary relation defined by expression ``E`` over a leaf relation, and
the uncompensated deltas (queue + in-flight), it filters
``(smash(deltas))⁻¹`` through ``E`` and applies the result to the answer.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.deltas import Delta
from repro.errors import MediatorError
from repro.relalg import BagRelation, Expression, Relation, RelationSchema
from repro.core.rules import spj_delta

__all__ = ["compensate"]


def compensate(
    answer: Relation,
    temp_name: str,
    query_expr: Expression,
    leaf_name: str,
    leaf_schema: RelationSchema,
    uncompensated: Iterable[Delta],
) -> BagRelation:
    """Rewind a polled answer past not-yet-applied source updates.

    ``query_expr`` is the select/project(/rename) chain over ``leaf_name``
    that produced ``answer``; ``uncompensated`` are the source deltas (in
    arrival order) whose effects must be removed.  Returns the compensated
    answer as a bag.
    """
    result = BagRelation(answer.schema)
    for r, n in answer.items():
        result.insert(r, n)

    # Fold in arrival order: consecutive messages may carry +X then -X,
    # whose counts cancel — their net effect on the polled state is nothing.
    combined = Delta()
    for delta in uncompensated:
        combined.absorb(delta)
    inverse = combined.inverse().restrict_to([leaf_name])
    if inverse.is_empty():
        return result

    # Push the inverse through the same chain the poll used: because apply
    # commutes with select/project, apply(E(S), E(Δ⁻¹)) == E(apply(S, Δ⁻¹)).
    filtered = spj_delta(
        query_expr,
        temp_name,
        leaf_name,
        inverse,
        {},
        leaf_schema,
    )
    try:
        filtered.apply_to(result, temp_name)
    except Exception as exc:  # pragma: no cover - indicates an ordering bug
        raise MediatorError(
            f"compensation failed for temp {temp_name!r}: {exc}"
        ) from exc
    return result
