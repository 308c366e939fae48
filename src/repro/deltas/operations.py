"""Generic delta operations: apply / smash / inverse / pushdown.

These free functions give a uniform surface over :class:`SetDelta` and
:class:`BagDelta` plus the commutation law of Section 6.2::

    π_C σ_f apply(R, Δ)  =  apply(π_C σ_f R, π_C σ_f Δ)

``select_project`` implements the right-hand side's ``π_C σ_f Δ`` for both
delta kinds; :mod:`repro.deltas.filtering` builds leaf-parent filtering on
top of it.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Union as TypingUnion

from repro.deltas.bag_delta import BagDelta
from repro.deltas.delta import SetDelta
from repro.errors import DeltaError
from repro.relalg.predicates import Predicate, TruePredicate
from repro.relalg.relation import BagRelation, Relation, SetRelation
from repro.relalg.tuples import Row, project_map, rename_map

__all__ = [
    "AnyDelta",
    "net_accumulate",
    "apply_delta",
    "smash_all",
    "set_to_bag",
    "bag_to_set",
    "select_project",
    "rename_delta",
]

AnyDelta = TypingUnion[SetDelta, BagDelta]


def apply_delta(relation: Relation, delta: AnyDelta, relation_name: Optional[str] = None) -> None:
    """Apply ``delta``'s atoms/entries for ``relation_name`` to ``relation``.

    Dispatches on the relation container: set relations take set deltas (a
    bag delta with all counts in {+1, -1} is converted), bag relations take
    bag deltas (a set delta is converted).
    """
    name = relation_name or relation.schema.name
    if isinstance(relation, SetRelation):
        if isinstance(delta, BagDelta):
            delta = bag_to_set(delta)
        delta.apply_to(relation, name)
    elif isinstance(relation, BagRelation):
        if isinstance(delta, SetDelta):
            delta = set_to_bag(delta)
        delta.apply_to(relation, name)
    else:
        raise DeltaError(f"cannot apply delta to relation of type {type(relation).__name__}")


def smash_all(deltas: Iterable[AnyDelta]) -> Optional[AnyDelta]:
    """Smash a sequence of deltas left-to-right; ``None`` for an empty input.

    This is the IUP's initialization step: "Let Δ hold the smash of all
    incremental updates held in the queue" (Section 6.4).  All deltas must
    be of the same kind.
    """
    result: Optional[AnyDelta] = None
    for delta in deltas:
        if result is None:
            result = delta.copy()
        else:
            if type(result) is not type(delta):
                raise DeltaError("cannot smash set deltas with bag deltas")
            result = result.smash(delta)
    return result


def set_to_bag(delta: SetDelta) -> BagDelta:
    """View a set delta as a bag delta (signs become ±1 counts)."""
    out = BagDelta()
    for rel, r, sign in delta.atoms():
        out.add(rel, r, sign)
    return out


def bag_to_set(delta: BagDelta) -> SetDelta:
    """Convert a bag delta whose counts are all ±1 into a set delta."""
    out = SetDelta()
    for rel, r, n in delta.entries():
        if n == 1:
            out.insert(rel, r)
        elif n == -1:
            out.delete(rel, r)
        else:
            raise DeltaError(
                f"bag delta entry {rel}({dict(r)}) has count {n}; not expressible as a set delta"
            )
    return out


def select_project(
    delta: AnyDelta,
    relation: str,
    predicate: Predicate,
    attrs: Optional[Sequence[str]] = None,
    out_relation: Optional[str] = None,
) -> BagDelta:
    """Compute ``π_attrs σ_predicate Δ`` for one relation of ``delta``.

    The result is always a *bag* delta: projection can merge several source
    atoms onto one output row, and only signed counts represent that
    faithfully (this is precisely why the paper stores projection/union
    nodes as bags).  ``attrs=None`` means "no projection".
    """
    target = out_relation or relation
    out = BagDelta()
    if isinstance(delta, SetDelta):
        entries = ((r, s) for r, s in delta.atoms_for(relation))
    else:
        entries = delta.entries_for(relation)
    # The test and the projection are resolved per row layout (the
    # ``_names`` of a delta's rows), then applied by position.
    at = None if isinstance(predicate, TruePredicate) else predicate.compiled_test().at
    attrs = None if attrs is None else tuple(attrs)
    new, names, test, get = Row.new, None, None, None
    for r, n in entries:
        if r._names is not names:
            names = r._names
            test = None if at is None else at(names)
            if attrs is not None:
                out_names, get, _ = project_map(names, attrs)
        values = r._values
        if test is not None and not test(values):
            continue
        if attrs is None:
            projected = r
        else:
            projected = new(Row, (out_names, get(values))) if get else r.project(attrs)
        out.add(target, projected, n)
    return out


def rename_delta(delta: AnyDelta, mapping: Mapping[str, str], relation: str,
                 out_relation: Optional[str] = None) -> BagDelta:
    """Rename attributes in the atoms of one relation of ``delta``."""
    target = out_relation or relation
    out = BagDelta()
    if isinstance(delta, SetDelta):
        entries = ((r, s) for r, s in delta.atoms_for(relation))
    else:
        entries = delta.entries_for(relation)
    pairs = tuple(mapping.items())
    new, names = Row.new, None
    for r, n in entries:
        if r._names is not names:
            names = r._names
            out_names, get = rename_map(names, pairs)
        out.add(target, new(Row, (out_names, get(r._values))), n)
    return out


def net_accumulate(pending: SetDelta, committed: SetDelta) -> SetDelta:
    """Fold consecutive in-order deltas into one *net* delta.

    Opposite atoms for the same row cancel (an insert that undoes an earlier
    delete — or vice versa — nets to nothing), so the result is exactly the
    difference between the first delta's base state and the last delta's
    final state.  Plain smash would instead keep the later atom, producing
    an atom redundant for the base state; under bag-projection that
    redundancy silently corrupts multiplicities.  Used by source
    announcement accumulation, queue flushing, compensation, and
    warm-restart catch-up.  Precondition (holds for deltas drawn from one
    relation timeline): no same-sign collision on the same row.
    """
    out = SetDelta()
    cancelled = set()
    for rel, r, sign in committed.atoms():
        if pending.sign(rel, r) == -sign:
            cancelled.add((rel, r))
    for rel, r, sign in pending.atoms():
        if (rel, r) not in cancelled:
            (out.insert if sign > 0 else out.delete)(rel, r)
    for rel, r, sign in committed.atoms():
        if (rel, r) not in cancelled:
            (out.insert if sign > 0 else out.delete)(rel, r)
    return out
