"""Delta pushdown through select/project/rename (Section 6.2).

The commutation law of Section 6.2::

    π_C σ_f apply(R, Δ)  =  apply(π_C σ_f R, π_C σ_f Δ)

``select_project`` implements the right-hand side's ``π_C σ_f Δ``;
:mod:`repro.deltas.filtering` builds leaf-parent filtering on top of it.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.deltas.delta import Delta
from repro.relalg.predicates import Predicate, TruePredicate
from repro.relalg.tuples import Row, project_map, rename_map

__all__ = ["select_project", "rename_delta"]


def select_project(
    delta: Delta,
    relation: str,
    predicate: Predicate,
    attrs: Optional[Sequence[str]] = None,
    out_relation: Optional[str] = None,
) -> Delta:
    """Compute ``π_attrs σ_predicate Δ`` for one relation of ``delta``.

    Projection can merge several atoms onto one output row; their counts
    add up (this is precisely why the paper stores projection/union nodes
    as bags).  ``attrs=None`` means "no projection".
    """
    target = out_relation or relation
    out = Delta()
    # The test and the projection are resolved per row layout (the
    # ``_names`` of a delta's rows), then applied by position.
    at = None if isinstance(predicate, TruePredicate) else predicate.compiled_test().at
    attrs = None if attrs is None else tuple(attrs)
    new, names, test, get = Row.new, None, None, None
    for r, n in delta.atoms_for(relation):
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


def rename_delta(delta: Delta, mapping: Mapping[str, str], relation: str,
                 out_relation: Optional[str] = None) -> Delta:
    """Rename attributes in the atoms of one relation of ``delta``."""
    target = out_relation or relation
    out = Delta()
    pairs = tuple(mapping.items())
    new, names = Row.new, None
    for r, n in delta.atoms_for(relation):
        if r._names is not names:
            names = r._names
            out_names, get = rename_map(names, pairs)
        out.add(target, new(Row, (out_names, get(r._values))), n)
    return out

