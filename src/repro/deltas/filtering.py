"""Filtering source deltas down to leaf-parent nodes (Section 6.2, end).

"Because each leaf-parent holds a relation which is a project-select of a
source database relation, it is easy to 'filter' the deltas in the update
queue so that they are applicable to the leaf-parent nodes."

A :class:`LeafParentFilter` captures one leaf-parent definition
``LP = π_C σ_h (SourceRel)`` and converts incoming multi-relation source
deltas into deltas on ``LP``.  The optional source-side optimization the
paper mentions (filtering at the source before transmission) is
:func:`prefilter`, used by sources configured to do so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.deltas.delta import Delta
from repro.deltas.operations import select_project
from repro.errors import DeltaError
from repro.relalg.predicates import CompiledTest, Predicate, TRUE, conjoin

__all__ = ["LeafParentFilter", "prefilter"]


@dataclass(frozen=True)
class LeafParentFilter:
    """Filter for one leaf-parent node ``target = π_attrs σ_predicate(source_relation)``."""

    target: str
    source_relation: str
    predicate: Predicate = TRUE
    attrs: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        self.predicate.compiled_test()  # compile when the filter is built, not on its first delta

    @classmethod
    def from_chain(cls, target: str, chain) -> "LeafParentFilter":
        """Extract the filter from a leaf-parent definition chain.

        ``chain`` is a select/project/rename expression over a single source
        scan (Section 5.1 restriction (a)).  Selection predicates are
        collected and translated back through any renames below them, so the
        resulting predicate speaks the *source* relation's attribute names
        and can run at the source (the Section 6.2 prefilter optimization).
        """
        from repro.relalg.expressions import Project, Rename, Scan, Select

        predicates: List[Predicate] = []
        node = chain
        while True:
            if isinstance(node, Select):
                predicates.append(node.predicate)
                node = node.child
            elif isinstance(node, Project):
                node = node.child
            elif isinstance(node, Rename):
                inverse = {new: old for old, new in node.mapping_dict.items()}
                predicates = [p.rename(inverse) for p in predicates]
                node = node.child
            elif isinstance(node, Scan):
                predicate = conjoin(*predicates) if predicates else TRUE
                return cls(target, node.name, predicate)
            else:
                raise DeltaError(
                    f"leaf-parent definition for {target!r} is not a chain: {chain}"
                )

    def filter(self, delta: Delta) -> Delta:
        """The delta on the leaf-parent implied by a source delta."""
        return select_project(
            delta,
            self.source_relation,
            self.predicate,
            self.attrs,
            out_relation=self.target,
        )


def prefilter(delta: Delta, filters: Sequence[LeafParentFilter]) -> Delta:
    """Source-side optimization: drop the atoms no leaf-parent can use.

    An atom survives when no filter reads its relation, or when it passes
    the selection condition of *some* filter over that relation — dropping
    it would starve a node that needs it.  The delta stays in
    source-relation terms (ordinary filtering still applies at the
    mediator); projection is *not* applied, since the source cannot know
    whether other mediator nodes need the full rows.
    """
    tests: Dict[str, List[CompiledTest]] = {}
    for f in filters:
        tests.setdefault(f.source_relation, []).append(f.predicate.compiled_test())
    out = Delta()
    for rel, r, n in delta.atoms():
        mine = tests.get(rel)
        if mine is None or any(test.at(r._names)(r._values) for test in mine):
            out.add(rel, r, n)
    return out
