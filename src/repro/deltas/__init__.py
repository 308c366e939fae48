"""Heraclitus-style deltas: first-class database differences (Section 6.2).

One type, :class:`Delta`, holds ``{relation: {row: signed count}}`` for
sources, set nodes and bag nodes alike; smash is addition.  A count of ±1
is the paper's insertion/deletion atom, and set semantics apply only where
§5.2 puts them: a set relation takes ±1 counts, and
:meth:`Delta.normalized` drops the atoms redundant against a set node's
state.  ``SetDelta`` is the same class under the name sources use.
:mod:`~repro.deltas.operations` holds the select/project commutation;
:mod:`~repro.deltas.filtering` adapts source deltas to leaf-parent nodes.
"""

from repro.deltas.delta import Delta, SetDelta
from repro.deltas.filtering import LeafParentFilter, prefilter
from repro.deltas.operations import rename_delta, select_project

__all__ = [
    "Delta",
    "SetDelta",
    "LeafParentFilter",
    "prefilter",
    "select_project",
    "rename_delta",
]
