"""The delta-aware VAP temporary-relation cache.

The paper's hybrid approach (§2, §6.3) amortizes source access by keeping
*partially* materialized views; without a query-path cache, however, every
query that touches a virtual attribute re-plans and re-polls from scratch.
This module retains constructed temporaries keyed by their exact
``(relation, attrs, predicate)`` request: a later request for the same key
is one dict hit, anything else is a cold construction.  The VAP's work thus
stays what §6.3 makes it — planning plus construction — and a repeated
request skips the construction.

Soundness rests on the Eager Compensation invariant: every constructed
temporary reflects the node's value at the *materialized* state
``ref'(t_i)`` (poll answers are rewound past queued and in-flight deltas),
and that state only advances when an update transaction applies.  So:

* entries are **cacheable** only for lineages whose sources all announce
  (a virtual-contributor's commits never reach the mediator, so its polls
  must stay live) and only while eager compensation is enabled;
* entries are **invalidated precisely** when a transaction applies: an
  entry dies only if some applied leaf delta, pushed through the
  leaf-parent filters (:class:`~repro.deltas.LeafParentFilter`, §6.2) on
  the path into the entry's lineage, survives filtering — updates outside
  a leaf-parent's selection, and entries over untouched subtrees, keep
  their entries alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.derived_from import TempRequest
from repro.core.vdp import VDP
from repro.deltas import Delta
from repro.deltas.filtering import LeafParentFilter
from repro.errors import DeltaError
from repro.relalg import Relation

__all__ = ["CacheEntry", "InvalidatedEntry", "VAPTempCache"]


@dataclass
class CacheEntry:
    """One retained temporary: the request it answers and a private copy
    of its value (callers receive copies; the entry is never aliased)."""

    request: TempRequest
    value: Relation
    lineage: FrozenSet[str]  # leaf nodes this temp's value derives from

    @property
    def relation(self) -> str:
        return self.request.relation


@dataclass(frozen=True)
class InvalidatedEntry:
    """One dropped cache entry and the leaves whose deltas killed it —
    the raw material for ``cache_invalidate`` trace events."""

    request: TempRequest
    triggering_leaves: FrozenSet[str]

    @property
    def relation(self) -> str:
        return self.request.relation


class VAPTempCache:
    """Exact-match, precisely-invalidated store of VAP temps."""

    def __init__(self, vdp: VDP, max_entries_per_relation: int = 8):
        self.vdp = vdp
        self.max_entries_per_relation = max_entries_per_relation
        # Per relation, entries keyed by request, oldest first.
        self._entries: Dict[str, Dict[TempRequest, CacheEntry]] = {}
        self._filters_memo: Dict[str, Optional[LeafParentFilter]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Total live entries across all relations."""
        return sum(len(v) for v in self._entries.values())

    def entries_for(self, relation: str) -> Tuple[CacheEntry, ...]:
        """The live entries for one relation, oldest first (observers only)."""
        return tuple(self._entries.get(relation, {}).values())

    def clear(self) -> None:
        """Drop every entry (view re-initialization)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Lookup and fill
    # ------------------------------------------------------------------
    def lookup(self, request: TempRequest) -> Optional[Relation]:
        """A private copy of the temp retained for exactly ``request``, or
        ``None``; callers may mutate it freely."""
        entry = self._entries.get(request.relation, {}).get(request)
        return None if entry is None else entry.value.copy()

    def store(self, request: TempRequest, value: Relation) -> None:
        """Retain a freshly constructed temporary (a private copy of it) as
        the newest entry for its key, evicting the oldest over the cap."""
        entries = self._entries.setdefault(request.relation, {})
        entries.pop(request, None)
        entries[request] = CacheEntry(
            request=request,
            value=value.copy(),
            lineage=self.vdp.leaf_descendants(request.relation),
        )
        while len(entries) > self.max_entries_per_relation:
            del entries[next(iter(entries))]

    # ------------------------------------------------------------------
    # Precise invalidation
    # ------------------------------------------------------------------
    def invalidate(self, leaf_deltas: Mapping[str, Delta]) -> int:
        """Drop entries whose lineage is touched by applied leaf deltas.

        ``leaf_deltas`` maps leaf-node names to the deltas an update
        transaction just applied.  An entry survives unless some delta,
        filtered through a leaf-parent on the path into the entry's
        lineage, is non-empty — the §6.2 delta-filtering machinery reused
        as an invalidation sieve.  Returns the number of entries dropped.
        """
        return len(self.invalidate_detailed(leaf_deltas))

    def invalidate_detailed(
        self, leaf_deltas: Mapping[str, Delta]
    ) -> List[InvalidatedEntry]:
        """Like :meth:`invalidate`, but reports each dropped entry together
        with the set of leaves whose filtered deltas triggered the drop."""
        if not leaf_deltas:
            return []
        dropped: List[InvalidatedEntry] = []
        for relation in list(self._entries):
            keep: Dict[TempRequest, CacheEntry] = {}
            for request, entry in self._entries[relation].items():
                triggers = self._entry_triggers(entry, leaf_deltas)
                if triggers:
                    dropped.append(
                        InvalidatedEntry(
                            request=request,
                            triggering_leaves=frozenset(triggers),
                        )
                    )
                else:
                    keep[request] = entry
            if keep:
                self._entries[relation] = keep
            else:
                del self._entries[relation]
        return dropped

    def _entry_triggers(
        self, entry: CacheEntry, leaf_deltas: Mapping[str, Delta]
    ) -> List[str]:
        """The lineage leaves whose applied deltas survive the leaf-parent
        filters into this entry's subtree (empty == entry survives)."""
        triggers: List[str] = []
        for leaf in entry.lineage:
            delta = leaf_deltas.get(leaf)
            if delta is None:
                continue
            for parent in self.vdp.parents(leaf):
                if parent != entry.relation and entry.relation not in self.vdp.ancestors(parent):
                    continue  # a leaf-parent outside this entry's subtree
                filt = self._leaf_parent_filter(parent)
                if filt is None:
                    triggers.append(leaf)  # non-chain: be conservative
                    break
                if not filt.filter(delta).is_empty():
                    triggers.append(leaf)
                    break
        return triggers

    def _leaf_parent_filter(self, leaf_parent: str) -> Optional[LeafParentFilter]:
        if leaf_parent not in self._filters_memo:
            try:
                self._filters_memo[leaf_parent] = LeafParentFilter.from_chain(
                    leaf_parent, self.vdp.node(leaf_parent).definition
                )
            except DeltaError:
                self._filters_memo[leaf_parent] = None
        return self._filters_memo[leaf_parent]
