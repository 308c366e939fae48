"""Delta provenance: which source transactions caused which node deltas.

Every announcement the mediator enqueues is stamped with a monotone
``(source, txn_id)`` origin (:class:`TxnOrigin` — the update queue assigns
ids per source in arrival order).  During an update transaction the IUP
feeds this tracker:

1. :meth:`ProvenanceTracker.begin_transaction` receives, per updated leaf,
   the flushed entries' deltas *before* the net-accumulate fold — one
   sub-delta per origin.  Their bag-sum equals the folded delta
   (cancellation is just addition of signed counts), so attribution is
   exact at the leaves.
2. While firing the rule for an edge, the IUP re-fires the rule once per
   origin sub-delta against the same sibling catalog
   (:meth:`sub_deltas` → :meth:`record_contribution`).  For **linear**
   rules — bag SPJ/union edges whose compiled parts reference the child
   exactly once — the per-origin contributions sum to the joint
   contribution exactly (the delta computation is linear in the child
   delta against fixed siblings), so per-row signed counts per origin are
   exact at every bag node too.
3. Non-linear edges (self-joins, difference rules) and set-delta
   normalization break that decomposition; those record the contributing
   origins wholesale (:meth:`note_origins`) and flag the node
   **approximate** (:meth:`is_approx`) — the origin set is then an upper
   bound, never an omission.

Rows whose signed counts cancel *across* origins are deliberately kept:
they vanish from the node's actual delta, but excluding either origin
alone would have changed the node, so both belong in its origin set.  The
resulting contract — verified against from-scratch recompute by
``tests/properties/test_provenance_exact.py`` — is: for exact nodes,
``origins_of(node)`` equals the set of source transactions whose exclusion
changes the node's recomputed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from repro.deltas import Delta

__all__ = ["TxnOrigin", "ProvenanceTracker"]


@dataclass(frozen=True, order=True)
class TxnOrigin:
    """One source transaction: the ``(source, txn_id)`` announcement stamp."""

    source: str
    txn_id: int

    @property
    def label(self) -> str:
        """The compact ``source#txn_id`` form used in trace events."""
        return f"{self.source}#{self.txn_id}"


def origin_labels(origins: Iterable[TxnOrigin]) -> List[str]:
    """Sorted ``source#txn`` labels — the JSON-friendly origin-set form."""
    return [o.label for o in sorted(origins)]


class ProvenanceTracker:
    """Per-(node, row, origin) signed-count bookkeeping for one mediator."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        # In-flight transaction state: node -> origin -> row -> signed count.
        self._counts: Dict[str, Dict[TxnOrigin, Dict[object, int]]] = {}
        # Origins attributed wholesale (approximate edges): node -> origins.
        self._forced: Dict[str, set] = {}
        self._approx: set = set()
        # Committed per-node results (last transaction that touched each).
        self._last_origins: Dict[str, FrozenSet[TxnOrigin]] = {}
        self._last_counts: Dict[str, Dict[TxnOrigin, Dict[object, int]]] = {}
        self._last_approx: set = set()

    # ------------------------------------------------------------------
    # Transaction lifecycle (driven by the IUP)
    # ------------------------------------------------------------------
    def begin_transaction(
        self, leaf_subs: Mapping[str, List[Tuple[TxnOrigin, Delta]]]
    ) -> None:
        """Start attribution for one update transaction.

        ``leaf_subs`` maps each updated leaf to its flushed entries'
        per-origin deltas, in arrival order.
        """
        if not self.enabled:
            return
        self._counts = {}
        self._forced = {}
        self._approx = set()
        for leaf, subs in leaf_subs.items():
            for origin, delta in subs:
                self.record_contribution(leaf, origin, delta)

    def record_contribution(
        self, node: str, origin: TxnOrigin, delta: Delta
    ) -> None:
        """Attribute one origin's (sub-)delta contribution to ``node``."""
        if not self.enabled:
            return
        rows = self._counts.setdefault(node, {}).setdefault(origin, {})
        for _, row, count in delta.atoms():
            rows[row] = rows.get(row, 0) + count

    def note_origins(self, node: str, origins: Iterable[TxnOrigin]) -> None:
        """Attribute origins without per-row counts (approximate edges)."""
        if not self.enabled:
            return
        self._forced.setdefault(node, set()).update(origins)

    def mark_approx(self, node: str) -> None:
        """Flag ``node``'s origin set as an upper bound, not exact."""
        if self.enabled:
            self._approx.add(node)

    def sub_deltas(self, node: str) -> List[Tuple[TxnOrigin, Delta]]:
        """The node's in-flight delta split per origin (sorted by origin).

        Rows whose count for an origin nets to zero are omitted from that
        origin's sub-delta (they contribute nothing downstream) but stay in
        the provenance record.
        """
        out: List[Tuple[TxnOrigin, Delta]] = []
        for origin in sorted(self._counts.get(node, {})):
            delta = Delta.from_counts(node, self._counts[node][origin])
            if delta:
                out.append((origin, delta))
        return out

    def live_origins(self, node: str) -> FrozenSet[TxnOrigin]:
        """Origins attributed to ``node`` in the in-flight transaction."""
        found = {
            origin
            for origin, rows in self._counts.get(node, {}).items()
            if any(count != 0 for count in rows.values())
        }
        found.update(self._forced.get(node, ()))
        return frozenset(found)

    def live_nodes(self) -> List[str]:
        """Nodes with any in-flight attribution this transaction, sorted."""
        return sorted(set(self._counts) | set(self._forced))

    def live_approx(self, node: str) -> bool:
        """True when the in-flight attribution for ``node`` is approximate."""
        return node in self._approx

    def commit(self) -> None:
        """Seal the in-flight transaction: every node touched this
        transaction overwrites its committed record (untouched nodes keep
        the record of the last transaction that changed them)."""
        if not self.enabled:
            return
        for node in set(self._counts) | set(self._forced):
            self._last_origins[node] = self.live_origins(node)
            self._last_counts[node] = {
                origin: dict(rows)
                for origin, rows in self._counts.get(node, {}).items()
            }
            if node in self._approx:
                self._last_approx.add(node)
            else:
                self._last_approx.discard(node)
        self._counts = {}
        self._forced = {}
        self._approx = set()

    # ------------------------------------------------------------------
    # Queries (post-commit)
    # ------------------------------------------------------------------
    def origins_of(self, node: str) -> FrozenSet[TxnOrigin]:
        """Origin set of the last committed delta that touched ``node``."""
        return self._last_origins.get(node, frozenset())

    def row_counts(self, node: str) -> Dict[TxnOrigin, Dict[object, int]]:
        """Per-origin signed row counts behind :meth:`origins_of` (tests)."""
        return {
            origin: dict(rows)
            for origin, rows in self._last_counts.get(node, {}).items()
        }

    def is_approx(self, node: str) -> bool:
        """True when the node's committed origin set is an upper bound."""
        return node in self._last_approx

    def tracked_nodes(self) -> List[str]:
        """Nodes with a committed provenance record, sorted."""
        return sorted(self._last_origins)

    def clear(self) -> None:
        """Forget everything (view re-initialization)."""
        self._counts = {}
        self._forced = {}
        self._approx = set()
        self._last_origins.clear()
        self._last_counts.clear()
        self._last_approx.clear()
