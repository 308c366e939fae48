"""Bag-semantics deltas (signed multiplicities).

Deltas "have also been generalized to bags [DHR95]" (Section 6.2).  A bag
delta maps each row of each relation to a non-zero *signed multiplicity*:
``+2`` means "insert two copies", ``-1`` means "remove one copy".  Mediator
*bag nodes* (every non-leaf node except difference nodes) accumulate their
incremental updates as bag deltas, which makes the counting-style SPJ and
union rules of Section 5.2 exact.

Bag smash is pointwise addition (composition of multiset adjustments), bag
inverse is pointwise negation, and bag apply adjusts multiplicities —
raising if a multiplicity would go negative, since that always indicates a
maintenance bug rather than a legal state.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DeltaError
from repro.relalg.relation import BagRelation
from repro.relalg.tuples import Row

__all__ = ["BagDelta"]


class BagDelta:
    """A multi-relation bag delta: ``relation -> {row: signed count}``."""

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[Row, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, relation: str, counts: Dict[Row, int]) -> "BagDelta":
        """Single-relation constructor from a signed-count mapping."""
        delta = cls()
        for r, n in counts.items():
            delta.add(relation, r, n)
        return delta

    @classmethod
    def diff(cls, name: str, before: BagRelation, after: BagRelation) -> "BagDelta":
        """The net bag delta turning ``before`` into ``after``."""
        delta = cls()
        rows = {r for r, _ in before.items()} | {r for r, _ in after.items()}
        # Sorted for run-to-run determinism: set iteration is hash-ordered,
        # and atom order is observable downstream (see SetDelta.diff).
        for r in sorted(rows, key=repr):
            delta.add(name, r, after.count(r) - before.count(r))
        return delta

    def add(self, relation: str, row: Row, signed_count: int) -> None:
        """Accumulate a signed multiplicity for ``row`` (0 is a no-op)."""
        if signed_count == 0:
            return
        rel_counts = self._counts.setdefault(relation, {})
        updated = rel_counts.get(row, 0) + signed_count
        if updated == 0:
            rel_counts.pop(row, None)
        else:
            rel_counts[row] = updated

    def insert(self, relation: str, row: Row, count: int = 1) -> None:
        """Accumulate ``count`` insertions of ``row``."""
        if count <= 0:
            raise DeltaError(f"insert count must be positive, got {count}")
        self.add(relation, row, count)

    def delete(self, relation: str, row: Row, count: int = 1) -> None:
        """Accumulate ``count`` deletions of ``row``."""
        if count <= 0:
            raise DeltaError(f"delete count must be positive, got {count}")
        self.add(relation, row, -count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def relations(self) -> Tuple[str, ...]:
        """Names of relations with at least one non-zero entry."""
        return tuple(rel for rel, counts in self._counts.items() if counts)

    def count(self, relation: str, row: Row) -> int:
        """The signed multiplicity of ``row`` in ``relation`` (0 if absent)."""
        return self._counts.get(relation, {}).get(row, 0)

    def entries(self) -> Iterator[Tuple[str, Row, int]]:
        """Iterate ``(relation, row, signed count)`` for all non-zero entries."""
        for rel, counts in self._counts.items():
            for r, n in counts.items():
                if n:
                    yield rel, r, n

    def entries_for(self, relation: str) -> Iterator[Tuple[Row, int]]:
        """Iterate ``(row, signed count)`` for one relation."""
        for r, n in self._counts.get(relation, {}).items():
            if n:
                yield r, n

    def counts_for(self, relation: str) -> Dict[Row, int]:
        """The signed-count mapping for one relation (a copy)."""
        return {r: n for r, n in self.entries_for(relation)}

    def insertions(self, relation: str) -> List[Tuple[Row, int]]:
        """Positive entries as ``(row, count)``."""
        return [(r, n) for r, n in self.entries_for(relation) if n > 0]

    def deletions(self, relation: str) -> List[Tuple[Row, int]]:
        """Negative entries as ``(row, count)`` with positive counts."""
        return [(r, -n) for r, n in self.entries_for(relation) if n < 0]

    def is_empty(self) -> bool:
        """True when no non-zero entries remain."""
        return all(not counts for counts in self._counts.values())

    def entry_count(self) -> int:
        """Number of distinct (relation, row) entries."""
        return sum(map(len, self._counts.values()))  # zero counts are never stored

    def magnitude(self) -> int:
        """Total absolute multiplicity across all entries."""
        return sum(abs(n) for _, _, n in self.entries())

    def restrict_to(self, relations: Iterable[str]) -> "BagDelta":
        """The sub-delta mentioning only the given relations."""
        wanted = set(relations)
        out = BagDelta()
        for rel, r, n in self.entries():
            if rel in wanted:
                out.add(rel, r, n)
        return out

    # ------------------------------------------------------------------
    # Heraclitus operators (bag flavour)
    # ------------------------------------------------------------------
    def smash(self, other: "BagDelta") -> "BagDelta":
        """Bag smash: pointwise addition of signed multiplicities."""
        out = self.copy()
        out.absorb(other)
        return out

    def absorb(self, other: "BagDelta") -> int:
        """``self ! other`` in place (:meth:`smash` without the copy); returns
        the entries it folded away — the gross minus the net entry count:
        one per row both hold, two when their counts cancel."""
        folded = 0
        for rel, counts in other._counts.items():
            if not counts:
                continue
            mine = self._counts.setdefault(rel, {})
            for r, n in counts.items():
                have = mine.get(r)
                if have is None:
                    mine[r] = n
                elif have + n:
                    mine[r] = have + n
                    folded += 1
                else:
                    del mine[r]
                    folded += 2
        return folded

    def inverse(self) -> "BagDelta":
        """Pointwise negation."""
        out = BagDelta()
        for rel, r, n in self.entries():
            out.add(rel, r, -n)
        return out

    def apply_to(self, relation: BagRelation, relation_name: str) -> None:
        """Adjust multiplicities of ``relation`` by this delta's entries.

        Raises :class:`~repro.errors.DeltaError` if any multiplicity would
        become negative — under correct maintenance that never happens.
        """
        for r, n in self.entries_for(relation_name):
            relation.adjust(r, n)

    def applied(self, relation: BagRelation, relation_name: str) -> BagRelation:
        """A copy of ``relation`` with this delta applied."""
        out = relation.copy()
        self.apply_to(out, relation_name)
        return out

    # ------------------------------------------------------------------
    # Conversions and dunder support
    # ------------------------------------------------------------------
    def copy(self) -> "BagDelta":
        """An independent copy."""
        out = BagDelta()
        for rel, counts in self._counts.items():
            out._counts[rel] = dict(counts)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagDelta):
            return NotImplemented
        mine = {(rel, r): n for rel, r, n in self.entries()}
        theirs = {(rel, r): n for rel, r, n in other.entries()}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset((rel, r, n) for rel, r, n in self.entries()))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:
        parts = [f"{'+' if n > 0 else ''}{n}·{rel}({dict(r)})" for rel, r, n in self.entries()]
        return "BagDelta{" + ", ".join(sorted(parts)) + "}"
