"""Heraclitus deltas as signed counts (Section 6.2).

A *delta* maps each row of each relation it mentions to a non-zero signed
count: ``+1`` / ``-1`` are the paper's insertion and deletion atoms
``+R(t)`` / ``-R(t)``, and larger counts are the generalization of deltas
"to bags [DHR95]" that projection and union nodes need.  One type serves
both; set semantics live only where the paper puts them:

* a :class:`~repro.relalg.SetRelation` takes counts of ±1 only, and its
  apply stays tolerant of redundant atoms, as Heraclitus apply is;
* :meth:`Delta.normalized` drops the atoms that are redundant against a
  given relation — a set node's accumulated delta goes through it.

Smash (``!``) is pointwise addition, so ``apply(db, Δ1 ! Δ2) =
apply(apply(db, Δ1), Δ2)``.  For in-order deltas of one relation timeline
(no row gains the same sign twice) it is exactly the source-side fold:
an insert that a later delete undoes nets to nothing.  ``inverse`` negates
every count, so ``apply(apply(db, Δ), Δ⁻¹) = db`` and ``(Δ1 ! Δ2)⁻¹ =
Δ2⁻¹ ! Δ1⁻¹`` — both property-tested in the suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.errors import DeltaError
from repro.relalg.relation import Relation
from repro.relalg.tuples import Row

__all__ = ["Delta", "SetDelta"]


class Delta:
    """A multi-relation delta: ``relation -> {row: signed count}``.

    No count is zero and no relation maps to an empty dict.  Atom order is
    insertion order, and it is observable: propagation, provenance, traces
    and the write-ahead log all walk it.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[Row, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, relation: str, counts: Mapping[Row, int]) -> "Delta":
        """Single-relation constructor from a signed-count mapping."""
        delta = cls()
        rows = {r: n for r, n in counts.items() if n}
        if rows:
            delta._counts[relation] = rows
        return delta

    @classmethod
    def diff(cls, name: str, before: Relation, after: Relation) -> "Delta":
        """The net delta turning ``before`` into ``after``.

        This is how sources compute the "net updates ... that reflect the
        difference between two database states" announced to the mediator
        (Section 4).  Rows are sorted, insertions first: set iteration
        follows hash order, which varies across processes, and atom order
        must not.
        """
        counts = {r: after.count(r) - before.count(r) for r in before.support() | after.support()}
        order = sorted(counts, key=lambda r: (counts[r] < 0, repr(r)))
        return cls.from_counts(name, {r: counts[r] for r in order})

    def add(self, relation: str, row: Row, signed_count: int) -> None:
        """Accumulate a signed count for ``row`` (0 is a no-op)."""
        if not signed_count:
            return
        counts = self._counts.setdefault(relation, {})
        total = counts.get(row, 0) + signed_count
        if total:
            counts[row] = total
        else:
            del counts[row]
            if not counts:
                del self._counts[relation]

    def insert(self, relation: str, row: Row, count: int = 1) -> None:
        """Add an insertion atom ``+relation(row)`` (``count`` copies)."""
        if count <= 0:
            raise DeltaError(f"insert count must be positive, got {count}")
        self.add(relation, row, count)

    def delete(self, relation: str, row: Row, count: int = 1) -> None:
        """Add a deletion atom ``-relation(row)`` (``count`` copies)."""
        if count <= 0:
            raise DeltaError(f"delete count must be positive, got {count}")
        self.add(relation, row, -count)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def relations(self) -> Tuple[str, ...]:
        """Names of the relations this delta mentions."""
        return tuple(self._counts)

    def count(self, relation: str, row: Row) -> int:
        """The signed count of ``row`` in ``relation`` (0 if absent)."""
        return self._counts.get(relation, {}).get(row, 0)

    def atoms(self) -> Iterator[Tuple[str, Row, int]]:
        """Iterate ``(relation, row, signed count)``."""
        for rel, counts in self._counts.items():
            for r, n in counts.items():
                yield rel, r, n

    def atoms_for(self, relation: str) -> Iterable[Tuple[Row, int]]:
        """Iterate ``(row, signed count)`` for one relation."""
        return self._counts.get(relation, {}).items()

    def insertions(self, relation: str) -> List[Row]:
        """The rows with a positive count in ``relation``."""
        return [r for r, n in self.atoms_for(relation) if n > 0]

    def deletions(self, relation: str) -> List[Row]:
        """The rows with a negative count in ``relation``."""
        return [r for r, n in self.atoms_for(relation) if n < 0]

    def is_empty(self) -> bool:
        """True when the delta carries no atoms."""
        return not self._counts

    def atom_count(self) -> int:
        """Number of distinct ``(relation, row)`` atoms."""
        return sum(map(len, self._counts.values()))

    def restrict_to(self, relations: Iterable[str]) -> "Delta":
        """The sub-delta mentioning only the given relations."""
        wanted = set(relations)
        out = Delta()
        out._counts = {rel: dict(c) for rel, c in self._counts.items() if rel in wanted}
        return out

    # ------------------------------------------------------------------
    # Heraclitus operators
    # ------------------------------------------------------------------
    def smash(self, other: "Delta") -> "Delta":
        """``self ! other``: pointwise addition of signed counts."""
        out = self.copy()
        out.absorb(other)
        return out

    def absorb(self, other: "Delta") -> int:
        """``self ! other`` in place; returns the atoms it folded away —
        one per row both hold, two when their counts cancel.

        New rows are appended after the rows ``self`` keeps, and a relation
        whose rows all cancel re-enters at the end, so folding in-order
        deltas one by one leaves the same atom order as rebuilding the net
        delta from scratch would.
        """
        folded = 0
        for rel, counts in other._counts.items():
            mine = self._counts.get(rel)
            if mine is None:
                self._counts[rel] = dict(counts)
                continue
            fresh = {}
            for r, n in counts.items():
                have = mine.get(r)
                if have is None:
                    fresh[r] = n
                elif have + n:
                    mine[r] = have + n
                    folded += 1
                else:
                    del mine[r]
                    folded += 2
            if not mine:
                del self._counts[rel]
                if fresh:
                    self._counts[rel] = fresh
            else:
                mine.update(fresh)
        return folded

    def inverse(self) -> "Delta":
        """Negate every count: ``Δ⁻¹``."""
        out = Delta()
        out._counts = {rel: {r: -n for r, n in c.items()} for rel, c in self._counts.items()}
        return out

    def apply_to(self, relation: Relation, relation_name: str) -> None:
        """Apply this delta's atoms for ``relation_name`` to ``relation``.

        The relation decides what a count means: a bag adjusts
        multiplicities (raising if one would go negative), a set takes
        ±1 only and ignores redundant atoms.
        """
        adjust = relation.adjust
        for r, n in self.atoms_for(relation_name):
            adjust(r, n)

    def applied(self, relation: Relation, relation_name: str) -> Relation:
        """A copy of ``relation`` with this delta applied."""
        out = relation.copy()
        self.apply_to(out, relation_name)
        return out

    def normalized(self, relation_name: str, relation: Relation) -> "Delta":
        """The atoms for ``relation_name`` that change ``relation`` as a set.

        An insertion is redundant when the row is already present, a
        deletion when it is absent (Section 6.2); what survives carries
        its sign as a count of ±1 — the exact net change of a set node.
        """
        contains = relation.contains
        return Delta.from_counts(relation_name, {
            r: (1 if n > 0 else -1)
            for r, n in self.atoms_for(relation_name)
            if (n > 0) != contains(r)
        })

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------
    def copy(self) -> "Delta":
        """An independent copy."""
        out = Delta()
        out._counts = {rel: dict(c) for rel, c in self._counts.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self.atoms()))

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __repr__(self) -> str:
        parts = [f"{n:+d}·{rel}({dict(r)})" for rel, r, n in self.atoms()]
        return "Delta{" + ", ".join(sorted(parts)) + "}"


#: The name sources, workloads and benchmarks build transactions under.
SetDelta = Delta
