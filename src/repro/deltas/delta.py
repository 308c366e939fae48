"""Set-semantics deltas (the Heraclitus paradigm, Section 6.2).

A *delta* is a set of insertion atoms ``+R(t)`` and deletion atoms ``-R(t)``
subject to the consistency condition that no tuple occurs with both signs for
the same relation.  A delta may refer to several relations at once ("A delta
can simultaneously contain atoms that refer to more than [one] relation").

The two key operators are

* ``apply(db, Δ)`` — ``(db − Δ⁻) ∪ Δ⁺`` per relation, tolerant of redundant
  atoms, matching Heraclitus semantics; and
* ``smash`` (``!``) — state-independent composition:
  ``apply(db, Δ1 ! Δ2) = apply(apply(db, Δ1), Δ2)``.  Computed, as in the
  paper, by taking the union of the two atom sets and deleting every atom of
  ``Δ1`` that conflicts with an atom of ``Δ2``.

``inverse`` flips all signs; for the non-redundant deltas that arise inside
Squirrel mediators it satisfies ``apply(apply(db, Δ), Δ⁻¹) = db`` and
``(Δ1 ! Δ2)⁻¹ = Δ2⁻¹ ! Δ1⁻¹`` — both property-tested in the suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DeltaError
from repro.relalg.relation import SetRelation
from repro.relalg.tuples import Row

__all__ = ["SetDelta"]

Sign = int  # +1 for insertion atoms, -1 for deletion atoms


class SetDelta:
    """A multi-relation set-semantics delta.

    Internally a mapping ``relation name -> {row: sign}``; the consistency
    condition (never both ``+R(t)`` and ``-R(t)``) is structural, because a
    row maps to exactly one sign.
    """

    def __init__(self) -> None:
        self._atoms: Dict[str, Dict[Row, Sign]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_atoms(cls, atoms: Iterable[Tuple[str, Row, Sign]]) -> "SetDelta":
        """Build from ``(relation, row, sign)`` triples."""
        delta = cls()
        for rel, r, sign in atoms:
            if sign > 0:
                delta.insert(rel, r)
            else:
                delta.delete(rel, r)
        return delta

    @classmethod
    def diff(cls, name: str, before: SetRelation, after: SetRelation) -> "SetDelta":
        """The net delta turning ``before`` into ``after``.

        This is how sources compute the "net updates ... that reflect the
        difference between two database states" announced to the mediator
        (Section 4).
        """
        delta = cls()
        before_rows = before.support()
        after_rows = after.support()
        # Sort the set differences: frozenset iteration follows hash order,
        # which varies across processes (PYTHONHASHSEED) — the delta's atom
        # order must not, or every consumer that walks atoms in insertion
        # order (propagation, provenance, traces) becomes run-dependent.
        for r in sorted(after_rows - before_rows, key=repr):
            delta.insert(name, r)
        for r in sorted(before_rows - after_rows, key=repr):
            delta.delete(name, r)
        return delta

    def insert(self, relation: str, row: Row) -> None:
        """Add an insertion atom ``+relation(row)``.

        Adding ``+R(t)`` on top of ``-R(t)`` raises: within one delta the
        consistency condition forbids conflicting atoms.
        """
        self._add_atom(relation, row, +1)

    def delete(self, relation: str, row: Row) -> None:
        """Add a deletion atom ``-relation(row)``."""
        self._add_atom(relation, row, -1)

    def _add_atom(self, relation: str, row: Row, sign: Sign) -> None:
        rel_atoms = self._atoms.setdefault(relation, {})
        existing = rel_atoms.get(row)
        if existing is not None and existing != sign:
            raise DeltaError(
                f"conflicting atoms for {relation}({row!r}): cannot hold both + and -"
            )
        rel_atoms[row] = sign

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def relations(self) -> Tuple[str, ...]:
        """Names of relations this delta mentions (with at least one atom)."""
        return tuple(rel for rel, atoms in self._atoms.items() if atoms)

    def sign(self, relation: str, row: Row) -> Sign:
        """+1, -1, or 0 for the atom status of ``row`` in ``relation``."""
        return self._atoms.get(relation, {}).get(row, 0)

    def atoms(self) -> Iterator[Tuple[str, Row, Sign]]:
        """Iterate all atoms as ``(relation, row, sign)``."""
        for rel, rel_atoms in self._atoms.items():
            for r, sign in rel_atoms.items():
                yield rel, r, sign

    def atoms_for(self, relation: str) -> Iterator[Tuple[Row, Sign]]:
        """Iterate the atoms of one relation."""
        return iter(self._atoms.get(relation, {}).items())

    def insertions(self, relation: str) -> List[Row]:
        """The rows inserted into ``relation``."""
        return [r for r, s in self.atoms_for(relation) if s > 0]

    def deletions(self, relation: str) -> List[Row]:
        """The rows deleted from ``relation``."""
        return [r for r, s in self.atoms_for(relation) if s < 0]

    def is_empty(self) -> bool:
        """True when the delta carries no atoms."""
        return all(not atoms for atoms in self._atoms.values())

    def atom_count(self) -> int:
        """Total number of atoms."""
        return sum(len(atoms) for atoms in self._atoms.values())

    def restrict_to(self, relations: Iterable[str]) -> "SetDelta":
        """The sub-delta mentioning only the given relations."""
        wanted = set(relations)
        out = SetDelta()
        for rel, r, sign in self.atoms():
            if rel in wanted:
                out._add_atom(rel, r, sign)
        return out

    # ------------------------------------------------------------------
    # Heraclitus operators
    # ------------------------------------------------------------------
    def smash(self, other: "SetDelta") -> "SetDelta":
        """``self ! other``: later atoms win on conflict (paper Section 6.2)."""
        out = self.copy()
        out.absorb(other)
        return out

    def absorb(self, other: "SetDelta") -> int:
        """``self ! other`` in place (:meth:`smash` without the copy); returns
        the atoms it folded away — one per row both hold."""
        folded = 0
        for rel, atoms in other._atoms.items():
            if not atoms:
                continue
            mine = self._atoms.setdefault(rel, {})
            before = len(mine)
            mine.update(atoms)
            folded += before + len(atoms) - len(mine)
        return folded

    def net_fold(self, later: "SetDelta") -> None:
        """Fold the next in-order delta into this one, in place.

        The in-place form of :func:`~repro.deltas.net_accumulate` — opposite
        atoms for the same row cancel, the rest are appended, and the
        resulting atoms *and their order* are exactly those of
        ``net_accumulate(self, later)`` — in O(|later|) instead of
        O(|self| + |later|), which is what keeps a source's announcement
        accumulator linear between announcements.  Same precondition: no
        same-sign collision on one row.
        """
        survivors: List[Tuple[str, Row, Sign]] = []
        for rel, r, sign in later.atoms():
            rel_atoms = self._atoms.get(rel)
            if rel_atoms is not None and rel_atoms.get(r) == -sign:
                del rel_atoms[r]
                if not rel_atoms:
                    # An emptied relation re-enters at the end if later
                    # atoms name it again, as it would in a rebuilt delta.
                    del self._atoms[rel]
            else:
                survivors.append((rel, r, sign))
        for rel, r, sign in survivors:
            self._add_atom(rel, r, sign)

    def inverse(self) -> "SetDelta":
        """Flip all signs: ``Δ⁻¹``."""
        out = SetDelta()
        for rel, r, sign in self.atoms():
            out._atoms.setdefault(rel, {})[r] = -sign
        return out

    def apply_to(self, relation: SetRelation, relation_name: str) -> None:
        """Apply this delta's atoms for ``relation_name`` to ``relation``.

        Heraclitus apply is tolerant: inserting a present row or deleting an
        absent one is a no-op.  (The paper notes Squirrel deltas are never
        redundant in practice; tolerance is still the correct semantics for
        smashed deltas.)
        """
        for r, sign in self.atoms_for(relation_name):
            present = relation.contains(r)
            if sign > 0 and not present:
                relation.insert(r)
            elif sign < 0 and present:
                relation.delete(r)

    def applied(self, relation: SetRelation, relation_name: str) -> SetRelation:
        """A copy of ``relation`` with this delta applied."""
        out = relation.copy()
        self.apply_to(out, relation_name)
        return out

    def is_redundant_for(self, relation: SetRelation, relation_name: str) -> bool:
        """True if any atom for ``relation_name`` is redundant for ``relation``.

        An insertion atom is redundant when the row is already present, a
        deletion atom when it is absent (Section 6.2).
        """
        for r, sign in self.atoms_for(relation_name):
            present = relation.contains(r)
            if (sign > 0 and present) or (sign < 0 and not present):
                return True
        return False

    # ------------------------------------------------------------------
    # Conversions and dunder support
    # ------------------------------------------------------------------
    def copy(self) -> "SetDelta":
        """An independent copy."""
        out = SetDelta()
        for rel, rel_atoms in self._atoms.items():
            out._atoms[rel] = dict(rel_atoms)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetDelta):
            return NotImplemented
        mine = {(rel, r): s for rel, r, s in self.atoms()}
        theirs = {(rel, r): s for rel, r, s in other.atoms()}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset((rel, r, s) for rel, r, s in self.atoms()))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __repr__(self) -> str:
        parts = []
        for rel, r, sign in self.atoms():
            marker = "+" if sign > 0 else "-"
            parts.append(f"{marker}{rel}({dict(r)})")
        return "SetDelta{" + ", ".join(sorted(parts)) + "}"
