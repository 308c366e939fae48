"""Incremental maintenance of match tables.

A :class:`MatchingEngine` owns a derived source database exposing one match
table per :class:`~repro.matching.rules.MatchRule`.  It subscribes to the
commit hooks of both underlying sources and maintains the table
*incrementally*:

* signature indexes map canonical comparison vectors to the key rows on
  each side, so an inserted tuple is matched by one index lookup rather
  than a scan;
* an inserted left tuple adds pairs for every currently matching right
  tuple (and vice versa); a deleted tuple removes its pairs;
* the derived source announces net deltas like any other source, so a
  mediator downstream maintains views joined through the match table with
  the ordinary IUP machinery.

Bag subtlety: several source tuples can share both key and signature only
if the key is non-unique — the engine counts supports per pair, emitting a
match-table insert on 0→1 and a delete on 1→0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.deltas import Delta
from repro.errors import SourceError
from repro.matching.rules import MatchRule
from repro.relalg import Row
from repro.sources.base import SourceDatabase
from repro.sources.memory import MemorySource

__all__ = ["MatchingEngine"]


class _SideIndex:
    """Signature -> list of rows for one side of one rule."""

    def __init__(self) -> None:
        self.by_signature: Dict[Tuple[Any, ...], List[Row]] = defaultdict(list)

    def add(self, signature: Tuple[Any, ...], row: Row) -> None:
        self.by_signature[signature].append(row)

    def remove(self, signature: Tuple[Any, ...], row: Row) -> None:
        rows = self.by_signature.get(signature, [])
        try:
            rows.remove(row)
        except ValueError as exc:
            raise SourceError(f"match index out of sync: missing {dict(row)}") from exc
        if not rows:
            self.by_signature.pop(signature, None)

    def lookup(self, signature: Tuple[Any, ...]) -> List[Row]:
        return list(self.by_signature.get(signature, ()))


class MatchingEngine:
    """Maintains the match tables of one or more rules over two sources."""

    def __init__(
        self,
        rules: Sequence[MatchRule],
        left_source: SourceDatabase,
        right_source: SourceDatabase,
        name: str = "matcher",
    ):
        self.rules = list(rules)
        self.left_source = left_source
        self.right_source = right_source
        self.table_source = MemorySource(name, [rule.schema() for rule in self.rules])
        self._left_index: Dict[str, _SideIndex] = {r.name: _SideIndex() for r in self.rules}
        self._right_index: Dict[str, _SideIndex] = {r.name: _SideIndex() for r in self.rules}
        self._pair_support: Dict[str, Dict[Row, int]] = {r.name: defaultdict(int) for r in self.rules}
        self.pairs_emitted = 0
        self.pairs_retracted = 0

        for rule in self.rules:
            if rule.left_relation not in left_source.schemas:
                raise SourceError(
                    f"left source {left_source.name!r} has no relation {rule.left_relation!r}"
                )
            if rule.right_relation not in right_source.schemas:
                raise SourceError(
                    f"right source {right_source.name!r} has no relation {rule.right_relation!r}"
                )

        self._bootstrap()
        left_source.on_commit(self._on_left_commit)
        right_source.on_commit(self._on_right_commit)

    # ------------------------------------------------------------------
    @property
    def source(self) -> MemorySource:
        """The derived source exposing the match tables (plug into a mediator)."""
        return self.table_source

    def match_table(self, rule_name: str):
        """Current value of one match table."""
        return self.table_source.relation(rule_name)

    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        batch = Delta()
        for rule in self.rules:
            left_rows = list(self.left_source.relation(rule.left_relation).rows())
            right_rows = list(self.right_source.relation(rule.right_relation).rows())
            for r in left_rows:
                self._left_index[rule.name].add(rule.signature_left(r), r)
            for r in right_rows:
                self._right_index[rule.name].add(rule.signature_right(r), r)
            for r in left_rows:
                for other in self._right_index[rule.name].lookup(rule.signature_left(r)):
                    self._adjust_pair(rule, rule.pair(r, other), +1, batch)
        if not batch.is_empty():
            self.table_source.execute(batch)
            # The bootstrap population is the table's *initial* state, not
            # an update to announce.
            self.table_source.take_announcement()

    def _adjust_pair(self, rule: MatchRule, pair: Row, signed: int, batch: Delta) -> None:
        support = self._pair_support[rule.name]
        before = support[pair]
        after = before + signed
        if after < 0:
            raise SourceError(f"match pair support went negative for {dict(pair)}")
        support[pair] = after
        if before == 0 and after > 0:
            batch.insert(rule.name, pair)
            self.pairs_emitted += 1
        elif before > 0 and after == 0:
            batch.delete(rule.name, pair)
            self.pairs_retracted += 1
            del support[pair]

    # ------------------------------------------------------------------
    def _on_left_commit(self, source: SourceDatabase, delta: Delta) -> None:
        self._on_commit(delta, left_side=True)

    def _on_right_commit(self, source: SourceDatabase, delta: Delta) -> None:
        self._on_commit(delta, left_side=False)

    def _on_commit(self, delta: Delta, left_side: bool) -> None:
        batch = Delta()
        for rule in self.rules:
            relation = rule.left_relation if left_side else rule.right_relation
            own_index = self._left_index[rule.name] if left_side else self._right_index[rule.name]
            other_index = self._right_index[rule.name] if left_side else self._left_index[rule.name]
            for r, sign in delta.atoms_for(relation):
                signature = (
                    rule.signature_left(r) if left_side else rule.signature_right(r)
                )
                # Deletions must stop matching their counterparts BEFORE the
                # index forgets the row; insertions index first.
                if sign > 0:
                    own_index.add(signature, r)
                for other in other_index.lookup(signature):
                    pair = rule.pair(r, other) if left_side else rule.pair(other, r)
                    self._adjust_pair(rule, pair, sign, batch)
                if sign < 0:
                    own_index.remove(signature, r)
        if not batch.is_empty():
            self.table_source.execute(batch)
