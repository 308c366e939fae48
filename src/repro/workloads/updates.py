"""Synthetic update streams against source databases.

An :class:`UpdateStream` turns a per-attribute value policy into an endless
sequence of non-redundant transactions (inserts, deletes, and row
modifications) for one source relation, usable both directly (call
:meth:`UpdateStream.step`) and under the simulator (schedule
``stream.step`` at event times).

Value policies are callables ``rng -> value``; :func:`uniform_int` and
:func:`choice_of` cover the common cases.  Keys are drawn from a private
counter so inserts never collide.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.deltas import Delta
from repro.errors import SourceError
from repro.relalg import Row
from repro.sources.base import SourceDatabase

__all__ = ["uniform_int", "choice_of", "constant", "UpdateStream"]

ValuePolicy = Callable[[random.Random], Any]


def uniform_int(low: int, high: int) -> ValuePolicy:
    """Uniformly random integer in ``[low, high)``."""
    return lambda rng: rng.randrange(low, high)


def choice_of(values: Sequence[Any]) -> ValuePolicy:
    """Uniformly random element of ``values``."""
    chosen = list(values)
    return lambda rng: rng.choice(chosen)


def constant(value: Any) -> ValuePolicy:
    """Always ``value``."""
    return lambda rng: value


class UpdateStream:
    """Generates non-redundant transactions against one source relation."""

    def __init__(
        self,
        source: SourceDatabase,
        relation: str,
        policies: Mapping[str, ValuePolicy],
        rng: random.Random,
        insert_weight: float = 0.5,
        delete_weight: float = 0.25,
        modify_weight: float = 0.25,
        key_start: int = 1_000_000,
    ):
        """``policies`` must cover every non-key attribute; key attributes
        (per the relation's schema) are drawn from a fresh counter."""
        self.source = source
        self.relation = relation
        self.schema = source.schema(relation)
        self.policies = dict(policies)
        self.rng = rng
        self._weights = (insert_weight, delete_weight, modify_weight)
        self._next_key = key_start
        self.steps = 0
        missing = [
            a.name
            for a in self.schema.attributes
            if a.name not in self.policies and a.name not in self.schema.key
        ]
        if missing:
            raise SourceError(f"no value policy for attributes {missing}")

    # ------------------------------------------------------------------
    def _fresh_row(self) -> Row:
        values: Dict[str, Any] = {}
        for attribute in self.schema.attributes:
            if attribute.name in self.schema.key and attribute.name not in self.policies:
                values[attribute.name] = self._next_key
            else:
                values[attribute.name] = self.policies[attribute.name](self.rng)
        self._next_key += 1
        return Row(values)

    def _pick_victim(self) -> Optional[Row]:
        # Sort before drawing: relation storage iterates in hash order,
        # which varies with PYTHONHASHSEED — a seeded rng alone would still
        # produce a different victim sequence every interpreter run.
        rows = sorted(
            self.source.relation(self.relation).rows(),
            key=lambda r: tuple(sorted((k, repr(v)) for k, v in r.items())),
        )
        return self.rng.choice(rows) if rows else None

    # ------------------------------------------------------------------
    def next_transaction(self) -> Delta:
        """The next transaction (without executing it)."""
        insert_w, delete_w, modify_w = self._weights
        roll = self.rng.random() * (insert_w + delete_w + modify_w)
        delta = Delta()
        if roll < insert_w:
            delta.insert(self.relation, self._fresh_row())
            return delta
        victim = self._pick_victim()
        if victim is None:
            delta.insert(self.relation, self._fresh_row())
            return delta
        if roll < insert_w + delete_w:
            delta.delete(self.relation, victim)
            return delta
        # Modify: keep the key, redraw one non-key attribute.
        non_key = [a.name for a in self.schema.attributes if a.name not in self.schema.key]
        if not non_key:
            delta.delete(self.relation, victim)
            return delta
        target = self.rng.choice(non_key)
        replacement = victim.with_value(target, self.policies[target](self.rng))
        if replacement == victim:
            delta.delete(self.relation, victim)
            return delta
        delta.delete(self.relation, victim)
        delta.insert(self.relation, replacement)
        return delta

    def step(self) -> Delta:
        """Generate and execute one transaction; returns its delta."""
        delta = self.next_transaction()
        self.source.execute(delta)
        self.steps += 1
        return delta

    def run(self, count: int) -> int:
        """Execute ``count`` transactions; returns the number executed."""
        for _ in range(count):
            self.step()
        return count
