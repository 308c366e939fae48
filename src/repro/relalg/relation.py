"""Set- and bag-semantics relation containers.

The paper stores relations of *set nodes* (nodes whose definition involves a
difference) as sets, and all other mediator relations as *bags* so that the
incremental maintenance rules of Section 5.2 are correct under projection and
union (Section 5, "the relations associated with bag nodes are stored as
bags").

:class:`BagRelation` maps each row to a positive multiplicity;
:class:`SetRelation` is a plain set of rows.  Both expose the same small
container protocol used by the evaluator, the delta machinery, and the
mediator local store: ``items()`` (row, count pairs), ``count(row)``,
``insert``/``delete``, ``support()`` and ``copy()``.

Both containers also support **persistent hash indexes** on attribute-name
key tuples (:meth:`Relation.ensure_index` / :meth:`Relation.index_lookup`).
An index is built once and then maintained *incrementally* by every
``insert``/``delete`` — never rebuilt — which is what lets update
propagation probe a sibling relation per delta row instead of re-hashing
the whole relation inside every rule firing (the compiled propagation
engine; see :mod:`repro.core.rules`).  ``copy()`` deliberately drops
indexes: a copy is a fresh relation and re-declares what it needs.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import DeltaError, SchemaError
from repro.relalg.schema import RelationSchema
from repro.relalg.tuples import Row

__all__ = [
    "Relation",
    "SetRelation",
    "BagRelation",
]


class Relation:
    """Abstract base for relation containers.

    Subclasses must provide ``items``, ``count``, ``insert``, ``delete``,
    ``copy``, and the ``is_bag`` flag.  Everything else (cardinality,
    support, pretty printing, equality) is defined here in terms of those.
    """

    is_bag: bool = False

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        # key tuple -> {key values -> {row: multiplicity}}
        self._indexes: Dict[Tuple[str, ...], Dict[Tuple[Any, ...], Dict[Row, int]]] = {}

    # -- abstract container protocol --------------------------------------
    def items(self) -> Iterable[Tuple[Row, int]]:
        """The ``(row, multiplicity)`` pairs, multiplicity always >= 1."""
        raise NotImplementedError

    def count(self, row: Row) -> int:
        """Multiplicity of ``row`` (0 if absent)."""
        raise NotImplementedError

    def insert(self, row: Row, multiplicity: int = 1) -> None:
        """Add ``row`` with the given multiplicity."""
        raise NotImplementedError

    def delete(self, row: Row, multiplicity: int = 1) -> None:
        """Remove ``row`` with the given multiplicity."""
        raise NotImplementedError

    def copy(self) -> "Relation":
        """An independent, mutable copy with the same schema and contents."""
        raise NotImplementedError

    # -- shared behaviour --------------------------------------------------
    def _check_row(self, row: Row) -> None:
        if row.keys() != self.schema.attribute_set:
            raise SchemaError(
                f"row attributes {sorted(row.keys())} do not match schema "
                f"{self.schema.name!r} attributes {sorted(self.schema.attribute_names)}"
            )

    def support(self) -> frozenset:
        """The set of distinct rows."""
        return frozenset(r for r, _ in self.items())

    def rows(self) -> Iterator[Row]:
        """Yield each row once per unit of multiplicity."""
        for r, n in self.items():
            for _ in range(n):
                yield r

    def cardinality(self) -> int:
        """Total number of rows counting multiplicity."""
        return sum(n for _, n in self.items())

    def distinct_cardinality(self) -> int:
        """Number of distinct rows."""
        return sum(1 for _ in self.items())

    def is_empty(self) -> bool:
        """True when the relation holds no rows."""
        return self.distinct_cardinality() == 0

    def contains(self, row: Row) -> bool:
        """True when ``row`` occurs at least once."""
        return self.count(row) > 0

    def distinct_size(self) -> int:
        """Number of distinct rows, O(1) where the container allows it."""
        return self.distinct_cardinality()

    def estimated_bytes(self) -> int:
        """A coarse storage-footprint estimate (value cells + count slots).

        Counts each distinct row's cell values once plus a machine word per
        multiplicity slot.
        """
        import sys

        cells = sum(
            sys.getsizeof(v) for r, _ in self.items() for v in r.values()
        )
        return cells + 8 * self.distinct_size()

    # -- persistent hash indexes ------------------------------------------
    def ensure_index(self, keys: Sequence[str], counters: Optional[Any] = None) -> None:
        """Build (once) a hash index on the given attribute-name key tuple.

        The key tuple is taken verbatim — callers canonicalize (the
        evaluator uses sorted, de-duplicated tuples).  Building scans the
        relation once; from then on every ``insert``/``delete`` maintains
        the index incrementally, so a live index is never rebuilt.
        ``counters`` (an :class:`~repro.relalg.evaluator.EvalCounters`)
        records the build as ``index_rebuilds`` + ``rows_hashed``.
        """
        keys = tuple(keys)
        if keys in self._indexes:
            return
        self.schema.check_attributes(keys)
        index: Dict[Tuple[Any, ...], Dict[Row, int]] = {}
        hashed = 0
        for r, n in self.items():
            index.setdefault(r.values_for(keys), {})[r] = n
            hashed += 1
        self._indexes[keys] = index
        if counters is not None:
            counters.index_rebuilds += 1
            counters.rows_hashed += hashed

    def has_index(self, keys: Sequence[str]) -> bool:
        """True when an index on exactly this key tuple exists."""
        return tuple(keys) in self._indexes

    def index_keysets(self) -> Tuple[Tuple[str, ...], ...]:
        """The key tuples currently indexed (introspection/tests)."""
        return tuple(self._indexes)

    def index_lookup(
        self, keys: Sequence[str], values: Tuple[Any, ...]
    ) -> List[Tuple[Row, int]]:
        """Rows whose key attributes equal ``values``, with multiplicities.

        Raises :class:`KeyError` when no index on ``keys`` exists — probing
        is only legal after :meth:`ensure_index` (the evaluator checks
        :meth:`has_index` first).
        """
        bucket = self._indexes[tuple(keys)].get(values)
        if not bucket:
            return []
        return list(bucket.items())

    def drop_indexes(self) -> None:
        """Discard all indexes (they rebuild on the next ensure_index)."""
        self._indexes = {}

    def _index_add(self, row: Row, multiplicity: int) -> None:
        """Reflect an insert of ``row`` in every live index."""
        for keys, index in self._indexes.items():
            bucket = index.setdefault(row.values_for(keys), {})
            bucket[row] = bucket.get(row, 0) + multiplicity

    def _index_remove(self, row: Row, multiplicity: int) -> None:
        """Reflect a delete of ``row`` in every live index."""
        for keys, index in self._indexes.items():
            values = row.values_for(keys)
            bucket = index.get(values)
            if bucket is None:
                continue
            remaining = bucket.get(row, 0) - multiplicity
            if remaining > 0:
                bucket[row] = remaining
            else:
                bucket.pop(row, None)
                if not bucket:
                    del index[values]

    def __len__(self) -> int:
        return self.cardinality()

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    def __contains__(self, row: Row) -> bool:
        return self.contains(row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.attribute_names != other.schema.attribute_names:
            return False
        # Compare sizes first, then probe per row and short-circuit on the
        # first mismatch: equality runs inside every parity/convergence
        # check, so it must not materialize dict(self.items()) each time.
        if self.distinct_size() != other.distinct_size():
            return False
        return all(other.count(r) == n for r, n in self.items())

    def __hash__(self) -> int:  # relations are mutable; identity hash only
        return id(self)

    def __repr__(self) -> str:
        kind = "Bag" if self.is_bag else "Set"
        return f"<{kind}Relation {self.schema.name} |{self.cardinality()}|>"

    def to_sorted_list(self) -> List[Tuple[Tuple[Any, ...], int]]:
        """Deterministic ``(value-tuple, count)`` listing, for tests/reporting."""
        names = self.schema.attribute_names
        listing = [(r.values_for(names), n) for r, n in self.items()]
        return sorted(listing, key=lambda pair: tuple(map(_sort_key, pair[0])))


def _sort_key(value: Any) -> Tuple[str, str]:
    """Total order over heterogeneous values (type name, then repr)."""
    return (type(value).__name__, repr(value))


class SetRelation(Relation):
    """A relation under set semantics: each row occurs at most once.

    Used for the paper's *set nodes* (difference nodes) and for source
    relations, which are sets in the paper's examples.
    """

    is_bag = False

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        super().__init__(schema)
        self._rows: set = set()
        for r in rows:
            self.insert(r)

    def items(self) -> Iterator[Tuple[Row, int]]:
        for r in self._rows:
            yield r, 1

    def count(self, row: Row) -> int:
        return 1 if row in self._rows else 0

    def insert(self, row: Row, multiplicity: int = 1) -> None:
        self._check_row(row)
        if multiplicity != 1:
            raise DeltaError(
                f"set relation {self.schema.name!r} cannot insert multiplicity {multiplicity}"
            )
        if row in self._rows:
            raise DeltaError(f"duplicate insert into set relation {self.schema.name!r}: {row!r}")
        self._rows.add(row)
        self._index_add(row, 1)

    def delete(self, row: Row, multiplicity: int = 1) -> None:
        self._check_row(row)
        if multiplicity != 1:
            raise DeltaError(
                f"set relation {self.schema.name!r} cannot delete multiplicity {multiplicity}"
            )
        if row not in self._rows:
            raise DeltaError(f"delete of absent row from set relation {self.schema.name!r}: {row!r}")
        self._rows.discard(row)
        self._index_remove(row, 1)

    def distinct_size(self) -> int:
        return len(self._rows)

    def cardinality(self) -> int:
        return len(self._rows)

    def copy(self) -> "SetRelation":
        return SetRelation(self.schema, self._rows)

    @classmethod
    def from_values(
        cls, schema: RelationSchema, value_rows: Iterable[Sequence[Any]]
    ) -> "SetRelation":
        """Build from bare value tuples ordered like the schema attributes."""
        names = schema.attribute_names
        return cls(schema, (Row(dict(zip(names, vals))) for vals in value_rows))


class BagRelation(Relation):
    """A relation under bag semantics: rows carry positive multiplicities.

    The incremental rules for select/project/join/union are correct on bags
    (counting algorithm); mediator *bag nodes* are stored this way.
    """

    is_bag = True

    def __init__(self, schema: RelationSchema, counts: Optional[Mapping[Row, int]] = None):
        """An empty bag, or — given ``counts`` — one holding those rows.

        ``counts`` is loaded in bulk: every row is checked against the
        schema and every multiplicity for positivity, exactly as
        :meth:`insert` would, but the container is filled by one copy (a
        fresh relation has no index to maintain per row).
        """
        super().__init__(schema)
        if counts:
            names = schema.attribute_set
            for r, n in counts.items():
                if r.keys() != names:
                    self._check_row(r)
                if n <= 0:
                    raise DeltaError(f"insert multiplicity must be positive, got {n}")
        self._counts: Counter = Counter(counts)

    def items(self) -> Iterable[Tuple[Row, int]]:
        # The dict's own view: every stored count is positive (the bulk
        # constructor and ``insert`` reject n <= 0, ``delete`` removes at 0).
        return self._counts.items()

    def cardinality(self) -> int:
        return sum(self._counts.values())

    def count(self, row: Row) -> int:
        return self._counts.get(row, 0)

    def insert(self, row: Row, multiplicity: int = 1) -> None:
        self._check_row(row)
        if multiplicity <= 0:
            raise DeltaError(f"insert multiplicity must be positive, got {multiplicity}")
        self._counts[row] += multiplicity
        self._index_add(row, multiplicity)

    def delete(self, row: Row, multiplicity: int = 1) -> None:
        self._check_row(row)
        if multiplicity <= 0:
            raise DeltaError(f"delete multiplicity must be positive, got {multiplicity}")
        have = self._counts.get(row, 0)
        if have < multiplicity:
            raise DeltaError(
                f"bag relation {self.schema.name!r} holds {have} of {row!r}, cannot delete {multiplicity}"
            )
        if have == multiplicity:
            del self._counts[row]
        else:
            self._counts[row] = have - multiplicity
        self._index_remove(row, multiplicity)

    def distinct_size(self) -> int:
        return len(self._counts)

    def copy(self) -> "BagRelation":
        clone = BagRelation(self.schema)
        clone._counts = Counter(self._counts)
        return clone

    def adjust(self, row: Row, signed: int) -> None:
        """Apply a signed multiplicity change, insert(+) / delete(-)."""
        if signed > 0:
            self.insert(row, signed)
        elif signed < 0:
            self.delete(row, -signed)

    def distinct(self, schema: Optional[RelationSchema] = None) -> SetRelation:
        """Duplicate elimination: the set of distinct rows (bag -> set)."""
        return SetRelation(schema or self.schema, (r for r, _ in self.items()))

    @classmethod
    def from_rows(cls, schema: RelationSchema, rows: Iterable[Row]) -> "BagRelation":
        """Build from an iterable of rows (duplicates accumulate)."""
        rel = cls(schema)
        for r in rows:
            rel.insert(r)
        return rel

    @classmethod
    def from_values(
        cls, schema: RelationSchema, value_rows: Iterable[Sequence[Any]]
    ) -> "BagRelation":
        """Build from bare value tuples ordered like the schema attributes."""
        names = schema.attribute_names
        return cls.from_rows(schema, (Row(dict(zip(names, vals))) for vals in value_rows))
