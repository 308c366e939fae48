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

An **ordered index**, keyed by an :class:`OrderedKey` (a term such as
``a1 ^ 2 + a2``), is the same bucket dict keyed by each row's term value
plus the sorted list of its distinct keys, maintained in the same loop.
Only finite ``int`` / ``float`` values (and bools, as 0 / 1) are ordered; a
row whose term yields anything else or raises is bucketed under ``None``.

Rows are tuples (:mod:`repro.relalg.tuples`), so the bulk paths stay at C
level: a copy reuses every stored hash (one ``set`` / ``dict`` copy, no
per-row insert), a bulk load checks attribute sets by identity of the
interned names, and an index key is one index map over a row's values.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from collections import Counter
from functools import partial
from itertools import chain, repeat
from math import isfinite
from operator import attrgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.errors import DeltaError, SchemaError
from repro.relalg.predicates import Attr, Term
from repro.relalg.schema import RelationSchema
from repro.relalg.tuples import Picker, Row, picker

__all__ = [
    "Relation",
    "SetRelation",
    "BagRelation",
    "OrderedKey",
    "finite_number",
    "rows_from_values",
]


class OrderedKey(NamedTuple):
    """An ordered index's key: a term over the relation's attributes, with
    its text, so ``a1 ^ 2`` and ``a1 ^ 2.0`` (equal terms) never share one."""

    text: str
    term: Term


IndexKey = Union[Tuple[str, ...], OrderedKey]  # a hash index's or an ordered index's


def finite_number(value: Any) -> bool:
    """True for a finite ``int`` / ``float`` or a ``bool`` (the 0 or 1 it
    equals, as ``Row(a=True) == Row(a=1)``): what an ordered index sorts."""
    kind = type(value)
    return kind is int or kind is bool or (kind is float and isfinite(value))


def _ordered_key(term: Callable[..., Any], values: Tuple[Any, ...]) -> Any:
    """A row's ordered-index key: its finite term value, else None."""
    try:
        key = term(values)
    except Exception:  # the pair test raises it again, pair by pair
        return None
    return key if finite_number(key) else None


def _attr_key(position: int) -> Callable[[Tuple[Any, ...]], Any]:
    """:func:`_ordered_key` of a bare attribute, inlined (every write calls it)."""
    def key(values: Tuple[Any, ...]) -> Any:
        value = values[position]
        kind = type(value)
        return value if kind is int or kind is bool or (kind is float and isfinite(value)) else None
    return key


#: Containers whose elements are distinct already (a bulk load's fast path).
_DISTINCT = (set, frozenset, dict, type({}.keys()))
_names_of = attrgetter("_names")
_values_of = attrgetter("_values")


def _all_named(rows: Iterable[Row], names: Tuple[str, ...]) -> bool:
    """True when every row carries exactly ``names`` (the interned tuple)."""
    return set(map(_names_of, rows)) <= {names}


def rows_from_values(schema: RelationSchema, value_rows: Iterable[Sequence[Any]]) -> List[Row]:
    """One row per value tuple ordered like the schema attributes (a tuple
    of the wrong length raises :class:`SchemaError`)."""
    value_rows = list(value_rows)
    schema.check_value_rows(value_rows)
    names = schema.row_names
    declared = schema.attribute_names
    # Same arity, so a non-identity order has >= 2 positions: the picker
    # returns a tuple for list inputs too.
    get = tuple if declared == names else picker([declared.index(n) for n in names])
    return list(map(Row.new, repeat(Row), zip(repeat(names), map(get, value_rows))))


class _TypeNames(dict):
    """type → ``type.__name__``, filled on first sight (C-level hits)."""

    def __missing__(self, kind: type) -> str:
        self[kind] = kind.__name__
        return kind.__name__


_type_names = _TypeNames()


class Relation:
    """Abstract base for relation containers.

    Subclasses must provide ``items``, ``count``, ``insert``, ``delete``,
    ``copy``, ``counts_copy`` (a fresh ``{row: multiplicity}`` dict, stored
    hashes reused), ``_distinct`` (the container of distinct rows itself)
    and the ``is_bag`` flag.  Everything else (cardinality, support, pretty
    printing, equality) is defined here in terms of those.
    """

    is_bag: bool = False

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        # index key -> {key value -> {row: multiplicity}}, and what every
        # write walks: the key's picker over a row's values, the same buckets
        # and an ordered index's sorted distinct keys (None for a hash index)
        self._indexes: Dict[IndexKey, Dict[Any, Dict[Row, int]]] = {}
        self._maintained: Dict[IndexKey, Tuple[Picker, Dict[Any, Dict[Row, int]], Any]] = {}

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
        if row._names is not self.schema.row_names:
            raise self.schema.row_mismatch(row)

    def support(self) -> frozenset:
        """The set of distinct rows."""
        return frozenset(self._distinct())

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
        values = chain.from_iterable(map(_values_of, self._distinct()))
        return sum(map(sys.getsizeof, values)) + 8 * self.distinct_size()

    # -- persistent hash indexes ------------------------------------------
    def ensure_index(self, keys: Union[Sequence[str], OrderedKey], counters: Any = None) -> None:
        """Build (once) a hash index on the given attribute-name key tuple,
        or an ordered index on an :class:`OrderedKey`'s term.

        The key tuple is taken verbatim — callers canonicalize (the
        evaluator uses sorted, de-duplicated tuples).  Building scans the
        relation once; from then on every ``insert``/``delete`` maintains
        the index incrementally, so a live index is never rebuilt.
        ``counters`` (an :class:`~repro.relalg.evaluator.EvalCounters`)
        records the build as ``index_rebuilds`` + ``rows_hashed``.
        """
        ordered = isinstance(keys, OrderedKey)
        keys = keys if ordered else tuple(keys)
        if keys in self._indexes:
            return
        self.schema.check_attributes(sorted(keys.term.attributes()) if ordered else keys)
        names = self.schema.row_names
        get = (picker([names.index(k) for k in keys]) if not ordered
               else _attr_key(names.index(keys.term.name)) if type(keys.term) is Attr
               else partial(_ordered_key, keys.term.compiled_test().at(names)))
        index: Dict[Any, Dict[Row, int]] = {}
        bucket_for = index.setdefault
        hashed = 0
        for r, n in self.items():
            bucket_for(get(r._values), {})[r] = n
            hashed += 1
        self._indexes[keys] = index
        order = sorted(k for k in index if k is not None) if ordered else None
        self._maintained[keys] = (get, index, order)
        if counters is not None:
            counters.index_rebuilds += 1
            counters.rows_hashed += hashed

    def ensure_indexes(self, keysets: Iterable[IndexKey], counters: Any = None) -> None:
        """:meth:`ensure_index` for each key the attributes cover (a hybrid
        repository or a VAP temporary may be narrower than its node)."""
        have = self.schema.attribute_set
        for keys in sorted(keysets):
            if (keys.term.attributes() if isinstance(keys, OrderedKey) else set(keys)) <= have:
                self.ensure_index(keys, counters)

    def has_index(self, keys: Union[Sequence[str], OrderedKey]) -> bool:
        """True when an index on exactly this key exists."""
        return tuple(keys) in self._indexes

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

    def index_buckets(self, keys: IndexKey) -> Dict[Any, Dict[Row, int]]:
        """The live index on ``keys``, key values → ``{row: multiplicity}``
        (read-only for callers; :meth:`index_lookup` copies one bucket)."""
        return self._indexes[keys]

    def index_order(self, keys: OrderedKey) -> List[Any]:
        """The live sorted finite keys of an ordered index (read-only)."""
        return self._maintained[keys][2]

    def _index_add(self, row: Row, multiplicity: int) -> None:
        """Reflect an insert of ``row`` in every live index."""
        values = row._values
        for get, index, order in self._maintained.values():
            key = get(values)
            bucket = index.get(key)
            if bucket is None:
                bucket = index[key] = {}
                if order is not None and key is not None:
                    insort(order, key)
            bucket[row] = bucket.get(row, 0) + multiplicity

    def _index_remove(self, row: Row, multiplicity: int) -> None:
        """Reflect a delete of ``row`` in every live index."""
        values = row._values
        for get, index, order in self._maintained.values():
            key = get(values)
            bucket = index.get(key)
            if bucket is None:
                continue
            remaining = bucket.get(row, 0) - multiplicity
            if remaining > 0:
                bucket[row] = remaining
            else:
                bucket.pop(row, None)
                if not bucket:
                    del index[key]
                    if order is not None and key is not None:
                        del order[bisect_left(order, key)]

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
        if type(self) is type(other):  # C-level (dict ==, not Counter's)
            mine, theirs = self._distinct(), other._distinct()
            return dict.__eq__(mine, theirs) if self.is_bag else mine == theirs
        return all(other.count(r) == n for r, n in self.items())

    def __hash__(self) -> int:  # relations are mutable; identity hash only
        return id(self)

    def __repr__(self) -> str:
        kind = "Bag" if self.is_bag else "Set"
        return f"<{kind}Relation {self.schema.name} |{self.cardinality()}|>"

    def to_sorted_list(self) -> List[Tuple[Tuple[Any, ...], int]]:
        """Deterministic ``(value-tuple, count)`` listing, for tests/reporting.

        A total order over heterogeneous values: each value by its type name,
        then its ``repr``, column by column (stable).  The keys are built a
        column at a time at C level and zipped into one flat key per row,
        which orders exactly as the tuple of ``(type name, repr)`` pairs.
        """
        get = self.schema.in_declared_order
        listing = [(get(r._values), n) for r, n in self.items()]
        if not listing:
            return listing
        keys = []
        for column in zip(*(values for values, _ in listing)):
            keys.append(map(_type_names.__getitem__, map(type, column)))
            keys.append(map(repr, column))
        row_keys = list(zip(*keys))
        return [listing[i] for i in sorted(range(len(listing)), key=row_keys.__getitem__)]


class SetRelation(Relation):
    """A relation under set semantics: each row occurs at most once.

    Used for the paper's *set nodes* (difference nodes) and for source
    relations, which are sets in the paper's examples.
    """

    is_bag = False

    def __init__(self, schema: RelationSchema, rows: Iterable[Row] = ()):
        """A set holding ``rows``, loaded in bulk: checked as :meth:`insert`
        would (wrong attributes, a duplicate), with the same first error."""
        super().__init__(schema)
        if not isinstance(rows, _DISTINCT):
            rows = list(rows)
        self._rows: set = set(rows)
        if len(self._rows) != len(rows) or not _all_named(self._rows, schema.row_names):
            self._rows = set()
            for r in rows:
                self.insert(r)

    def items(self) -> Iterator[Tuple[Row, int]]:
        return zip(self._rows, repeat(1))

    def counts_copy(self) -> Dict[Row, int]:
        return dict.fromkeys(self._rows, 1)

    def _distinct(self) -> Iterable[Row]:
        return self._rows

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

    def adjust(self, row: Row, signed: int) -> None:
        """Apply one delta atom: a count of ±1, tolerant of redundant atoms
        (inserting a present row or deleting an absent one is a no-op)."""
        if signed not in (1, -1):
            raise DeltaError(f"set relation {self.schema.name!r} cannot take count {signed}")
        if (signed > 0) != (row in self._rows):
            (self.insert if signed > 0 else self.delete)(row)

    def distinct_size(self) -> int:
        return len(self._rows)

    def cardinality(self) -> int:
        return len(self._rows)

    def copy(self) -> "SetRelation":
        clone = SetRelation(self.schema)
        clone._rows = self._rows.copy()
        return clone

    @classmethod
    def from_values(
        cls, schema: RelationSchema, value_rows: Iterable[Sequence[Any]]
    ) -> "SetRelation":
        """Build from bare value tuples ordered like the schema attributes.

        A tuple of the wrong length raises :class:`SchemaError`; a repeated
        one raises :class:`DeltaError`, as a duplicate insert does.
        """
        return cls(schema, rows_from_values(schema, value_rows))


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
        if counts and (
            min(counts.values()) <= 0 or not _all_named(counts, schema.row_names)
        ):
            for r, n in counts.items():  # the first offending entry, as insert() finds it
                self._check_row(r)
                if n <= 0:
                    raise DeltaError(f"insert multiplicity must be positive, got {n}")
        self._counts: Counter = Counter(counts)

    def items(self) -> Iterable[Tuple[Row, int]]:
        # The dict's own view: every stored count is positive (the bulk
        # constructor and ``insert`` reject n <= 0, ``delete`` removes at 0).
        return self._counts.items()

    def counts_copy(self) -> Dict[Row, int]:
        return dict(self._counts)

    def _distinct(self) -> Iterable[Row]:
        return self._counts

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
        return SetRelation(schema or self.schema, self._counts.keys())

    @classmethod
    def from_values(
        cls, schema: RelationSchema, value_rows: Iterable[Sequence[Any]]
    ) -> "BagRelation":
        """Build from bare value tuples ordered like the schema attributes
        (duplicates accumulate; a tuple of the wrong length raises
        :class:`SchemaError`)."""
        return cls(schema, Counter(rows_from_values(schema, value_rows)))
