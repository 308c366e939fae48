"""Immutable rows (tuples) for the relational substrate.

A :class:`Row` is an immutable mapping from attribute name to value.  Rows are
hashable so they can live in sets, bags (``Counter``), and delta atoms.  The
attribute-based algebra of the paper manipulates rows by projection, merge
(for joins), and attribute renaming; those operations are provided here as
pure methods returning new rows.

**Representation.**  A row *is* the 2-tuple ``(names, values)``: the
attribute names in canonical (sorted) order — interned, so all rows over one
attribute set share one ``names`` object — and the values in that order.
Equality stays order-insensitive (``Row({'a': 1, 'b': 2}) == Row({'b': 2,
'a': 1})``) while hashing and comparing rows are the tuple type's own C
operations, and a relation checks a row's attributes with one identity test
on ``names``.  A row equals only another row, never a plain dict.

``Row(mapping)`` (and :func:`row`) is the public constructor.  The evaluator,
the containers and the sources build rows positionally —
``Row.new(Row, (names, values))`` with ``values`` produced by an index map
(:func:`picker`) resolved once per plan and row layout — and read the two
parts as ``r._names`` / ``r._values``.  The Mapping API (``r["a"]``,
``keys()``, ``items()``, ``dict(r)``, ``repr``) serves everything else.
"""

from __future__ import annotations

from _collections import _tuplegetter  # the C accessor of namedtuple fields
from collections.abc import ItemsView, KeysView, Mapping, ValuesView
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import SchemaError

__all__ = ["Row", "row", "canonical_names", "picker", "reorder", "project_map", "rename_map"]

Names = Tuple[str, ...]
Picker = Callable[[Sequence[Any]], Tuple[Any, ...]]

_new = tuple.__new__
_INTERNED: Dict[Names, Names] = {}
#: A mapping's key order → (canonical names, picker into that order).
_LAYOUTS: Dict[Names, Tuple[Names, Picker]] = {}


def canonical_names(names: Iterable[str]) -> Names:
    """The canonical (sorted, de-duplicated), interned names tuple."""
    key = tuple(sorted(set(names)))
    return _INTERNED.setdefault(key, key)


def picker(positions: Sequence[int]) -> Picker:
    """A C-level function: a values sequence → the tuple of its items at
    ``positions``, in that order (a slice when the run is contiguous)."""
    positions = tuple(positions)
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


def reorder(position: Mapping[str, int]) -> Tuple[Names, Picker]:
    """For ``name → position in some values tuple``: the canonical names and
    the picker laying those values out in that order."""
    out = canonical_names(position)
    return out, picker([position[n] for n in out])


# Index maps per input layout, memoised like the intern table above (both
# grow only with the attribute sets and key orders the program uses): the
# Row methods below resolve one per call, the evaluator one per plan and
# layout.
@lru_cache(maxsize=None)
def project_map(names: Names, attrs: Names) -> Tuple[Names, Optional[Picker], Optional[str]]:
    """Projection of rows laid out as ``names`` onto ``attrs``: (output
    names, picker, None) — or (output names, None, first missing attribute)."""
    missing = next((a for a in attrs if a not in names), None)
    if missing is not None:
        return canonical_names(attrs), None, missing
    return reorder({a: names.index(a) for a in attrs}) + (None,)


@lru_cache(maxsize=None)
def rename_map(names: Names, mapping: Tuple[Tuple[str, str], ...]) -> Tuple[Names, Picker]:
    """Renaming of rows laid out as ``names`` by ``(old, new)`` pairs."""
    renamed = dict(mapping)
    return reorder({renamed.get(n, n): i for i, n in enumerate(names)})


@lru_cache(maxsize=None)
def _merge_map(left: Names, right: Names) -> Tuple[Names, Picker]:
    """Merge over ``left values + right values``; a shared attribute reads
    the right-hand value (``dict.update`` semantics)."""
    return reorder({n: i for i, n in enumerate(left + right)})


class Row(tuple):
    """An immutable, hashable mapping of attribute names to values.

    Equality and hashing are order-insensitive: ``Row({'a': 1, 'b': 2})``
    equals ``Row({'b': 2, 'a': 1})``.  Values must themselves be hashable
    (ints, floats, strings, tuples...), which every workload in this
    reproduction satisfies.  See the module docstring for the layout.
    """

    __slots__ = ()

    _names = _tuplegetter(0, "The canonical, interned attribute-name tuple.")
    _values = _tuplegetter(1, "The values, in ``_names`` order.")
    #: The positional constructor: ``Row.new(Row, (names, values))``.
    new = _new

    def __new__(cls, data: Mapping[str, Any]) -> "Row":
        if type(data) is Row:
            return data
        if type(data) is not dict:
            data = dict(data)
        order = tuple(data)
        layout = _LAYOUTS.get(order)
        if layout is None:
            layout = _LAYOUTS[order] = reorder({n: i for i, n in enumerate(order)})
        return _new(cls, (layout[0], layout[1](tuple(data.values()))))

    def __reduce__(self) -> Tuple[Any, ...]:
        return Row, (dict(zip(self._names, self._values)),)

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[self._names.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def get(self, key: str, default: Any = None) -> Any:
        """``self[key]``, or ``default`` when the row has no such attribute."""
        return self[key] if key in self._names else default

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, key: object) -> bool:
        return key in self._names

    def keys(self) -> KeysView:
        """The attribute names, as a set-like view."""
        return KeysView(self)

    def items(self) -> ItemsView:
        """``(name, value)`` pairs, as a set-like view."""
        return ItemsView(self)

    def values(self) -> ValuesView:
        """The values, in attribute-name order."""
        return ValuesView(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._names, self._values))
        return f"Row({inner})"

    # -- Algebra helpers ---------------------------------------------------
    def project(self, names: Sequence[str]) -> "Row":
        """The sub-row with only the given attributes."""
        out, get, missing = project_map(self._names, tuple(names))
        if get is None:
            raise SchemaError(f"row {self!r} has no attribute {missing!r}")
        return _new(Row, (out, get(self._values)))

    def merge(self, other: "Row") -> "Row":
        """Concatenate two rows with disjoint attribute sets (theta-join)."""
        overlap = set(self._names).intersection(other._names)
        if overlap:
            raise SchemaError(f"merge would overwrite attributes {sorted(overlap)}")
        out, get = _merge_map(self._names, other._names)
        return _new(Row, (out, get(self._values + other._values)))

    def merge_natural(self, other: "Row") -> "Row":
        """Concatenate two rows, requiring shared attributes to agree.

        Used by natural joins (e.g. the key-based construction of
        Example 2.3, which natural-joins two projections of ``T``).
        """
        for k in sorted(set(self._names).intersection(other._names)):
            if self[k] != other[k]:
                raise SchemaError(
                    f"natural merge conflict on {k!r}: {self[k]!r} vs {other[k]!r}"
                )
        out, get = _merge_map(self._names, other._names)
        return _new(Row, (out, get(self._values + other._values)))

    def rename(self, mapping: Mapping[str, str]) -> "Row":
        """A copy with attributes renamed per ``mapping`` (others unchanged)."""
        out, get = rename_map(self._names, tuple(mapping.items()))
        return _new(Row, (out, get(self._values)))

    def values_for(self, names: Sequence[str]) -> Tuple[Any, ...]:
        """The value tuple for the given attribute names (e.g. a key lookup)."""
        return tuple(self[n] for n in names)

    def with_value(self, name: str, value: Any) -> "Row":
        """A copy with ``name`` set (or replaced) to ``value``."""
        return Row({**dict(zip(self._names, self._values)), name: value})


Mapping.register(Row)


def row(**values: Any) -> Row:
    """Keyword-argument convenience constructor: ``row(r1=1, r2='x')``."""
    return Row(values)
