"""Immutable rows (tuples) for the relational substrate.

A :class:`Row` is an immutable mapping from attribute name to value.  Rows are
hashable so they can live in sets, bags (``Counter``), and delta atoms.  The
attribute-based algebra of the paper manipulates rows by projection, merge
(for joins), and attribute renaming; those operations are provided here as
pure methods returning new rows.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Sequence, Tuple

from repro.errors import SchemaError

__all__ = ["Row", "row"]


class Row(Mapping):
    """An immutable, hashable mapping of attribute names to values.

    Equality and hashing are order-insensitive: ``Row({'a': 1, 'b': 2})``
    equals ``Row({'b': 2, 'a': 1})``.  Values must themselves be hashable
    (ints, floats, strings, tuples...), which every workload in this
    reproduction satisfies.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Mapping[str, Any]):
        object.__setattr__(self, "_data", dict(data))
        object.__setattr__(self, "_hash", None)

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        """The attribute names, as the backing dict's own key view."""
        return self._data.keys()

    # -- Identity --------------------------------------------------------
    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._data.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Row is immutable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"Row({inner})"

    # -- Algebra helpers ---------------------------------------------------
    def project(self, names: Sequence[str]) -> "Row":
        """The sub-row with only the given attributes."""
        try:
            return Row({n: self._data[n] for n in names})
        except KeyError as exc:
            raise SchemaError(f"row {self!r} has no attribute {exc.args[0]!r}") from exc

    def merge(self, other: "Row") -> "Row":
        """Concatenate two rows with disjoint attribute sets (theta-join)."""
        overlap = self._data.keys() & other._data.keys()
        if overlap:
            raise SchemaError(f"merge would overwrite attributes {sorted(overlap)}")
        combined: Dict[str, Any] = dict(self._data)
        combined.update(other._data)
        return Row(combined)

    def merge_natural(self, other: "Row") -> "Row":
        """Concatenate two rows, requiring shared attributes to agree.

        Used by natural joins (e.g. the key-based construction of
        Example 2.3, which natural-joins two projections of ``T``).
        """
        for k in self._data.keys() & other._data.keys():
            if self._data[k] != other._data[k]:
                raise SchemaError(
                    f"natural merge conflict on {k!r}: {self._data[k]!r} vs {other._data[k]!r}"
                )
        combined: Dict[str, Any] = dict(self._data)
        combined.update(other._data)
        return Row(combined)

    def rename(self, mapping: Mapping[str, str]) -> "Row":
        """A copy with attributes renamed per ``mapping`` (others unchanged)."""
        return Row({mapping.get(k, k): v for k, v in self._data.items()})

    def values_for(self, names: Sequence[str]) -> Tuple[Any, ...]:
        """The value tuple for the given attribute names (e.g. a key lookup)."""
        return tuple(self._data[n] for n in names)

    def with_value(self, name: str, value: Any) -> "Row":
        """A copy with ``name`` set (or replaced) to ``value``."""
        combined = dict(self._data)
        combined[name] = value
        return Row(combined)


def row(**values: Any) -> Row:
    """Keyword-argument convenience constructor: ``row(r1=1, r2='x')``."""
    return Row(values)
