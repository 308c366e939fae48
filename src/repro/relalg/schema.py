"""Relation schemas for the attribute-based relational algebra.

The paper (Section 5) uses an *attribute-based* form of the algebra: attribute
names are globally meaningful (``r1``, ``s1`` ...), selections and projections
refer to attributes by name, and joins are expressed as conditions over the
union of the operand attribute sets.  This module provides the schema side of
that model: :class:`Attribute`, :class:`RelationSchema`, and the schema
combinators used by the expression layer (project / rename / join / union).

Keys matter here: Example 2.3 of the paper derives a functional dependency
``T : r1 -> r3`` from the fact that ``r1`` is the key of ``R'`` and uses it for
the *key-based construction* of temporary relations.  ``RelationSchema`` hence
carries an optional primary key, and :mod:`repro.relalg.functional` builds FD
reasoning on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError

__all__ = ["Attribute", "RelationSchema", "make_schema"]


@dataclass(frozen=True)
class Attribute:
    """A named, optionally typed attribute.

    ``dtype`` is advisory (used by workload generators and the SQLite source
    to pick column affinities); the algebra itself is dynamically typed, as in
    the paper.
    """

    name: str
    dtype: str = "any"

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid attribute name: {self.name!r}")

    def renamed(self, new_name: str) -> "Attribute":
        """Return a copy of this attribute with a different name."""
        return Attribute(new_name, self.dtype)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class RelationSchema:
    """The schema of a relation: a name, an attribute list, and a key.

    ``key`` is the (possibly empty) tuple of attribute names forming the
    primary key.  An empty key means "no key is known"; the whole attribute
    set is then the only superkey.
    """

    name: str
    attributes: Tuple[Attribute, ...]
    key: Tuple[str, ...] = ()
    #: The attribute names, in declaration order, and as a set.  Derived
    #: from ``attributes`` once: every validated row insert reads them.
    attribute_names: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    attribute_set: FrozenSet[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(a.name for a in self.attributes)
        name_set = frozenset(names)
        if len(name_set) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {self.name!r}: {list(names)}")
        if not names:
            raise SchemaError(f"schema {self.name!r} must have at least one attribute")
        for k in self.key:
            if k not in name_set:
                raise SchemaError(f"key attribute {k!r} not in schema {self.name!r}")
        object.__setattr__(self, "attribute_names", names)
        object.__setattr__(self, "attribute_set", name_set)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def has_attribute(self, name: str) -> bool:
        """True if ``name`` is an attribute of this schema."""
        return name in self.attribute_set

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name, raising :class:`SchemaError` if absent."""
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"schema {self.name!r} has no attribute {name!r}")

    def check_attributes(self, names: Iterable[str]) -> None:
        """Raise :class:`SchemaError` unless every name is an attribute here."""
        missing = [n for n in names if not self.has_attribute(n)]
        if missing:
            raise SchemaError(
                f"schema {self.name!r} is missing attributes {missing}; has {list(self.attribute_names)}"
            )

    # ------------------------------------------------------------------
    # Combinators used by the expression layer
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str], new_name: Optional[str] = None) -> "RelationSchema":
        """Schema of a projection onto ``names`` (order taken from ``names``).

        The key is retained only if every key attribute survives the
        projection; otherwise the projected schema has no known key.
        """
        self.check_attributes(names)
        attrs = tuple(self.attribute(n) for n in names)
        key = self.key if self.key and all(k in names for k in self.key) else ()
        return RelationSchema(new_name or self.name, attrs, key)

    def rename_relation(self, new_name: str) -> "RelationSchema":
        """The same attributes and key under a different relation name."""
        if new_name == self.name:
            return self  # immutable, and already so named: nothing to copy
        return RelationSchema(new_name, self.attributes, self.key)

    def rename_attributes(self, mapping: Mapping[str, str], new_name: Optional[str] = None) -> "RelationSchema":
        """Rename attributes according to ``mapping`` (missing names unchanged)."""
        self.check_attributes(mapping.keys())
        attrs = tuple(a.renamed(mapping.get(a.name, a.name)) for a in self.attributes)
        key = tuple(mapping.get(k, k) for k in self.key)
        return RelationSchema(new_name or self.name, attrs, key)

    def join(self, other: "RelationSchema", new_name: str) -> "RelationSchema":
        """Schema of a theta-join: attribute sets must be disjoint.

        The attribute-based algebra of the paper assumes globally distinct
        attribute names across joined relations (``r*`` vs ``s*``); renaming
        is applied beforehand when they are not.  The combined key is the
        concatenation of both keys when both are known (a standard sound,
        possibly non-minimal choice), else unknown.
        """
        overlap = set(self.attribute_names) & set(other.attribute_names)
        if overlap:
            raise SchemaError(
                f"theta-join of {self.name!r} and {other.name!r} has overlapping attributes {sorted(overlap)}; rename first"
            )
        key = self.key + other.key if self.key and other.key else ()
        return RelationSchema(new_name, self.attributes + other.attributes, key)

    def natural_join(self, other: "RelationSchema", new_name: str) -> "RelationSchema":
        """Schema of a natural join (shared attributes merged)."""
        shared = [a for a in other.attributes if self.has_attribute(a.name)]
        extra = tuple(a for a in other.attributes if not self.has_attribute(a.name))
        if not shared:
            raise SchemaError(
                f"natural join of {self.name!r} and {other.name!r} shares no attributes"
            )
        return RelationSchema(new_name, self.attributes + extra, ())

    def union_compatible_with(self, other: "RelationSchema") -> bool:
        """True if the two schemas have identical attribute name sequences."""
        return self.attribute_names == other.attribute_names

    def require_union_compatible(self, other: "RelationSchema") -> None:
        """Raise :class:`SchemaError` unless union-compatible with ``other``."""
        if not self.union_compatible_with(other):
            raise SchemaError(
                f"schemas {self.name!r}{list(self.attribute_names)} and "
                f"{other.name!r}{list(other.attribute_names)} are not union-compatible"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(
            f"{a.name}*" if a.name in self.key else a.name for a in self.attributes
        )
        return f"{self.name}({cols})"


def make_schema(name: str, attribute_names: Sequence[str], key: Sequence[str] = ()) -> RelationSchema:
    """Convenience constructor from bare attribute-name strings."""
    return RelationSchema(name, tuple(Attribute(n) for n in attribute_names), tuple(key))
