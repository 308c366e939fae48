"""View Decomposition Plans (Section 5).

A VDP is a labelled DAG.  Leaves correspond to relations in source
databases; non-leaf nodes correspond to relations maintained (materialized,
virtual, or hybrid) by the mediator; an edge ``(a, b)`` means ``relation(a)``
is derived directly from ``relation(b)``.  Incremental updates propagate
along edges from the leaves upward.

Node-definition restrictions (Section 5.1, item 4):

* (a) the immediate parents of leaf nodes — *leaf-parent* nodes — may apply
  only projection and selection (we also allow attribute renaming, which the
  paper elides "in the interest of clarity") to their single leaf child;
* (b) any other *bag node* may use an arbitrary combination of selects,
  projects and joins over its children;
* (c) a node may be a union or a difference of select/project(/rename)
  chains over its children.  Nodes involving difference are *set nodes*
  (stored as sets); all other non-leaf nodes are *bag nodes* (stored as
  bags).

:class:`AnnotatedVDP` pairs a VDP with an m/v annotation per non-leaf node
and derives the Section 4 contributor classification for each source.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.annotations import Annotation
from repro.errors import AnnotationError, VDPError
from repro.relalg import (
    Difference,
    Expression,
    FDSet,
    Join,
    Project,
    Rename,
    RelationSchema,
    Scan,
    Select,
    Union,
    fds_from_schema,
    infer_fds,
)
from repro.sources.contributors import ContributorKind

__all__ = ["NodeKind", "VDPNode", "VDP", "AnnotatedVDP"]


class NodeKind(Enum):
    """The storage/maintenance class of a VDP node."""

    LEAF = "leaf"  # a relation in a source database
    BAG = "bag"    # SPJ or union node; stored as a bag
    SET = "set"    # node whose definition involves difference; stored as a set


@dataclass(frozen=True)
class VDPNode:
    """One node of a VDP."""

    name: str
    schema: RelationSchema
    kind: NodeKind
    definition: Optional[Expression] = None  # None iff leaf
    source: Optional[str] = None  # source database name, set iff leaf

    def __post_init__(self) -> None:
        if self.kind is NodeKind.LEAF:
            if self.definition is not None or self.source is None:
                raise VDPError(f"leaf node {self.name!r} must have a source and no definition")
        else:
            if self.definition is None or self.source is not None:
                raise VDPError(f"non-leaf node {self.name!r} must have a definition and no source")

    @property
    def is_leaf(self) -> bool:
        """True for source-relation leaves."""
        return self.kind is NodeKind.LEAF


def _is_operand_chain(expr: Expression) -> bool:
    """True when ``expr`` is a select/project/rename chain over one Scan."""
    while isinstance(expr, (Select, Project, Rename)):
        if isinstance(expr, Project) and expr.dedup:
            return False
        expr = expr.children()[0]
    return isinstance(expr, Scan)


def _is_spj(expr: Expression) -> bool:
    """True when ``expr`` uses only select/project/join/rename over Scans."""
    if isinstance(expr, Scan):
        return True
    if isinstance(expr, (Select, Rename)):
        return _is_spj(expr.children()[0])
    if isinstance(expr, Project):
        return not expr.dedup and _is_spj(expr.child)
    if isinstance(expr, Join):
        return _is_spj(expr.left) and _is_spj(expr.right)
    return False


def classify_definition(expr: Expression) -> NodeKind:
    """Classify a node definition per the Section 5.1 restrictions.

    Raises :class:`VDPError` for shapes outside the allowed grammar (e.g. a
    union nested inside a join, or a dedup projection).
    """
    if isinstance(expr, Difference):
        if _is_operand_chain(expr.left) and _is_operand_chain(expr.right):
            return NodeKind.SET
        raise VDPError(
            "difference node operands must be select/project/rename chains over a single child"
        )
    if isinstance(expr, Union):
        if _is_operand_chain(expr.left) and _is_operand_chain(expr.right):
            return NodeKind.BAG
        raise VDPError(
            "union node operands must be select/project/rename chains over a single child"
        )
    if _is_spj(expr):
        return NodeKind.BAG
    raise VDPError(f"node definition is not in the allowed VDP grammar: {expr}")


class VDP:
    """A validated View Decomposition Plan."""

    def __init__(self, nodes: Sequence[VDPNode], exports: Iterable[str]):
        self.nodes: Dict[str, VDPNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise VDPError(f"duplicate node name {node.name!r}")
            self.nodes[node.name] = node
        self.exports: Tuple[str, ...] = tuple(exports)
        self._schemas: Mapping[str, RelationSchema] = MappingProxyType(
            {name: node.schema for name, node in self.nodes.items()}
        )
        self._children: Dict[str, Tuple[str, ...]] = {}
        self._parents: Dict[str, List[str]] = {name: [] for name in self.nodes}
        self._validate()
        self._topo: Tuple[str, ...] = self._topological_sort()
        self._fds: Dict[str, FDSet] = self._compute_fds()
        # Structure derived once: every per-transaction walk reads these.
        self._rank: Dict[str, int] = {name: i for i, name in enumerate(self._topo)}
        self._leaves = tuple(sorted(n for n, node in self.nodes.items() if node.is_leaf))
        self._leaf_set: FrozenSet[str] = frozenset(self._leaves)
        self._non_leaves = tuple(n for n in self._topo if n not in self._leaf_set)
        self._below: Dict[str, FrozenSet[str]] = {}  # leaf descendants, children first
        for name in self._topo:
            kids = self._children[name]
            below = frozenset().union(*map(self._below.get, kids))
            self._below[name] = below if kids else frozenset((name,))
        self._ancestors: Dict[str, Tuple[str, ...]] = {}  # parents first
        for name in reversed(self._topo):
            above = set(self._parents[name]).union(*map(self._ancestors.get, self._parents[name]))
            self._ancestors[name] = tuple(sorted(above, key=self._rank.__getitem__))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for node in self.nodes.values():
            if node.is_leaf:
                self._children[node.name] = ()
                continue
            refs = sorted(node.definition.relation_names())
            for ref in refs:
                if ref not in self.nodes:
                    raise VDPError(f"node {node.name!r} references unknown relation {ref!r}")
                self._parents[ref].append(node.name)
            self._children[node.name] = tuple(refs)
            # Shape restriction + kind consistency.
            kind = classify_definition(node.definition)
            if kind is not node.kind:
                raise VDPError(
                    f"node {node.name!r} declared {node.kind.value} but definition is {kind.value}"
                )
            # Leaf-parent restriction: a node touching any leaf must be a
            # select/project/rename chain over exactly that one leaf.
            leaf_children = [c for c in refs if self.nodes[c].is_leaf]
            if leaf_children:
                if len(refs) != 1 or not _is_operand_chain(node.definition):
                    raise VDPError(
                        f"node {node.name!r} mixes leaf and non-leaf children or applies "
                        "more than select/project/rename to a leaf (Section 5.1 restriction (a))"
                    )
            # Schema consistency.
            inferred = node.definition.infer_schema(self._schemas, node.name)
            if inferred.attribute_names != node.schema.attribute_names:
                raise VDPError(
                    f"node {node.name!r} schema {node.schema.attribute_names} does not match "
                    f"definition output {inferred.attribute_names}"
                )
        for export in self.exports:
            if export not in self.nodes:
                raise VDPError(f"export {export!r} is not a node")
            if self.nodes[export].is_leaf:
                raise VDPError(f"export {export!r} cannot be a leaf")
        # Every maximal (parentless) non-leaf node must be exported (Section 5.1(5)).
        for name, node in self.nodes.items():
            if not node.is_leaf and not self._parents[name] and name not in self.exports:
                raise VDPError(f"maximal node {name!r} must be in the export set")

    def _topological_sort(self) -> Tuple[str, ...]:
        order: List[str] = []
        state: Dict[str, int] = {}  # 0 unseen, 1 visiting, 2 done

        def visit(name: str) -> None:
            mark = state.get(name, 0)
            if mark == 2:
                return
            if mark == 1:
                raise VDPError(f"cycle detected through node {name!r}")
            state[name] = 1
            for child in self._children[name]:
                visit(child)
            state[name] = 2
            order.append(name)

        for name in sorted(self.nodes):
            visit(name)
        return tuple(order)

    def _compute_fds(self) -> Dict[str, FDSet]:
        fds: Dict[str, FDSet] = {}
        for name in self._topo:
            node = self.nodes[name]
            if node.is_leaf:
                fds[name] = fds_from_schema(node.schema)
            else:
                fds[name] = infer_fds(node.definition, fds)
        return fds

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node(self, name: str) -> VDPNode:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError as exc:
            raise VDPError(f"no node named {name!r}") from exc

    def schemas(self) -> Mapping[str, RelationSchema]:
        """Read-only catalog of every node's schema, keyed by node name."""
        return self._schemas

    def children(self, name: str) -> Tuple[str, ...]:
        """Direct children (the relations the node's definition reads)."""
        return self._children[self.node(name).name]

    def parents(self, name: str) -> Tuple[str, ...]:
        """Direct parents (the nodes deriving from this one)."""
        return tuple(self._parents[self.node(name).name])

    def leaves(self) -> Tuple[str, ...]:
        """All leaf (source-relation) node names, sorted."""
        return self._leaves

    def leaf_set(self) -> FrozenSet[str]:
        """The leaf node names, for membership tests."""
        return self._leaf_set

    def non_leaves(self) -> Tuple[str, ...]:
        """All mediator-maintained node names, in topological order."""
        return self._non_leaves

    def leaf_parents(self) -> Tuple[str, ...]:
        """Nodes whose (single) child is a leaf."""
        return tuple(
            n
            for n in self.non_leaves()
            if any(self.nodes[c].is_leaf for c in self._children[n])
        )

    def topological_order(self) -> Tuple[str, ...]:
        """All node names, children before parents (deterministic)."""
        return self._topo

    def rank(self, name: str) -> int:
        """``name``'s position in :meth:`topological_order`."""
        return self._rank[name]

    def fds(self, name: str) -> FDSet:
        """Functional dependencies inferred for a node's relation."""
        return self._fds[self.node(name).name]

    def leaf_descendants(self, name: str) -> FrozenSet[str]:
        """All leaf nodes reachable below ``name`` (``name`` itself if a leaf)."""
        return self._below[self.node(name).name]

    def sources_below(self, name: str) -> FrozenSet[str]:
        """Source database names feeding ``name``."""
        return frozenset(self.nodes[leaf].source for leaf in self.leaf_descendants(name))

    def source_of_leaf(self, leaf: str) -> str:
        """The source database owning a leaf node."""
        node = self.node(leaf)
        if not node.is_leaf:
            raise VDPError(f"{leaf!r} is not a leaf node")
        return node.source

    def leaves_of_source(self, source: str) -> Tuple[str, ...]:
        """All leaf nodes owned by one source database."""
        return tuple(
            n for n in self.leaves() if self.nodes[n].source == source
        )

    def ancestors(self, name: str) -> Tuple[str, ...]:
        """All nodes strictly above ``name``, in topological order."""
        return self._ancestors[self.node(name).name]

    def upward(self, names: Iterable[str]) -> Tuple[str, ...]:
        """``names`` and every node above them, in topological order — the
        sub-DAG a delta at ``names`` can reach."""
        names = set(names)
        reached = names.union(*map(self._ancestors.__getitem__, names))
        return tuple(sorted(reached, key=self._rank.__getitem__))

    def __repr__(self) -> str:
        return f"<VDP nodes={len(self.nodes)} exports={list(self.exports)}>"

    def describe(self) -> str:
        """A human-readable multi-line rendering (used by examples)."""
        lines = []
        for name in reversed(self._topo):
            node = self.nodes[name]
            if node.is_leaf:
                lines.append(f"  [leaf] {name}{list(node.schema.attribute_names)} @ {node.source}")
            else:
                marker = "export " if name in self.exports else ""
                lines.append(
                    f"  [{node.kind.value}] {marker}{name}{list(node.schema.attribute_names)}"
                    f" := {node.definition}"
                )
        return "\n".join(lines)


class AnnotatedVDP:
    """A VDP plus an m/v annotation for every non-leaf node (Section 5.1)."""

    def __init__(self, vdp: VDP, annotations: Mapping[str, Annotation]):
        self.vdp = vdp
        self.annotations: Dict[str, Annotation] = dict(annotations)
        self._validate()
        self._storing = tuple(n for n in vdp.non_leaves() if self.annotations[n].materialized_attrs)
        self._storing_set = frozenset(self._storing)
        self._kinds = self._classify_contributors()
        self._announcing = tuple(n for n, kind in self._kinds.items() if kind.announces)
        self._announced = frozenset(
            n for n in vdp.nodes if vdp.sources_below(n).issubset(self._announcing)
        )

    def _validate(self) -> None:
        for name in self.vdp.non_leaves():
            node = self.vdp.node(name)
            ann = self.annotations.get(name)
            if ann is None:
                raise AnnotationError(f"missing annotation for node {name!r}")
            if ann.attributes != node.schema.attribute_names:
                raise AnnotationError(
                    f"annotation for {name!r} covers {ann.attributes}, "
                    f"schema has {node.schema.attribute_names}"
                )
            # Set nodes are stored as plain sets of full rows; partially
            # materializing one would need per-attribute set storage the
            # paper never uses, so we require all-m or all-v.
            if node.kind is NodeKind.SET and ann.hybrid:
                raise AnnotationError(
                    f"set node {name!r} must be fully materialized or fully virtual"
                )
        extra = set(self.annotations) - set(self.vdp.non_leaves())
        if extra:
            raise AnnotationError(f"annotations for unknown nodes: {sorted(extra)}")

    # ------------------------------------------------------------------
    def annotation(self, name: str) -> Annotation:
        """The annotation of one non-leaf node."""
        try:
            return self.annotations[name]
        except KeyError as exc:
            raise AnnotationError(f"no annotation for node {name!r}") from exc

    def is_fully_materialized(self, name: str) -> bool:
        """True when every attribute of the node is materialized."""
        return self.annotation(name).fully_materialized

    def is_fully_virtual(self, name: str) -> bool:
        """True when every attribute of the node is virtual."""
        return self.annotation(name).fully_virtual

    def virtual_attrs(self, name: str) -> Tuple[str, ...]:
        """The virtual attributes of a node."""
        return self.annotation(name).virtual_attrs

    def nodes_with_storage(self) -> Tuple[str, ...]:
        """Non-leaf nodes that store at least one attribute, topologically."""
        return self._storing

    def storing_set(self) -> FrozenSet[str]:
        """:meth:`nodes_with_storage` as a set, for membership tests."""
        return self._storing_set

    # ------------------------------------------------------------------
    # Contributor classification (Section 4)
    # ------------------------------------------------------------------
    def contributor_kinds(self) -> Dict[str, ContributorKind]:
        """Classify every source database (a fresh copy, sorted by name).

        A source contributes to the *materialized portion* when some node
        with materialized attributes depends on it, and to the *virtual
        portion* when some node with virtual attributes depends on it.  A
        source in both camps is a hybrid-contributor.
        """
        return dict(self._kinds)

    def announcing_sources(self) -> Tuple[str, ...]:
        """The sources whose kind announces updates, sorted."""
        return self._announcing

    def sources_announce(self, name: str) -> bool:
        """True when every source feeding ``name`` announces its updates."""
        return name in self._announced

    def _classify_contributors(self) -> Dict[str, ContributorKind]:
        materialized_side: Set[str] = set()
        virtual_side: Set[str] = set()
        for name in self.vdp.non_leaves():
            ann = self.annotation(name)
            below = self.vdp.sources_below(name)
            if ann.materialized_attrs:
                materialized_side |= below
            if ann.virtual_attrs:
                virtual_side |= below
        kinds: Dict[str, ContributorKind] = {}
        all_sources = {self.vdp.nodes[l].source for l in self.vdp.leaves()}
        for source in sorted(all_sources):
            in_m = source in materialized_side
            in_v = source in virtual_side
            if in_m and in_v:
                kinds[source] = ContributorKind.HYBRID
            elif in_m:
                kinds[source] = ContributorKind.MATERIALIZED
            elif in_v:
                kinds[source] = ContributorKind.VIRTUAL
        return kinds

    def describe(self) -> str:
        """Human-readable rendering of nodes with their annotations."""
        lines = []
        for name in reversed(self.vdp.topological_order()):
            node = self.vdp.node(name)
            if node.is_leaf:
                lines.append(f"  [leaf] {name} @ {node.source}")
            else:
                lines.append(f"  [{node.kind.value}] {name}{self.annotation(name)}")
        return "\n".join(lines)
