"""Evaluation of algebra expressions against a catalog of relations.

The evaluator is the workhorse behind three parts of the system:

* VDP node (re)computation — populating mediator relations at view-init time
  and recomputing ground truth in tests and benchmarks;
* the VAP's bottom-up construction of temporary relations (Section 6.3);
* the incremental rules of Section 5.2, which are themselves algebra
  expressions over current relations and deltas.

**One fused pass per scanned relation.**  A select / non-dedup project /
rename stack over a ``Scan`` — a query ``π_A σ_f R``, a leaf-parent
definition, a join operand — is normalised once into a :class:`ScanChain`:
its selections rewritten onto base attribute names and compiled to one
function (:mod:`repro.relalg.predicates`), its output attributes resolved to
the base attributes they read.  Evaluation is a single loop over the stored
relation — test the base row, build an output ``Row`` only for survivors,
accumulate — with no intermediate ``{row: count}`` copy and no second
projection pass; an identity projection returns the stored rows themselves.
An index probe runs the same ``(test, outmap)`` over the probed bucket.
``rows_scanned`` still counts every base row read.  Rows are read and built
by position (:mod:`repro.relalg.tuples`): the test and the output index map
are resolved once per row layout (:class:`ChainLayout`).

Joins are executed as hash joins on whatever equality conjuncts can be
extracted from the condition (see
:func:`repro.relalg.predicates.equi_join_pairs`), with the residual condition
compiled over the operand-row *pair* and tested before the pair is merged —
so Figure 4's arithmetic join condition ``a1^2 + a2 < b2^2`` degrades
gracefully to a filtered cross product while ``r2 = s1`` runs in linear
time.  A pair merges through one index map per pair of operand layouts, and
a project/rename stack right above the join (:class:`JoinOutput`) is
composed into that map, so each pair builds exactly one output row.

Two layers of pre-computation keep the hot path (incremental rule firing)
proportional to delta size rather than database size:

* **Plans** (:func:`plan_join`, :func:`plan_node`) — everything
  about a join or a chain that does not depend on the data, resolved once.
  Compiled rules (:mod:`repro.core.rules`) precompute them at
  rulebase-construction time and pass them in via the ``plans`` argument
  (steady-state propagation compiles nothing); ad-hoc evaluations plan on
  the fly.
* **Indexed probes** — when one join operand is a chain over a scanned
  relation that carries a *persistent* hash index on the join keys (see
  :meth:`repro.relalg.relation.Relation.ensure_index`), the evaluator
  drives the join from the other operand and probes the index per row
  instead of materializing and re-hashing the indexed relation.  With the
  delta on the driving side, a rule firing costs O(|delta|) index probes
  where it used to cost a full re-hash of the sibling.
* **Ordered probes** — a pure theta join starting with a separable
  ``f(L) op g(R)`` (:func:`~repro.relalg.predicates.separable`) runs the
  same way over an ordered index on one side's term: per drive row one
  bound, one bisect, the qualifying buckets — O(|delta| log n + output), not
  O(|delta| · n).  What the index cannot order is pair-tested with the whole
  condition, so answers and errors are the filtered cross product's.  A
  chain whose selection starts with range conjuncts on one attribute
  (:class:`ChainBounds`) reads the same kind of index, on that attribute, by
  two bisects: O(log n + rows in range), with the scan's answers and errors.
  A relation the caller names ``indexable`` (a stored repository) gets the
  index on its first range σ; any other relation is scanned.

An optional :class:`EvalCounters` records rows scanned/hashed/produced,
index probes and index (re)builds; benchmarks and tests use it to assert
work done — not just wall-clock — by competing strategies.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import EvaluationError, SchemaError
from repro.relalg.expressions import (
    Difference,
    Expression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relalg.predicates import (
    FLIP, Attr, CompiledTest, Predicate, Term, compile_test, conjoin, conjuncts, equi_join_pairs,
    normalize_comparison, separable,
)
from repro.relalg.relation import BagRelation, OrderedKey, Relation, SetRelation, finite_number
from repro.relalg.schema import RelationSchema
from repro.relalg.tuples import Names, Picker, Row, canonical_names, picker, reorder

__all__ = [
    "evaluate",
    "EvalCounters",
    "Evaluator",
    "ScanChain",
    "ProbeSpec",
    "RangeSpec",
    "JoinPlan",
    "compile_scan_chain",
    "plan_join",
    "plan_node",
]


@dataclass
class EvalCounters:
    """Mutable work counters for one or more evaluations.

    ``rows_hashed`` counts rows inserted into hash tables: ephemeral
    per-join tables and persistent-index builds alike.  In the compiled
    propagation engine this is the headline scaling counter — flat in
    database size when rules probe maintained indexes, linear when they
    re-hash siblings.  ``index_probes`` counts persistent-index lookups and
    ``index_rebuilds`` counts full index constructions (steady-state
    propagation must keep this at zero; see ``tests/core`` and
    ``benchmarks/bench_propagation_scaling.py``).
    """

    rows_scanned: int = 0
    rows_produced: int = 0
    joins_executed: int = 0
    hash_probes: int = 0
    rows_hashed: int = 0
    index_probes: int = 0
    index_rebuilds: int = 0

    def merge(self, other: "EvalCounters") -> None:
        """Accumulate another counter set into this one.

        Derived from ``dataclasses.fields`` — adding a counter field can
        never silently drop it from merges (regression-pinned in
        ``tests/relalg/test_eval_counters.py``).
        """
        from repro.obs.metrics import merge_dataclass_counters

        merge_dataclass_counters(self, other)

    def reset(self) -> None:
        """Zero every counter (fields-derived, like :meth:`merge`)."""
        from repro.obs.metrics import reset_dataclass_counters

        reset_dataclass_counters(self)


# ---------------------------------------------------------------------------
# Compiled plans: fused scan chains and joins
# ---------------------------------------------------------------------------
class ChainLayout(NamedTuple):
    """A :class:`ScanChain` resolved for one row layout: the selection over a
    base row's values, and the output names + picker (``out`` None: the
    output rows *are* the base rows; ``get`` None: the rows lack the base
    attribute ``missing``, which every survivor reports)."""

    test: Optional[Callable[..., bool]]
    out: Optional[Names]
    get: Optional[Picker]
    missing: Optional[str]


Bound = Optional[Tuple[Any, bool]]  # None (unbounded) or (value, strict)


def key_slice(order: List[Any], low: Bound, high: Bound) -> List[Any]:
    """The keys of the sorted list ``order`` between two bounds: two bisects."""
    start = 0 if low is None else (bisect_right if low[1] else bisect_left)(order, low[0])
    end = len(order) if high is None else (bisect_left if high[1] else bisect_right)(order, high[0])
    return order[start:end]


class ChainBounds(NamedTuple):
    """A chain's range σ: its selection's leading conjuncts comparing one base
    attribute with a finite number, as bounds on that attribute's ordered index,
    and ``rest``, the conjuncts after them.  Only a prefix qualifies — a row out
    of bounds fails before any later conjunct runs — so the scan's errors hold."""

    key: OrderedKey
    low: Bound
    high: Bound
    rest: Optional[CompiledTest]


#: a op c → (bounds low?, bounds high?, strict?); the tighter bound wins, strict on a tie
_RANGE_OPS = {">": (True, False, True), ">=": (True, False, False), "=": (True, True, False),
              "<": (False, True, True), "<=": (False, True, False)}


def _chain_bounds(selection: Predicate) -> Optional[ChainBounds]:
    parts = conjuncts(selection)
    name = low = high = None
    taken = 0
    for part in parts:
        norm = normalize_comparison(part)
        if norm is None or norm[1] not in _RANGE_OPS or not finite_number(norm[2]) or (
                name is not None and name != norm[0]):
            break
        name, op, value = norm
        lower, upper, strict = _RANGE_OPS[op]
        if lower and (low is None or value > low[0] or (value == low[0] and strict)):
            low = (value, strict)
        if upper and (high is None or value < high[0] or (value == high[0] and strict)):
            high = (value, strict)
        taken += 1
    if not taken:
        return None
    rest = conjoin(*parts[taken:]).compiled_test() if taken < len(parts) else None
    return ChainBounds(OrderedKey(name, Attr(name)), low, high, rest)


class ScanChain(NamedTuple):
    """A select/project/rename chain over one scanned relation, normalised.

    ``test`` is the conjunction of the chain's selections, rewritten onto
    base attribute names and compiled (``None``: nothing selected);
    ``outmap`` maps every output attribute to the base attribute it reads.
    De-duplicating projections are not chains — their multiplicity collapse
    cannot be applied row-at-a-time.  (A tuple, not a dataclass: one is built
    per ad-hoc evaluation, on the clock.)
    """

    base: str
    test: Optional[CompiledTest]
    outmap: Mapping[str, str]
    #: False when no projection narrows the chain: ``outmap`` then lists the
    #: *declared* base attributes, and rows of a narrower stand-in (a hybrid
    #: repository, a VAP temporary) pass through with the ones they have.
    projected: bool
    #: The output attribute names when nothing is renamed, else None.
    plain: Optional[FrozenSet[str]]
    bounds: Optional[ChainBounds]  #: the selection's range prefix, if any
    #: One :class:`ChainLayout` per row layout met (see :meth:`outmap_over`).
    layouts: Dict[Names, ChainLayout]

    def outmap_over(self, schema: RelationSchema) -> ChainLayout:
        """The chain resolved for rows of ``schema``: its test by position
        and its output as one index map, built on the first relation of that
        layout and looked up after that."""
        layout = self.layouts.get(schema.row_names)
        if layout is None:
            layout = self.layouts[schema.row_names] = self._resolve(schema)
        return layout

    def _resolve(self, schema: RelationSchema) -> ChainLayout:
        names, have = schema.row_names, schema.attribute_set
        test = None if self.test is None else self.test.at(names)
        if self.plain == have or (not self.projected and self.plain is not None):
            return ChainLayout(test, None, None, None)  # no rename, no narrowing
        outmap = self.outmap
        if not self.projected:
            outmap = {out: base for out, base in outmap.items() if base in have}
        missing = next((base for base in outmap.values() if base not in have), None)
        if missing is not None:
            return ChainLayout(test, canonical_names(outmap), None, missing)
        return ChainLayout(test, *reorder({o: names.index(b) for o, b in outmap.items()}), None)

    def apply(self, base_row: Row, layout: ChainLayout) -> Optional[Row]:
        """One base row through the chain (``layout`` from :meth:`outmap_over`
        its relation); None when a select rejects it."""
        values = base_row._values
        if layout.test is not None and not layout.test(values):
            return None
        if layout.out is None:
            return base_row
        if layout.get is None:
            raise SchemaError(f"row {base_row!r} has no attribute {layout.missing!r}")
        return Row.new(Row, (layout.out, layout.get(values)))


def compile_scan_chain(
    expr: Expression, schemas: Mapping[str, RelationSchema]
) -> Optional[ScanChain]:
    """Normalise ``expr`` into a :class:`ScanChain` if it has that shape.

    Returns None for anything else — including a stack that is not
    well-formed (a select, project or rename naming an attribute not
    visible at that point), which the operator-at-a-time path then rejects
    with its usual errors.  The chain comes resolved for ``schemas``' rows.
    """
    steps: List[Expression] = []
    node = expr
    while not isinstance(node, Scan):
        if isinstance(node, Project):
            if node.dedup:
                return None
        elif not isinstance(node, (Select, Rename)):
            return None
        steps.append(node)
        node = node.child
    # Innermost first, tracking visible name -> base attribute.
    schema = schemas[node.name]
    visible = {a: a for a in schema.attribute_names}
    plain: Optional[FrozenSet[str]] = schema.attribute_set
    selects: List[Predicate] = []
    projected = False
    for step in reversed(steps):
        if isinstance(step, Select):
            predicate = step.predicate
            if projected or plain is None:  # something is hidden or renamed
                reads = predicate.attributes()
                if not reads <= visible.keys():
                    return None
                if any(visible[a] != a for a in reads):
                    predicate = predicate.rename(visible)
            selects.append(predicate)
        elif isinstance(step, Project):
            try:
                visible = {a: visible[a] for a in step.attrs}
            except KeyError:
                return None
            projected = True
            if plain is not None:
                plain = frozenset(visible)
        else:
            mapping = step.mapping_dict
            renamed_to = {mapping.get(a, a): base for a, base in visible.items()}
            if not mapping.keys() <= visible.keys() or len(renamed_to) != len(visible):
                return None
            visible = renamed_to
            plain = None
    test = bounds = None
    if selects:
        selection = selects[0] if len(selects) == 1 else conjoin(*selects)
        test, bounds = selection.compiled_test(), _chain_bounds(selection)
    chain = ScanChain(node.name, test, visible, projected, plain, bounds, {})
    chain.outmap_over(schema)
    return chain


class JoinOutput(NamedTuple):
    """A non-dedup project/rename stack over a join, innermost step first.

    The join applies it to each merged pair: the steps compose with the
    merge into one index map per pair of operand layouts, so a pair builds
    one output row (``rename∘project∘(C ⋈ D)`` builds no join-wide row).
    """

    join: Join
    steps: Tuple[Expression, ...]
    #: (first names, second names) → (output names, picker) or (None, None).
    maps: Dict[Tuple[Names, Names], Tuple[Optional[Names], Optional[Picker]]]


def plan_node(expr: Expression, schemas: Mapping[str, RelationSchema]) -> Any:
    """The plan of a non-join node: a :class:`ScanChain`, a
    :class:`JoinOutput`, or None (evaluated operator at a time)."""
    chain = compile_scan_chain(expr, schemas)
    if chain is not None:
        return chain
    steps: List[Expression] = []
    node = expr
    while isinstance(node, Rename) or (isinstance(node, Project) and not node.dedup):
        steps.append(node)
        node = node.child
    if steps and isinstance(node, Join):
        return JoinOutput(node, tuple(reversed(steps)), {})
    return None


_names_of = attrgetter("_names")


def _no_key(values: Tuple[Any, ...]) -> Tuple[()]:
    return ()


@lru_cache(maxsize=None)
def _key_picker(names: Names, keys: Names) -> Callable[[Tuple[Any, ...]], Any]:
    """A hash-join key over values laid out as ``names`` (the bare value for
    one key attribute); a missing key attribute raises ``KeyError``, as a
    lookup by name does."""
    missing = next((k for k in keys if k not in names), None)
    if missing is not None:
        raise KeyError(missing)
    if len(keys) == 1:
        return itemgetter(names.index(keys[0]))
    return picker([names.index(k) for k in keys])


@dataclass(frozen=True)
class ProbeSpec:
    """How to answer a row lookup on a chain through a persistent index.

    ``constraints`` pairs each drive-side attribute with the base attribute
    it must equal; ``index_keys`` is the canonical (sorted, de-duplicated)
    base key tuple the persistent index is built on.
    """

    base: str
    chain: ScanChain
    index_keys: Tuple[str, ...]
    constraints: Tuple[Tuple[str, str], ...]
    #: The probe key picker per drive-row layout (see :meth:`key_picker`).
    pickers: Dict[Names, Callable[..., Optional[Tuple[Any, ...]]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def over(cls, chain: ScanChain, constraints: Tuple[Tuple[str, str], ...]) -> "ProbeSpec":
        """The spec probing ``chain``'s base on exactly the constrained attributes."""
        index_keys = tuple(sorted({base for _, base in constraints}))
        return cls(chain.base, chain, index_keys, constraints)

    def target(self, catalog: Mapping[str, Relation]) -> Optional[Relation]:
        """The base relation, iff it carries the index this spec probes."""
        rel = catalog.get(self.base)
        return rel if rel is not None and rel.has_index(self.index_keys) else None

    def key_picker(self, names: Names) -> Callable[[Tuple[Any, ...]], Optional[Tuple[Any, ...]]]:
        """Drive values laid out as ``names`` → the index key they probe
        with; None when two drive attributes demand different values of one
        base attribute."""
        get = self.pickers.get(names)
        if get is None:
            first: Dict[str, str] = {}  # base attribute → first drive attribute
            for drive_attr, base_attr in self.constraints:
                first.setdefault(base_attr, drive_attr)
            if len(first) < len(self.constraints) or any(d not in names for d in first.values()):
                get = partial(self._agreeing_key, names)  # rare: the general rule
            else:
                get = picker([names.index(first[k]) for k in self.index_keys])
            self.pickers[names] = get
        return get

    def _agreeing_key(self, names: Names, values: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        drive = dict(zip(names, values))
        by_base: Dict[str, Any] = {}
        for drive_attr, base_attr in self.constraints:
            v = drive[drive_attr]
            if by_base.setdefault(base_attr, v) != v:
                return None
        return tuple(by_base[k] for k in self.index_keys)

    def key_for(self, drive_row: Row) -> Optional[Tuple[Any, ...]]:
        """The index key ``drive_row`` probes with (see :meth:`key_picker`)."""
        return self.key_picker(drive_row._names)(drive_row._values)


def _probe_spec(
    side_expr: Expression,
    side_keys: List[str],
    drive_keys: List[str],
    drive_names: Names,
    schemas: Mapping[str, RelationSchema],
) -> Optional[ProbeSpec]:
    chain = compile_scan_chain(side_expr, schemas)
    if chain is None or not side_keys:
        return None
    # side_keys are output attributes of the side, so outmap holds each.
    pairs = zip(drive_keys, side_keys)
    spec = ProbeSpec.over(chain, tuple((drive, chain.outmap[out]) for drive, out in pairs))
    spec.key_picker(drive_names)
    return spec


class RangeSpec(NamedTuple):
    """A separable theta join answered through an ordered index on the
    probed chain's term (``index_keys``, on base names): per drive row the
    bound ``drive`` computes, the keys ``k op bound`` (one bisect), and
    ``rest`` — the other conjuncts, a pair test — on those pairs."""

    base: str
    chain: ScanChain
    index_keys: OrderedKey
    op: str
    drive: CompiledTest
    rest: Optional[CompiledTest]

    def target(self, catalog: Mapping[str, Relation]) -> Optional[Relation]:
        """The base relation, iff it carries the index and the chain resolves over it."""
        rel = catalog.get(self.base)
        indexed = rel is not None and rel.has_index(self.index_keys)
        return rel if indexed and self.chain.outmap_over(rel.schema).missing is None else None


def _range_spec(side: Expression, term: Term, op: str, drive: Term, drive_names: Names,
                rest: Optional[CompiledTest], schemas: Mapping[str, RelationSchema]) -> Any:
    chain = compile_scan_chain(side, schemas)
    if chain is None:
        return None
    term = term.rename(chain.outmap)
    key = OrderedKey(str(term), term)
    key.term.compiled_test().at(schemas[chain.base].row_names)  # both resolved here, at plan time
    drive.compiled_test().at(drive_names)
    return RangeSpec(chain.base, chain, key, op, drive.compiled_test(), rest)


@dataclass(frozen=True)
class JoinPlan:
    """Everything about one Join node that does not depend on the data."""

    natural: bool
    #: The hash keys, position by position: the shared attributes (twice) of
    #: a natural join, the equi pairs of a theta join, empty for pure theta.
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    #: What is left of a theta condition after the equi pairs (all of it
    #: for a pure theta join), compiled over the (left row, right row)
    #: pair so it is tested before the pair is merged.
    residual: Optional[CompiledTest]
    left_probe: Optional[ProbeSpec]  # probe the LEFT side, drive from right
    right_probe: Optional[ProbeSpec]  # probe the RIGHT side, drive from left
    #: A pure theta join with a separable condition: its ordered probes.
    left_range: Optional[RangeSpec] = None
    right_range: Optional[RangeSpec] = None
    #: The merge index map per pair of operand layouts (see :func:`_join_map`).
    maps: Dict[Tuple[Names, Names], Tuple[Optional[Names], Optional[Picker]]] = field(
        default_factory=dict, compare=False, repr=False
    )


def plan_join(expr: Join, schemas: Mapping[str, RelationSchema]) -> JoinPlan:
    """Resolve schemas, equi pairs, residual and probe specs for one join —
    the residual and the probe keys resolved for the operands' row layouts."""
    left_attrs = expr.left.infer_schema(schemas, "join_l").attribute_set
    right_attrs = expr.right.infer_schema(schemas, "join_r").attribute_set
    left_names, right_names = canonical_names(left_attrs), canonical_names(right_attrs)
    residual = left_range = right_range = None
    if expr.condition is None:
        left_keys = right_keys = sorted(left_attrs & right_attrs)
    else:
        pairs, rest = equi_join_pairs(expr.condition, left_attrs, right_attrs)
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        if rest is not None:
            residual = compile_test(rest, right_attrs)
            residual.at(left_names, right_names)
        split = None if pairs or rest is None else separable(rest, left_attrs, right_attrs)
        if split is not None:
            f, op, g, others = split
            more = None if others is None else compile_test(others, right_attrs)
            if more is not None:
                more.at(left_names, right_names)
            left_range = _range_spec(expr.left, f, op, g, right_names, more, schemas)
            right_range = _range_spec(expr.right, g, FLIP[op], f, left_names, more, schemas)
    return JoinPlan(
        natural=expr.condition is None,
        left_keys=tuple(left_keys),
        right_keys=tuple(right_keys),
        residual=residual,
        left_probe=_probe_spec(expr.left, left_keys, right_keys, right_names, schemas),
        right_probe=_probe_spec(expr.right, right_keys, left_keys, left_names, schemas),
        left_range=left_range,
        right_range=right_range,
    )


def _join_map(
    plan: JoinPlan, output: Optional[JoinOutput], first: Names, second: Names
) -> Tuple[Optional[Names], Optional[Picker]]:
    """Output names and picker over ``first values + second values`` (the
    second row wins a shared attribute, as in ``Row.merge_natural``) with
    ``output``'s steps composed in; (None, None) when a step projects an
    attribute the rows lack (a narrower stand-in): the pair then merges
    through the Row methods, which report it."""
    maps = plan.maps if output is None else output.maps
    hit = maps.get((first, second))
    if hit is None:
        hit = maps[first, second] = (None, None)
        # Schema inference has ruled out a theta overlap, and a natural
        # pair shares exactly the key attributes it was hashed on.
        position = {n: i for i, n in enumerate(first + second)}
        for step in output.steps if output is not None else ():
            if isinstance(step, Rename):
                renamed = step.mapping_dict
                position = {renamed.get(a, a): i for a, i in position.items()}
            elif all(a in position for a in step.attrs):
                position = {a: position[a] for a in step.attrs}
            else:
                return hit
        hit = maps[first, second] = reorder(position)
    return hit


def _merged(first: Row, second: Row, natural: bool, output: Optional[JoinOutput]) -> Row:
    merged = first.merge_natural(second) if natural else first.merge(second)
    for step in output.steps if output is not None else ():
        if isinstance(step, Rename):
            merged = merged.rename(step.mapping_dict)
        else:
            merged = merged.project(step.attrs)
    return merged


class Evaluator:
    """Evaluates expressions against a catalog ``{name: Relation}``."""

    def __init__(
        self,
        catalog: Mapping[str, Relation],
        schemas: Optional[Mapping[str, RelationSchema]] = None,
        counters: Optional[EvalCounters] = None,
        plans: Optional[Mapping[int, Any]] = None,
        indexable: FrozenSet[str] = frozenset(),
    ):
        self.catalog = catalog
        self.schemas = schemas or {name: rel.schema for name, rel in catalog.items()}
        self.counters = counters if counters is not None else EvalCounters()
        # A JoinPlan per Join node, a ScanChain / JoinOutput (or None) per
        # other node, keyed by id of the node.  A CompiledSPJ passes in what
        # it precompiled (ids stable because the compiled rule retains the
        # expressions); anything else is planned on first visit and cached
        # per evaluator instance, the cache pinning each node so a collected
        # expression can never alias a cached id.
        self._plans: Dict[int, Any] = dict(plans) if plans else {}
        self._plan_pins: Dict[int, Expression] = {}
        self.indexable = indexable  # repositories a range σ may give an ordered index
        self.access: List[str] = []  #: per selection chain evaluated: "range" or "scan"

    # ------------------------------------------------------------------
    def evaluate(self, expr: Expression, name: str = "result") -> Relation:
        """Evaluate ``expr``; the result relation is named ``name``.

        SPJ/union subtrees produce :class:`BagRelation`; a
        :class:`Difference` produces a :class:`SetRelation` (paper set
        nodes); a :class:`Project` with ``dedup=True`` also produces a set.
        """
        schema = expr.infer_schema(self.schemas, name)
        counts = self._eval(expr)
        if isinstance(expr, Difference) or (isinstance(expr, Project) and expr.dedup):
            return SetRelation(schema, counts.keys())
        self.counters.rows_produced += sum(counts.values())
        return BagRelation(schema, counts)

    # ------------------------------------------------------------------
    # Internal: everything computes a {row: positive count} dict.  Every
    # branch returns a dict it owns (never a catalog structure), so
    # operators like select may filter their child in place.  Rows are
    # built positionally through index maps resolved per row layout (the
    # ``_names`` identity is checked per row, a map resolved per change).
    # ------------------------------------------------------------------
    def _planned(self, expr: Expression, build: Callable[..., Any]) -> Any:
        key = id(expr)
        if key not in self._plans:
            self._plans[key] = build(expr, self.schemas)
            self._plan_pins[key] = expr
        return self._plans[key]

    def _eval(self, expr: Expression) -> Dict[Row, int]:
        if isinstance(expr, Join):
            return self._eval_join(expr, None)
        if isinstance(expr, Union):
            return self._eval_union(expr)
        if isinstance(expr, Difference):
            return self._eval_difference(expr)
        plan = self._planned(expr, plan_node)
        if type(plan) is ScanChain:
            return self._eval_chain(plan)
        if plan is not None:
            return self._eval_join(plan.join, plan)
        if isinstance(expr, Select):
            return self._eval_select(expr)
        if isinstance(expr, Project):
            return self._eval_project(expr)
        if isinstance(expr, Rename):
            return self._eval_rename(expr)
        raise EvaluationError(f"unknown expression node {type(expr).__name__}")

    def _eval_chain(self, chain: ScanChain) -> Dict[Row, int]:
        """The fused pass: one loop over the stored relation, or over the slice
        of its ordered index that a range σ bisects (see :class:`ChainBounds`)."""
        try:
            rel = self.catalog[chain.base]
        except KeyError as exc:
            raise EvaluationError(f"relation {chain.base!r} not in catalog") from exc
        layout, bounds = chain.outmap_over(rel.schema), chain.bounds
        test, out, get = layout.test, layout.out, layout.get
        indexed = bounds is not None and rel.has_index(bounds.key)
        if bounds is not None and not indexed and chain.base in self.indexable:
            rel.ensure_indexes((bounds.key,), self.counters)  # built once, then maintained
            indexed = rel.has_index(bounds.key)
        if indexed:
            self.access.append("range")
            buckets = rel.index_buckets(bounds.key)
            rest = None if bounds.rest is None else bounds.rest.at(rel.schema.row_names)
            keys = key_slice(rel.index_order(bounds.key), bounds.low, bounds.high)
            found = [(buckets[k], rest) for k in keys]
            if None in buckets:
                found.append((buckets[None], test))
            self.counters.rows_scanned += sum(sum(bucket.values()) for bucket, _ in found)
        else:
            if test is not None:
                self.access.append("scan")
            self.counters.rows_scanned += rel.cardinality()
            if out is None and test is None:
                return rel.counts_copy()
            found = [(rel, test)]
        if out is None:  # whole buckets are unioned at C level
            counts: Dict[Row, int] = {}
            for rows, test in found:
                counts.update(rows if test is None else
                              {r: n for r, n in rows.items() if test(r._values)})
            return counts
        new = Row.new
        built: Dict[Row, int] = defaultdict(int)
        for rows, test in found:
            for r, n in rows.items():
                values = r._values
                if test is None or test(values):
                    # get None: the survivor lacks an attribute; apply reports it
                    built[new(Row, (out, get(values))) if get else chain.apply(r, layout)] += n
        return dict(built)

    def _eval_select(self, expr: Select) -> Dict[Row, int]:
        child = self._eval(expr.child)
        # Not a chain, so the child dict is owned by this evaluation: filter
        # it in place instead of copying every surviving entry.
        at = expr.predicate.compiled_test().at
        names = None
        doomed = []
        for r in child:
            if r._names is not names:
                names = r._names
                test = at(names)
            if not test(r._values):
                doomed.append(r)
        for r in doomed:
            del child[r]
        return child

    def _eval_project(self, expr: Project) -> Dict[Row, int]:
        child = self._eval(expr.child)
        if not expr.dedup and child:
            sample = next(iter(child))
            if len(expr.attrs) == len(sample) and all(a in sample for a in expr.attrs):
                return child  # identity projection: row content is unchanged
        counts: Dict[Row, int] = defaultdict(int)
        for r, n in child.items():
            counts[r.project(expr.attrs)] += n
        if expr.dedup:
            return {r: 1 for r in counts}
        return dict(counts)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _eval_join(self, expr: Join, output: Optional[JoinOutput]) -> Dict[Row, int]:
        self.counters.joins_executed += 1
        plan: JoinPlan = self._planned(expr, plan_join)

        if plan.natural and not plan.left_keys:
            raise EvaluationError("natural join with no shared attributes")

        # Indexed execution: probe a persistently indexed side per drive
        # row.  When both sides are indexed, probe the bigger one (driving
        # from the smaller costs fewer probes).
        probe = self._pick_probe(plan.left_probe, plan.right_probe) or self._pick_probe(
            plan.left_range, plan.right_range)
        if probe is not None:
            side, spec, rel = probe
            drive = self._eval(expr.right if side == "left" else expr.left)
            if type(spec) is RangeSpec:
                return self._range_probe(drive, spec, rel, plan, side == "left", output)
            layout = spec.chain.outmap_over(rel.schema)
            probed = rel.schema.row_names if layout.out is None else layout.out
            buckets = rel.index_buckets(spec.index_keys)
            return self._probe(drive, spec.key_picker, buckets, probed, spec.chain, layout,
                               plan, side == "left", output)

        # A hash join builds its index on the right operand; a pure theta
        # join is one on the empty key (a filtered cross product).
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        names = set(map(_names_of, right))
        probed = names.pop() if len(names) == 1 else None  # None: mixed layouts
        if not plan.left_keys:
            return self._probe(left, lambda names: _no_key, {(): right}, probed, None, None,
                               plan, False, output)
        index: Dict[Any, Dict[Row, int]] = {}
        names = None
        for rr, rn in right.items():
            if rr._names is not names:
                names = rr._names
                key = _key_picker(names, plan.right_keys)
            index.setdefault(key(rr._values), {})[rr] = rn
        self.counters.rows_hashed += len(right)
        self.counters.hash_probes += len(left)
        return self._probe(left, lambda names: _key_picker(names, plan.left_keys), index,
                           probed, None, None, plan, False, output)

    def _pick_probe(self, left: Any, right: Any) -> Optional[Tuple[str, Any, Relation]]:
        candidates: List[Tuple[int, str, Any, Relation]] = []
        for side, spec in (("left", left), ("right", right)):
            rel = spec.target(self.catalog) if spec is not None else None
            if rel is not None:
                candidates.append((rel.distinct_size(), side, spec, rel))
        if not candidates:
            return None
        size, side, spec, rel = max(candidates, key=lambda t: (t[0], t[1]))
        return side, spec, rel

    def _probe(
        self,
        drive: Dict[Row, int],
        key_for: Callable[[Names], Callable[..., Any]],
        buckets: Mapping[Any, Mapping[Row, int]],
        probed_names: Optional[Names],
        chain: Optional[ScanChain],
        layout: Optional[ChainLayout],
        plan: JoinPlan,
        probing_left: bool,
        output: Optional[JoinOutput],
    ) -> Dict[Row, int]:
        """The join loop: per drive row, its key's bucket; per bucket row
        (through ``chain``, for a persistent index on a chain's base), the
        residual, then the pair merged drive row first — one output row
        built through the pair's index map."""
        counts: Dict[Row, int] = defaultdict(int)
        chain_test = chain_get = None
        if layout is not None:
            chain_test, chain_get = layout.test, layout.get
            if layout.out is not None and chain_get is None:
                probed_names = None  # chain.apply reports the missing attribute
        residual, natural, new, counters = plan.residual, plan.natural, Row.new, self.counters
        names = None
        for dr, dn in drive.items():
            dv = dr._values
            if dr._names is not names:
                names = dr._names
                key = key_for(names)
                out = get = test = None
                if probed_names is not None:
                    out, get = _join_map(plan, output, names, probed_names)
                    if residual is not None and get is not None:
                        test = residual.at(*((probed_names, names) if probing_left else (names, probed_names)))
            values = key(dv)
            if chain is not None:  # a persistent index: None is a contradiction
                if values is None:
                    continue
                counters.index_probes += 1
            bucket = buckets.get(values)
            if not bucket:
                continue
            for br, bn in bucket.items():
                if get is None:  # the Row methods, pair by pair
                    other = br if chain is None else chain.apply(br, layout)
                    if other is None or residual is not None and not (
                        residual(other, dr) if probing_left else residual(dr, other)
                    ):
                        continue
                    counts[_merged(dr, other, natural, output)] += dn * bn
                    continue
                bv = br._values
                if chain_test is not None and not chain_test(bv):
                    continue
                ov = bv if chain_get is None else chain_get(bv)
                if test is not None and not (test(ov, dv) if probing_left else test(dv, ov)):
                    continue
                counts[new(Row, (out, get(dv + ov)))] += dn * bn
        return dict(counts)

    def _range_probe(self, drive: Dict[Row, int], spec: RangeSpec, rel: Relation, plan: JoinPlan,
                     probing_left: bool, output: Optional[JoinOutput]) -> Dict[Row, int]:
        """The ordered join loop: per drive row, the buckets of the keys its
        bound bisects need only ``spec.rest``; the unordered bucket — every
        bucket, for a bound that is not a finite number — the whole residual."""
        layout = spec.chain.outmap_over(rel.schema)
        chain_test, chain_get = layout.test, layout.get
        probed = rel.schema.row_names if layout.out is None else layout.out
        buckets, order = rel.index_buckets(spec.index_keys), rel.index_order(spec.index_keys)
        unordered = buckets.get(None)
        upper, strict = spec.op[0] == "<", spec.op in ("<", ">")  # keys k op bound
        counts: Dict[Row, int] = defaultdict(int)
        new, names = Row.new, None
        for dr, dn in drive.items():
            dv = dr._values
            if dr._names is not names:
                names = dr._names
                bound_of = spec.drive.at(names)
                out, get = _join_map(plan, output, names, probed)
                pair = (probed, names) if probing_left else (names, probed)
                full = plan.residual.at(*pair)
                rest = None if spec.rest is None else spec.rest.at(*pair)
            self.counters.index_probes += 1
            try:
                bound = bound_of(dv)
            except Exception:  # the whole residual raises it again, pair by pair
                bound = None
            if finite_number(bound):
                edge = (bound, strict)
                keys = key_slice(order, None, edge) if upper else key_slice(order, edge, None)
                found = [(buckets[k], rest) for k in keys]
                if unordered:
                    found.append((unordered, full))
            else:
                found = [(bucket, full) for bucket in buckets.values()]
            for bucket, test in found:
                for br, bn in bucket.items():
                    bv = br._values
                    if chain_test is not None and not chain_test(bv):
                        continue
                    ov = bv if chain_get is None else chain_get(bv)
                    if test is not None and not (test(ov, dv) if probing_left else test(dv, ov)):
                        continue
                    # get None: a step projects what the rows lack (reported)
                    merged = new(Row, (out, get(dv + ov))) if get else _merged(
                        dr, new(Row, (probed, ov)), False, output)
                    counts[merged] += dn * bn
        return dict(counts)

    def _eval_union(self, expr: Union) -> Dict[Row, int]:
        counts: Dict[Row, int] = defaultdict(int)
        for side in (expr.left, expr.right):
            for r, n in self._eval(side).items():
                counts[r] += n
        return dict(counts)

    def _eval_difference(self, expr: Difference) -> Dict[Row, int]:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        return {r: 1 for r in left if r not in right}

    def _eval_rename(self, expr: Rename) -> Dict[Row, int]:
        child = self._eval(expr.child)
        mapping = expr.mapping_dict
        counts: Dict[Row, int] = defaultdict(int)
        for r, n in child.items():
            counts[r.rename(mapping)] += n
        return dict(counts)


def evaluate(
    expr: Expression,
    catalog: Mapping[str, Relation],
    name: str = "result",
    counters: Optional[EvalCounters] = None,
    schemas: Optional[Mapping[str, RelationSchema]] = None,
) -> Relation:
    """One-shot evaluation: see :class:`Evaluator`."""
    return Evaluator(catalog, schemas=schemas, counters=counters).evaluate(expr, name)
