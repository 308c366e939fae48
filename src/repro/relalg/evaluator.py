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
``rows_scanned`` still counts every base row read.

Joins are executed as hash joins on whatever equality conjuncts can be
extracted from the condition (see
:func:`repro.relalg.predicates.equi_join_pairs`), with the residual condition
compiled over the operand-row *pair* and tested before the pair is merged —
so Figure 4's arithmetic join condition ``a1^2 + a2 < b2^2`` degrades
gracefully to a filtered cross product while ``r2 = s1`` runs in linear
time.

Two layers of pre-computation keep the hot path (incremental rule firing)
proportional to delta size rather than database size:

* **Plans** (:func:`plan_join`, :func:`compile_scan_chain`) — everything
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

An optional :class:`EvalCounters` records rows scanned/hashed/produced,
index probes and index (re)builds; benchmarks and tests use it to assert
work done — not just wall-clock — by competing strategies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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
from repro.relalg.predicates import Predicate, compile_test, conjoin, equi_join_pairs
from repro.relalg.relation import BagRelation, Relation, SetRelation
from repro.relalg.schema import RelationSchema
from repro.relalg.tuples import Row

__all__ = [
    "evaluate",
    "EvalCounters",
    "Evaluator",
    "ScanChain",
    "ProbeSpec",
    "JoinPlan",
    "compile_scan_chain",
    "plan_join",
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
def _out_row(base_row: Row, outmap: Mapping[str, str]) -> Row:
    data = base_row._data
    try:
        return Row({out: data[base] for out, base in outmap.items()})
    except KeyError as exc:
        raise SchemaError(f"row {base_row!r} has no attribute {exc.args[0]!r}") from exc


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
    test: Optional[Callable[[Mapping[str, Any]], bool]]
    outmap: Mapping[str, str]
    #: False when no projection narrows the chain: ``outmap`` then lists the
    #: *declared* base attributes, and rows of a narrower stand-in (a hybrid
    #: repository, a VAP temporary) pass through with the ones they have.
    projected: bool
    #: The output attribute names when nothing is renamed, else None.
    plain: Optional[FrozenSet[str]]

    def outmap_over(self, schema: RelationSchema) -> Optional[Mapping[str, str]]:
        """``outmap`` for rows of ``schema``; None when output rows *are* the
        base rows (no rename, no narrowing), so none need building."""
        have = schema.attribute_set
        if self.plain == have:
            return None
        if self.projected:
            return self.outmap
        if self.plain is not None:
            return None
        return {out: base for out, base in self.outmap.items() if base in have}

    def apply(self, base_row: Row, outmap: Optional[Mapping[str, str]]) -> Optional[Row]:
        """One base row through the chain (``outmap`` from :meth:`outmap_over`
        its relation); None when a select rejects it."""
        if self.test is not None and not self.test(base_row._data):
            return None
        return base_row if outmap is None else _out_row(base_row, outmap)


def compile_scan_chain(
    expr: Expression, schemas: Mapping[str, RelationSchema]
) -> Optional[ScanChain]:
    """Normalise ``expr`` into a :class:`ScanChain` if it has that shape.

    Returns None for anything else — including a stack that is not
    well-formed (a select, project or rename naming an attribute not
    visible at that point), which the operator-at-a-time path then rejects
    with its usual errors.
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
    test = None
    if selects:
        test = (selects[0] if len(selects) == 1 else conjoin(*selects)).compiled()
    return ScanChain(node.name, test, visible, projected, plain)


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

    @classmethod
    def over(cls, chain: ScanChain, constraints: Tuple[Tuple[str, str], ...]) -> "ProbeSpec":
        """The spec probing ``chain``'s base on exactly the constrained attributes."""
        index_keys = tuple(sorted({base for _, base in constraints}))
        return cls(chain.base, chain, index_keys, constraints)

    def target(self, catalog: Mapping[str, Relation]) -> Optional[Relation]:
        """The base relation, iff it carries the index this spec probes."""
        rel = catalog.get(self.base)
        return rel if rel is not None and rel.has_index(self.index_keys) else None

    def key_for(self, drive_row: Mapping[str, Any]) -> Optional[Tuple[Any, ...]]:
        """The index key ``drive_row`` probes with; None when two of its
        attributes demand different values of one base attribute."""
        by_base: Dict[str, Any] = {}
        for drive_attr, base_attr in self.constraints:
            v = drive_row[drive_attr]
            if by_base.setdefault(base_attr, v) != v:
                return None
        return tuple(by_base[k] for k in self.index_keys)


def _probe_spec(
    side_expr: Expression,
    side_keys: List[str],
    drive_keys: List[str],
    schemas: Mapping[str, RelationSchema],
) -> Optional[ProbeSpec]:
    chain = compile_scan_chain(side_expr, schemas)
    if chain is None or not side_keys:
        return None
    # side_keys are output attributes of the side, so outmap holds each.
    pairs = zip(drive_keys, side_keys)
    return ProbeSpec.over(chain, tuple((drive, chain.outmap[out]) for drive, out in pairs))


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
    residual: Optional[Callable[[Mapping[str, Any], Mapping[str, Any]], bool]]
    left_probe: Optional[ProbeSpec]  # probe the LEFT side, drive from right
    right_probe: Optional[ProbeSpec]  # probe the RIGHT side, drive from left


def plan_join(expr: Join, schemas: Mapping[str, RelationSchema]) -> JoinPlan:
    """Resolve schemas, equi pairs, residual and probe specs for one join."""
    left_attrs = expr.left.infer_schema(schemas, "join_l").attribute_set
    right_attrs = expr.right.infer_schema(schemas, "join_r").attribute_set
    residual = None
    if expr.condition is None:
        left_keys = right_keys = sorted(left_attrs & right_attrs)
    else:
        pairs, rest = equi_join_pairs(expr.condition, left_attrs, right_attrs)
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        if rest is not None:
            residual = compile_test(rest, right_attrs)
    return JoinPlan(
        natural=expr.condition is None,
        left_keys=tuple(left_keys),
        right_keys=tuple(right_keys),
        residual=residual,
        left_probe=_probe_spec(expr.left, left_keys, right_keys, schemas),
        right_probe=_probe_spec(expr.right, right_keys, left_keys, schemas),
    )


class Evaluator:
    """Evaluates expressions against a catalog ``{name: Relation}``."""

    def __init__(
        self,
        catalog: Mapping[str, Relation],
        schemas: Optional[Mapping[str, RelationSchema]] = None,
        counters: Optional[EvalCounters] = None,
        plans: Optional[Mapping[int, Any]] = None,
    ):
        self.catalog = catalog
        self.schemas = schemas or {name: rel.schema for name, rel in catalog.items()}
        self.counters = counters if counters is not None else EvalCounters()
        # A JoinPlan per Join node, a ScanChain (or None: not a chain) per
        # other node, keyed by id of the node.  A CompiledSPJ passes in what
        # it precompiled (ids stable because the compiled rule retains the
        # expressions); anything else is planned on first visit and cached
        # per evaluator instance, the cache pinning each node so a collected
        # expression can never alias a cached id.
        self._plans: Dict[int, Any] = dict(plans) if plans else {}
        self._plan_pins: Dict[int, Expression] = {}

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
    # operators like select may filter their child in place.
    # ------------------------------------------------------------------
    def _planned(self, expr: Expression, build: Callable[..., Any]) -> Any:
        key = id(expr)
        if key not in self._plans:
            self._plans[key] = build(expr, self.schemas)
            self._plan_pins[key] = expr
        return self._plans[key]

    def _eval(self, expr: Expression) -> Dict[Row, int]:
        if isinstance(expr, Join):
            return self._eval_join(expr)
        if isinstance(expr, Union):
            return self._eval_union(expr)
        if isinstance(expr, Difference):
            return self._eval_difference(expr)
        chain = self._planned(expr, compile_scan_chain)
        if chain is not None:
            return self._eval_chain(chain)
        if isinstance(expr, Select):
            return self._eval_select(expr)
        if isinstance(expr, Project):
            return self._eval_project(expr)
        if isinstance(expr, Rename):
            return self._eval_rename(expr)
        raise EvaluationError(f"unknown expression node {type(expr).__name__}")

    def _eval_chain(self, chain: ScanChain) -> Dict[Row, int]:
        """The fused pass: one loop over the stored relation."""
        try:
            rel = self.catalog[chain.base]
        except KeyError as exc:
            raise EvaluationError(f"relation {chain.base!r} not in catalog") from exc
        self.counters.rows_scanned += rel.cardinality()
        test = chain.test
        outmap = chain.outmap_over(rel.schema)
        if outmap is None:
            if test is None:
                return dict(rel.items())
            return {r: n for r, n in rel.items() if test(r._data)}
        counts: Dict[Row, int] = defaultdict(int)
        for r, n in rel.items():
            if test is None or test(r._data):
                counts[_out_row(r, outmap)] += n
        return dict(counts)

    def _eval_select(self, expr: Select) -> Dict[Row, int]:
        child = self._eval(expr.child)
        # Not a chain, so the child dict is owned by this evaluation: filter
        # it in place instead of copying every surviving entry.
        test = expr.predicate.compiled()
        doomed = [r for r in child if not test(r._data)]
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
    def _eval_join(self, expr: Join) -> Dict[Row, int]:
        self.counters.joins_executed += 1
        plan: JoinPlan = self._planned(expr, plan_join)

        if plan.natural and not plan.left_keys:
            raise EvaluationError("natural join with no shared attributes")

        # Indexed execution: probe a persistently indexed side per drive
        # row.  When both sides are indexed, probe the bigger one (driving
        # from the smaller costs fewer probes).
        probe = self._pick_probe(expr, plan)
        if probe is not None:
            side, spec, rel = probe
            drive = self._eval(expr.right if side == "left" else expr.left)
            return self._indexed_join(drive, spec, rel, plan, side == "left")

        left = self._eval(expr.left)
        right = self._eval(expr.right)
        residual = plan.residual
        counts: Dict[Row, int] = defaultdict(int)
        if not plan.left_keys:
            # Pure theta join: filtered cross product; only survivors merge.
            for lr, ln in left.items():
                for rr, rn in right.items():
                    if residual is None or residual(lr._data, rr._data):
                        counts[lr.merge(rr)] += ln * rn
            return dict(counts)
        index: Dict[Tuple[Any, ...], List[Tuple[Row, int]]] = defaultdict(list)
        for rr, rn in right.items():
            index[rr.values_for(plan.right_keys)].append((rr, rn))
            self.counters.rows_hashed += 1
        merge = Row.merge_natural if plan.natural else Row.merge
        for lr, ln in left.items():
            self.counters.hash_probes += 1
            for rr, rn in index.get(lr.values_for(plan.left_keys), ()):
                if residual is None or residual(lr._data, rr._data):
                    counts[merge(lr, rr)] += ln * rn
        return dict(counts)

    def _pick_probe(
        self, expr: Join, plan: JoinPlan
    ) -> Optional[Tuple[str, ProbeSpec, Relation]]:
        candidates: List[Tuple[int, str, ProbeSpec, Relation]] = []
        for side, spec in (("left", plan.left_probe), ("right", plan.right_probe)):
            rel = spec.target(self.catalog) if spec is not None else None
            if rel is not None:
                candidates.append((rel.distinct_size(), side, spec, rel))
        if not candidates:
            return None
        size, side, spec, rel = max(candidates, key=lambda t: (t[0], t[1]))
        return side, spec, rel

    def _indexed_join(
        self,
        drive: Dict[Row, int],
        spec: ProbeSpec,
        rel: Relation,
        plan: JoinPlan,
        probing_left: bool,
    ) -> Dict[Row, int]:
        counts: Dict[Row, int] = defaultdict(int)
        chain = spec.chain
        outmap = chain.outmap_over(rel.schema)
        residual = plan.residual
        for dr, dn in drive.items():
            values = spec.key_for(dr._data)
            if values is None:
                continue
            self.counters.index_probes += 1
            for br, bn in rel.index_lookup(spec.index_keys, values):
                out = chain.apply(br, outmap)
                if out is None:
                    continue
                if residual is not None and not (
                    residual(out._data, dr._data) if probing_left else residual(dr._data, out._data)
                ):
                    continue
                counts[dr.merge_natural(out) if plan.natural else dr.merge(out)] += dn * bn
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
