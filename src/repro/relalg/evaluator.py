"""Evaluation of algebra expressions against a catalog of relations.

The evaluator is the workhorse behind three parts of the system:

* VDP node (re)computation — populating mediator relations at view-init time
  and recomputing ground truth in tests and benchmarks;
* the VAP's bottom-up construction of temporary relations (Section 6.3);
* the incremental rules of Section 5.2, which are themselves algebra
  expressions over current relations and deltas.

Joins are executed as hash joins on whatever equality conjuncts can be
extracted from the condition (see
:func:`repro.relalg.predicates.equi_join_pairs`), with the residual condition
applied as a post-filter — so Figure 4's arithmetic join condition
``a1^2 + a2 < b2^2`` degrades gracefully to a filtered cross product while
``r2 = s1`` runs in linear time.

Two layers of pre-computation keep the hot path (incremental rule firing)
proportional to delta size rather than database size:

* **Join plans** (:func:`plan_join`) — the per-join schema inference,
  equi-pair extraction, and residual splitting, resolved once.  Compiled
  rules (:mod:`repro.core.rules`) precompute plans at rulebase-construction
  time and pass them in via the ``join_plans`` argument; ad-hoc evaluations
  compute them on the fly, exactly as before.
* **Indexed probes** — when one join operand is a select/project/rename
  chain over a scanned relation that carries a *persistent* hash index on
  the join keys (see :meth:`repro.relalg.relation.Relation.ensure_index`),
  the evaluator drives the join from the other operand and probes the index
  per row instead of materializing and re-hashing the indexed relation.
  With the delta on the driving side, a rule firing costs O(|delta|) index
  probes where it used to cost a full re-hash of the sibling.

An optional :class:`EvalCounters` records rows scanned/hashed/produced,
index probes and index (re)builds; benchmarks and tests use it to assert
work done — not just wall-clock — by competing strategies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import EvaluationError
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
from repro.relalg.predicates import Predicate, equi_join_pairs
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
# Compiled join plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScanChain:
    """A select/project/rename chain over a single scanned relation.

    ``steps`` runs innermost-first (scan outward): each element is
    ``("rename", mapping)``, ``("select", predicate)`` or
    ``("project", attrs)``.  De-duplicating projections are not chains —
    their multiplicity collapse cannot be applied row-at-a-time.
    """

    base: str
    steps: Tuple[Tuple[str, Any], ...]

    def to_base(self, out_attr: str) -> Optional[str]:
        """Map a chain-output attribute name back to the base attribute."""
        name = out_attr
        for kind, payload in reversed(self.steps):
            if kind == "project":
                if name not in payload:
                    return None
            elif kind == "rename":
                inverted = None
                for old, new in payload.items():
                    if new == name:
                        inverted = old
                        break
                if inverted is not None:
                    name = inverted
                elif name in payload:
                    return None  # renamed away; not visible at the output
        return name

    def apply(self, base_row: Row) -> Optional[Row]:
        """Run the chain over one base row; None when a select rejects it."""
        r = base_row
        for kind, payload in self.steps:
            if kind == "rename":
                r = r.rename(payload)
            elif kind == "select":
                if not payload.evaluate(r):
                    return None
            else:  # project
                r = r.project(payload)
        return r


def compile_scan_chain(expr: Expression) -> Optional[ScanChain]:
    """Compile ``expr`` into a :class:`ScanChain` if it has that shape."""
    steps: List[Tuple[str, Any]] = []
    node = expr
    while not isinstance(node, Scan):
        if isinstance(node, Select):
            steps.append(("select", node.predicate))
            node = node.child
        elif isinstance(node, Project):
            if node.dedup:
                return None
            steps.append(("project", node.attrs))
            node = node.child
        elif isinstance(node, Rename):
            steps.append(("rename", node.mapping_dict))
            node = node.child
        else:
            return None
    return ScanChain(base=node.name, steps=tuple(reversed(steps)))


@dataclass(frozen=True)
class ProbeSpec:
    """How to answer one join side through a persistent index probe.

    ``constraints`` pairs each drive-side attribute with the base attribute
    it must equal; ``index_keys`` is the canonical (sorted, de-duplicated)
    base key tuple the persistent index is built on.
    """

    base: str
    chain: ScanChain
    index_keys: Tuple[str, ...]
    constraints: Tuple[Tuple[str, str], ...]


def _probe_spec(
    side_expr: Expression, side_keys: List[str], drive_keys: List[str]
) -> Optional[ProbeSpec]:
    chain = compile_scan_chain(side_expr)
    if chain is None or not side_keys:
        return None
    constraints: List[Tuple[str, str]] = []
    for drive_attr, out_attr in zip(drive_keys, side_keys):
        base_attr = chain.to_base(out_attr)
        if base_attr is None:
            return None
        constraints.append((drive_attr, base_attr))
    index_keys = tuple(sorted({base for _, base in constraints}))
    return ProbeSpec(chain.base, chain, index_keys, tuple(constraints))


@dataclass(frozen=True)
class JoinPlan:
    """Everything about one Join node that does not depend on the data."""

    natural: bool
    shared: Tuple[str, ...]  # natural joins: the shared attributes
    pairs: Tuple[Tuple[str, str], ...]  # theta joins: (left, right) equi pairs
    residual: Optional[Predicate]
    left_probe: Optional[ProbeSpec]  # probe the LEFT side, drive from right
    right_probe: Optional[ProbeSpec]  # probe the RIGHT side, drive from left
    # Pure theta joins (no equi pair): the attributes the condition reads
    # from each side, so a pair is tested before it is merged.
    theta_attrs: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())


def plan_join(expr: Join, schemas: Mapping[str, RelationSchema]) -> JoinPlan:
    """Resolve schemas, equi pairs, residual and probe specs for one join."""
    left_schema = expr.left.infer_schema(schemas, "join_l")
    right_schema = expr.right.infer_schema(schemas, "join_r")
    left_attrs = frozenset(left_schema.attribute_names)
    right_attrs = frozenset(right_schema.attribute_names)

    if expr.condition is None:
        shared = tuple(sorted(left_attrs & right_attrs))
        keys = list(shared)
        return JoinPlan(
            natural=True,
            shared=shared,
            pairs=(),
            residual=None,
            left_probe=_probe_spec(expr.left, keys, keys),
            right_probe=_probe_spec(expr.right, keys, keys),
        )

    pairs, residual = equi_join_pairs(expr.condition, left_attrs, right_attrs)
    left_keys = [p[0] for p in pairs]
    right_keys = [p[1] for p in pairs]
    needed = expr.condition.attributes()
    return JoinPlan(
        natural=False,
        shared=(),
        pairs=tuple(pairs),
        residual=residual,
        left_probe=_probe_spec(expr.left, left_keys, right_keys),
        right_probe=_probe_spec(expr.right, right_keys, left_keys),
        theta_attrs=(tuple(sorted(needed & left_attrs)), tuple(sorted(needed & right_attrs))),
    )


class Evaluator:
    """Evaluates expressions against a catalog ``{name: Relation}``."""

    def __init__(
        self,
        catalog: Mapping[str, Relation],
        schemas: Optional[Mapping[str, RelationSchema]] = None,
        counters: Optional[EvalCounters] = None,
        join_plans: Optional[Mapping[int, JoinPlan]] = None,
    ):
        self.catalog = catalog
        self.schemas = schemas or {name: rel.schema for name, rel in catalog.items()}
        self.counters = counters if counters is not None else EvalCounters()
        # Plans precompiled by a CompiledSPJ (keyed by id of the Join node,
        # stable because the compiled rule retains the expressions).  Plans
        # computed on the fly are cached per evaluator instance; the cache
        # pins each Join node so a collected expression can never alias a
        # cached id.
        self._join_plans: Dict[int, JoinPlan] = dict(join_plans) if join_plans else {}
        self._plan_pins: Dict[int, Join] = {}

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
    def _eval(self, expr: Expression) -> Dict[Row, int]:
        if isinstance(expr, Scan):
            return self._eval_scan(expr)
        if isinstance(expr, Select):
            return self._eval_select(expr)
        if isinstance(expr, Project):
            return self._eval_project(expr)
        if isinstance(expr, Join):
            return self._eval_join(expr)
        if isinstance(expr, Union):
            return self._eval_union(expr)
        if isinstance(expr, Difference):
            return self._eval_difference(expr)
        if isinstance(expr, Rename):
            return self._eval_rename(expr)
        raise EvaluationError(f"unknown expression node {type(expr).__name__}")

    def _eval_scan(self, expr: Scan) -> Dict[Row, int]:
        try:
            rel = self.catalog[expr.name]
        except KeyError as exc:
            raise EvaluationError(f"relation {expr.name!r} not in catalog") from exc
        counts: Dict[Row, int] = {}
        for r, n in rel.items():
            counts[r] = n
            self.counters.rows_scanned += n
        return counts

    def _eval_select(self, expr: Select) -> Dict[Row, int]:
        child = self._eval(expr.child)
        # The child dict is owned by this evaluation: filter it in place
        # instead of copying every surviving entry.
        predicate = expr.predicate
        doomed = [r for r in child if not predicate.evaluate(r)]
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
    def _plan(self, expr: Join) -> JoinPlan:
        plan = self._join_plans.get(id(expr))
        if plan is None:
            plan = plan_join(expr, self.schemas)
            self._join_plans[id(expr)] = plan
            self._plan_pins[id(expr)] = expr
        return plan

    def _eval_join(self, expr: Join) -> Dict[Row, int]:
        self.counters.joins_executed += 1
        plan = self._plan(expr)

        if plan.natural and not plan.shared:
            raise EvaluationError("natural join with no shared attributes")

        # Indexed execution: probe a persistently indexed side per drive
        # row.  When both sides are indexed, probe the bigger one (driving
        # from the smaller costs fewer probes).
        probe = self._pick_probe(expr, plan)
        if probe is not None:
            side, spec, rel = probe
            drive = self._eval(expr.right if side == "left" else expr.left)
            return self._indexed_join(drive, spec, rel, plan)

        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if plan.natural:
            return self._hash_join_natural(left, right, list(plan.shared))
        if plan.pairs:
            return self._hash_join_theta(left, right, list(plan.pairs), plan.residual)
        # Pure theta join: filtered cross product.  The condition is tested
        # on just the values it reads from the pair; only survivors merge.
        condition = expr.condition
        left_attrs, right_attrs = plan.theta_attrs
        right_envs = [
            (rr, rn, {a: rr[a] for a in right_attrs}) for rr, rn in right.items()
        ]
        counts: Dict[Row, int] = defaultdict(int)
        for lr, ln in left.items():
            env = {a: lr[a] for a in left_attrs}
            for rr, rn, right_env in right_envs:
                env.update(right_env)
                if condition.evaluate(env):
                    counts[lr.merge(rr)] += ln * rn
        return dict(counts)

    def _pick_probe(
        self, expr: Join, plan: JoinPlan
    ) -> Optional[Tuple[str, ProbeSpec, Relation]]:
        candidates: List[Tuple[int, str, ProbeSpec, Relation]] = []
        for side, spec in (("left", plan.left_probe), ("right", plan.right_probe)):
            if spec is None:
                continue
            rel = self.catalog.get(spec.base)
            if rel is None or not rel.has_index(spec.index_keys):
                continue
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
    ) -> Dict[Row, int]:
        counts: Dict[Row, int] = defaultdict(int)
        chain = spec.chain
        residual = plan.residual
        for dr, dn in drive.items():
            by_base: Dict[str, Any] = {}
            consistent = True
            for drive_attr, base_attr in spec.constraints:
                v = dr[drive_attr]
                if base_attr in by_base:
                    if by_base[base_attr] != v:
                        consistent = False
                        break
                else:
                    by_base[base_attr] = v
            if not consistent:
                continue
            self.counters.index_probes += 1
            values = tuple(by_base[k] for k in spec.index_keys)
            for br, bn in rel.index_lookup(spec.index_keys, values):
                out = chain.apply(br)
                if out is None:
                    continue
                merged = dr.merge_natural(out) if plan.natural else dr.merge(out)
                if residual is not None and not residual.evaluate(merged):
                    continue
                counts[merged] += dn * bn
        return dict(counts)

    def _hash_join_natural(
        self, left: Dict[Row, int], right: Dict[Row, int], shared: List[str]
    ) -> Dict[Row, int]:
        index: Dict[Tuple[Any, ...], List[Tuple[Row, int]]] = defaultdict(list)
        for rr, rn in right.items():
            index[rr.values_for(shared)].append((rr, rn))
            self.counters.rows_hashed += 1
        counts: Dict[Row, int] = defaultdict(int)
        for lr, ln in left.items():
            self.counters.hash_probes += 1
            for rr, rn in index.get(lr.values_for(shared), ()):
                counts[lr.merge_natural(rr)] += ln * rn
        return dict(counts)

    def _hash_join_theta(
        self,
        left: Dict[Row, int],
        right: Dict[Row, int],
        pairs: List[Tuple[str, str]],
        residual,
    ) -> Dict[Row, int]:
        left_keys = [p[0] for p in pairs]
        right_keys = [p[1] for p in pairs]
        index: Dict[Tuple[Any, ...], List[Tuple[Row, int]]] = defaultdict(list)
        for rr, rn in right.items():
            index[rr.values_for(right_keys)].append((rr, rn))
            self.counters.rows_hashed += 1
        counts: Dict[Row, int] = defaultdict(int)
        for lr, ln in left.items():
            self.counters.hash_probes += 1
            for rr, rn in index.get(lr.values_for(left_keys), ()):
                merged = lr.merge(rr)
                if residual is None or residual.evaluate(merged):
                    counts[merged] += ln * rn
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
