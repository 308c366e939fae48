"""Update-propagation rules, one per VDP edge (Section 5.2).

For a bag node ``T = π_p σ_f (π_{p1} σ_{f1} R_1 ⋈ … ⋈ π_{pn} σ_{fn} R_n)``
the rule for edge ``(T, R_i)`` computes (bag semantics)::

    ΔT = π_p σ_f (… ⋈ π_{pi} σ_{fi} ΔR_i ⋈ …)

with the *other* operands read from their **current repositories**.  Because
the IUP applies a node's accumulated delta to its repository only after
firing its out-edge rules, and processes nodes children-first, siblings
processed earlier are read in their new state and later ones in their old
state — which is exactly the correction of Example 6.1
(``ΔT = (R' ⋈ ΔS') ∪ (ΔR' ⋈ apply(S', ΔS'))``): no ``ΔR ⋈ ΔS`` cross-term
is missed and none is double-counted.

For a set node ``T = L − R`` the paper gives::

    on ΔR_1:  (ΔT)+ = (ΔR_1)+ − R_2        (ΔT)− = (ΔR_1)− − R_2
    on ΔR_2:  (ΔT)+ = (ΔR_2)− ∩ R_1        (ΔT)− = (ΔR_2)+ ∩ R_1

(The paper's text prints the first rule's deletion case with ``∩``; that is
a typo — a row leaving ``R_1`` leaves ``T`` only if it is *not* in ``R_2``,
i.e. set-minus.  The reproduction implements the corrected rule and the
test suite pins the counterexample.)

Deltas carry signed counts; the linear operators (select,
project, join, union) distribute over them, so a rule evaluates the
definition once with the delta's positive part and once with its negative
part and combines the results with signs.  A child appearing *k* times in a
definition (self-join; the paper's footnote 2) contributes *k* occurrence
terms, with earlier occurrences read post-update and later ones pre-update.

**Compiled rules.**  Everything about a rule that does not depend on the
data is resolved once, at rule construction, by :class:`CompiledSPJ`: the
rewritten delta expressions per occurrence and sign, the per-relation
renamed schemas, the per-join plans (equi-key extraction, compiled residual
predicates, index probe specs — see :func:`repro.relalg.plan_join`) and the
fused select/project/rename chains with their compiled selections
(:func:`repro.relalg.compile_scan_chain`).  A ``fire()`` then only splits
the delta, extends the catalog, and evaluates the precompiled terms —
compiling nothing, and probing the
persistent join indexes that :class:`~repro.core.local_store.LocalStore`
maintains on sibling repositories, so steady-state propagation work scales
with |delta|, not |database|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.deltas import Delta
from repro.errors import VDPError
from repro.relalg import (
    BagRelation,
    Difference,
    EvalCounters,
    Evaluator,
    Expression,
    Join,
    JoinPlan,
    ProbeSpec,
    Project,
    Relation,
    Rename,
    RelationSchema,
    Scan,
    ScanChain,
    Select,
    SetRelation,
    Union,
    compile_scan_chain,
    plan_join,
    plan_node,
)
from repro.relalg.tuples import Row

__all__ = [
    "DELTA_ALIAS_PREFIX",
    "CompiledSPJ",
    "spj_delta",
    "BagNodeRule",
    "SetNodeRule",
    "build_rule",
]

#: All synthetic catalog names introduced by rule rewriting share this
#: prefix; they never have persistent indexes and are excluded from
#: index-requirement collection.
DELTA_ALIAS_PREFIX = "__"


def _count_occurrences(expr: Expression, name: str) -> int:
    if isinstance(expr, Scan):
        return 1 if expr.name == name else 0
    return sum(_count_occurrences(c, name) for c in expr.children())


def _replace_occurrences(
    expr: Expression, name: str, replacements: List[str], counter: List[int]
) -> Expression:
    """Rebuild ``expr`` with the k-th Scan(name) replaced by Scan(replacements[k])."""
    if isinstance(expr, Scan):
        if expr.name == name:
            idx = counter[0]
            counter[0] += 1
            return Scan(replacements[idx])
        return expr
    if isinstance(expr, Select):
        return Select(_replace_occurrences(expr.child, name, replacements, counter), expr.predicate)
    if isinstance(expr, Project):
        return Project(_replace_occurrences(expr.child, name, replacements, counter), expr.attrs, expr.dedup)
    if isinstance(expr, Rename):
        return Rename(_replace_occurrences(expr.child, name, replacements, counter), expr.mapping_dict)
    if isinstance(expr, Join):
        left = _replace_occurrences(expr.left, name, replacements, counter)
        right = _replace_occurrences(expr.right, name, replacements, counter)
        return Join(left, right, expr.condition)
    if isinstance(expr, Union):
        left = _replace_occurrences(expr.left, name, replacements, counter)
        right = _replace_occurrences(expr.right, name, replacements, counter)
        return Union(left, right)
    if isinstance(expr, Difference):
        left = _replace_occurrences(expr.left, name, replacements, counter)
        right = _replace_occurrences(expr.right, name, replacements, counter)
        return Difference(left, right)
    raise VDPError(f"unsupported node in rule rewriting: {type(expr).__name__}")


def _delta_parts(
    delta: Delta, relation: str, schema: RelationSchema
) -> Tuple[BagRelation, BagRelation]:
    """Split a delta into positive and negative part bags."""
    pos: Dict[Row, int] = {}
    neg: Dict[Row, int] = {}
    for r, n in delta.atoms_for(relation):
        if n > 0:
            pos[r] = n
        else:
            neg[r] = -n
    return BagRelation(schema, pos), BagRelation(schema, neg)


class CompiledSPJ:
    """One SPJ part of a rule, fully resolved for Δ-evaluation wrt one child.

    Construction precomputes:

    * the rewritten expression for every (occurrence, sign) combination —
      the synthetic scan names (``__dpos__c`` …) depend only on the child's
      name, so the whole term set is static;
    * the renamed-schema catalog the evaluator needs, when node ``schemas``
      are supplied (the rulebase supplies the VDP's); otherwise schemas are
      captured from the first catalog seen and cached;
    * one :class:`~repro.relalg.JoinPlan` per join in every term, including
      the probe specs that let the evaluator answer a sibling side from a
      persistent index, and one :class:`~repro.relalg.ScanChain` per
      select/project/rename stack over a scan.

    ``delta()`` is then a pure per-delta computation.
    """

    def __init__(
        self,
        part: Expression,
        parent: str,
        child: str,
        child_schema: RelationSchema,
        schemas: Optional[Mapping[str, RelationSchema]] = None,
    ):
        self.part = part
        self.parent = parent
        self.child = child
        self.child_schema = child_schema
        self.occurrences = _count_occurrences(part, child)
        if self.occurrences == 0:
            raise VDPError(f"definition of {parent!r} does not reference {child!r}")

        self.pos_name = f"{DELTA_ALIAS_PREFIX}dpos{DELTA_ALIAS_PREFIX}{child}"
        self.neg_name = f"{DELTA_ALIAS_PREFIX}dneg{DELTA_ALIAS_PREFIX}{child}"
        self.new_name = f"{DELTA_ALIAS_PREFIX}new{DELTA_ALIAS_PREFIX}{child}"

        # Static term set: for occurrence k, earlier occurrences read the
        # post-update child, later ones the pre-update child.
        self.terms: List[Tuple[Expression, int]] = []
        for occ in range(self.occurrences):
            for delta_name, sign in ((self.pos_name, +1), (self.neg_name, -1)):
                replacements = [
                    self.new_name if k < occ else (delta_name if k == occ else child)
                    for k in range(self.occurrences)
                ]
                rewritten = _replace_occurrences(part, child, replacements, [0])
                self.terms.append((rewritten, sign))

        self._alias_schemas = {
            alias: child_schema.rename_relation(alias)
            for alias in (self.pos_name, self.neg_name, self.new_name)
        }
        self._schemas: Dict[str, RelationSchema] = dict(self._alias_schemas)
        self._plans: Optional[Dict[int, object]] = None
        if schemas is not None:
            for name in part.relation_names():
                self._schemas[name] = schemas[name].rename_relation(name)
            self._schemas[child] = child_schema.rename_relation(child)
            self._compile_plans()

    # ------------------------------------------------------------------
    def _compile_plans(self) -> None:
        """Plan every node the evaluator would otherwise plan per fire: a
        JoinPlan per join, a ScanChain (or None) per chain candidate."""
        plans = self._plans = {}
        pending = [rewritten for rewritten, _ in self.terms]
        while pending:
            expr = pending.pop()
            if isinstance(expr, Join):
                plans[id(expr)] = plan_join(expr, self._schemas)
            elif not isinstance(expr, (Union, Difference)):
                plan = plans[id(expr)] = plan_node(expr, self._schemas)
                if isinstance(plan, ScanChain):
                    continue
                if isinstance(expr, Select):  # evaluated outside a chain: warm it here
                    names = expr.child.infer_schema(self._schemas).row_names
                    expr.predicate.compiled_test().at(names)
            pending.extend(expr.children())

    def _schemas_for(self, extended: Mapping[str, Relation]) -> Mapping[str, RelationSchema]:
        """The renamed-schema catalog; lazily completed from ``extended``.

        Completion is copy-on-write: a mapping already handed to an
        evaluator is never mutated under it.  (Eagerly compiled rules
        never take this path — every name is already resolved at
        construction.)
        """
        missing = {
            name: rel.schema.rename_relation(name)
            for name, rel in extended.items()
            if name not in self._schemas
        }
        if missing:
            self._schemas = {**self._schemas, **missing}
        return self._schemas

    def index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Relations (and index keys) this part's joins can probe: key
        tuples for hash probes, :class:`~repro.relalg.OrderedKey` terms for
        ordered ones.

        Synthetic delta aliases are excluded: only siblings read from
        repositories or temporaries benefit from persistent indexes.
        """
        out: Dict[str, Set[Tuple[str, ...]]] = {}
        for plan in (self._plans or {}).values():
            if not isinstance(plan, JoinPlan):
                continue
            for spec in (plan.left_probe, plan.right_probe, plan.left_range, plan.right_range):
                if spec is None or spec.base.startswith(DELTA_ALIAS_PREFIX):
                    continue
                out.setdefault(spec.base, set()).add(spec.index_keys)
        return out

    # ------------------------------------------------------------------
    def delta(
        self,
        child_delta: Delta,
        catalog: Mapping[str, Relation],
        counters: Optional[EvalCounters] = None,
    ) -> Delta:
        """The incremental update to ``parent`` induced by ``child_delta``.

        ``catalog`` must resolve every *other* relation referenced by the
        part (siblings read their current repositories or temporary
        relations), and — for self-joins — the child itself.
        """
        pos, neg = _delta_parts(child_delta, self.child, self.child_schema)
        extended: Dict[str, Relation] = dict(catalog)
        extended[self.pos_name] = pos
        extended[self.neg_name] = neg
        if self.occurrences > 1:
            new_rel = catalog[self.child].copy()
            child_delta.apply_to(new_rel, self.child)
            extended[self.new_name] = new_rel

        schemas = self._schemas_for(extended)
        if self._plans is None:
            self._compile_plans()

        result = Delta()
        evaluator = Evaluator(extended, schemas=schemas, counters=counters, plans=self._plans)
        for rewritten, sign in self.terms:
            contribution = evaluator.evaluate(rewritten, self.parent)
            for r, n in contribution.items():
                result.add(self.parent, r, sign * n)
        return result


def spj_delta(
    definition: Expression,
    parent: str,
    child: str,
    child_delta: Delta,
    catalog: Mapping[str, Relation],
    child_schema: RelationSchema,
    counters: Optional[EvalCounters] = None,
) -> Delta:
    """One-shot form of :meth:`CompiledSPJ.delta` (compiles, fires, discards).

    Kept for callers outside the rulebase (compensation, tests); the hot
    path goes through rules' precompiled :class:`CompiledSPJ` instances.
    """
    compiled = CompiledSPJ(definition, parent, child, child_schema)
    return compiled.delta(child_delta, catalog, counters)


def _operand_for_child(definition: Difference, child: str) -> List[Tuple[str, Expression, Expression]]:
    """The sides of a difference referencing ``child``: (side, operand, other)."""
    sides = []
    if child in definition.left.relation_names():
        sides.append(("left", definition.left, definition.right))
    if child in definition.right.relation_names():
        sides.append(("right", definition.right, definition.left))
    if not sides:
        raise VDPError(f"difference definition does not reference {child!r}")
    return sides


def _support_transitions(
    count_before: Callable[[Row], int], delta_bag: Delta
) -> Tuple[List[Row], List[Row]]:
    """0↔positive multiplicity transitions of an operand's support.

    ``count_before`` answers a row's pre-update operand multiplicity — an
    index probe on the O(delta) path, a lookup in the evaluated operand
    on the fallback.
    """
    entering: List[Row] = []
    leaving: List[Row] = []
    for r, n in delta_bag.atoms_for("operand"):
        before = count_before(r)
        after = before + n
        if after < 0:
            raise VDPError(f"operand multiplicity went negative for row {dict(r)}")
        if before == 0 and after > 0:
            entering.append(r)
        elif before > 0 and after == 0:
            leaving.append(r)
    return entering, leaving


@dataclass
class BagNodeRule:
    """Rule for an edge into a bag node (SPJ or union).

    Construction precompiles one :class:`CompiledSPJ` per relevant part
    (for a top-level union, only the operand chains that reference the
    child — substituting into the full union would wrongly re-emit the
    other operand in its entirety).
    """

    parent: str
    child: str
    definition: Expression
    child_schema: RelationSchema
    schemas: Optional[Mapping[str, RelationSchema]] = None

    def __post_init__(self) -> None:
        parts = self._relevant_parts()
        self._compiled: List[CompiledSPJ] = [
            CompiledSPJ(part, self.parent, self.child, self.child_schema, self.schemas)
            for part in parts
        ]
        names = set().union(*(part.relation_names() for part in parts))
        if self.is_linear:
            names.discard(self.child)  # a self-join also reads the child
        self._siblings = tuple(sorted(names))

    def fire(
        self,
        child_delta: Delta,
        catalog: Mapping[str, Relation],
        counters: Optional[EvalCounters] = None,
    ) -> Delta:
        """Compute the parent's delta for this child's delta."""
        result, *others = (part.delta(child_delta, catalog, counters) for part in self._compiled)
        for other in others:
            result.absorb(other)
        return result

    @property
    def is_linear(self) -> bool:
        """True when ``fire`` is linear in the child delta (no self-join).

        With every compiled part referencing the child exactly once, the
        delta computation distributes over sub-deltas fired against the
        same sibling states — the property delta provenance relies on to
        attribute a joint firing exactly to per-origin sub-firings.
        """
        return all(compiled.occurrences == 1 for compiled in self._compiled)

    def _relevant_parts(self) -> List[Expression]:
        if isinstance(self.definition, Union):
            return [
                side
                for side in (self.definition.left, self.definition.right)
                if self.child in side.relation_names()
            ]
        return [self.definition]

    def sibling_names(self) -> Tuple[str, ...]:
        """Relations (other than the delta itself) the rule must read."""
        return self._siblings

    def index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Relations this rule's compiled joins can probe, with key tuples."""
        out: Dict[str, Set[Tuple[str, ...]]] = {}
        for compiled in self._compiled:
            for base, keysets in compiled.index_requirements().items():
                out.setdefault(base, set()).update(keysets)
        return out

    def probe_index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Bag rules have no support-probe fast path — nothing to declare."""
        return {}


@dataclass
class SetNodeRule:
    """Rule for an edge into a set (difference) node.

    Construction hoists everything per-fire work used to rebuild: the
    renamed-schema catalog, the per-side operand :class:`CompiledSPJ`
    instances, and the old-operand/other-side expressions.  When both
    operands of a side are select/project/rename chains, a pair of
    :class:`~repro.relalg.ProbeSpec` is compiled as well — the support count
    of one operand-output row is then answered by probing the base
    relation's bucket for that row's values and re-applying the chain, with
    no full operand re-evaluation; ``fire`` uses it whenever the catalog relations
    carry the matching indexes (declared through
    :meth:`probe_index_requirements`), replacing the two full operand
    evaluations per firing with per-delta-row index probes.
    """

    parent: str
    child: str
    definition: Difference
    child_schema: RelationSchema
    schemas: Optional[Mapping[str, RelationSchema]] = None

    def __post_init__(self) -> None:
        self._siblings = tuple(sorted(self.definition.relation_names()))
        self._sides = _operand_for_child(self.definition, self.child)
        self._compiled: List[CompiledSPJ] = [
            CompiledSPJ(operand, "operand", self.child, self.child_schema, self.schemas)
            for _, operand, _ in self._sides
        ]
        self._eval_schemas: Dict[str, RelationSchema] = {}
        if self.schemas is not None:
            for name in self.definition.relation_names():
                self._eval_schemas[name] = self.schemas[name].rename_relation(name)
            self._eval_schemas[self.child] = self.child_schema.rename_relation(self.child)
        self._probe_plans: List[Tuple[Optional[ProbeSpec], Optional[ProbeSpec]]] = [
            (self._probe_plan(operand), self._probe_plan(other))
            for _, operand, other in self._sides
        ]

    def _probe_plan(self, expr: Expression) -> Optional[ProbeSpec]:
        if not self._eval_schemas:
            return None  # lazily-compiled rule: no schemas to trace through
        chain = compile_scan_chain(expr, self._eval_schemas)
        if chain is None or chain.base.startswith(DELTA_ALIAS_PREFIX):
            return None
        return ProbeSpec.over(chain, tuple(chain.outmap.items()))

    def _schemas_for(self, catalog: Mapping[str, Relation]) -> Dict[str, RelationSchema]:
        for name, rel in catalog.items():
            if name not in self._eval_schemas:
                self._eval_schemas[name] = rel.schema.rename_relation(name)
        if self.child not in self._eval_schemas:
            self._eval_schemas[self.child] = self.child_schema.rename_relation(self.child)
        return self._eval_schemas

    def fire(
        self,
        child_delta: Delta,
        catalog: Mapping[str, Relation],
        counters: Optional[EvalCounters] = None,
    ) -> Delta:
        """Compute the parent's ±1 delta for this child's delta.

        Applies the (corrected) diff1 rule when the child feeds the left
        operand and the diff2 rule when it feeds the right operand; a child
        feeding both sides fires both parts sequentially.
        """
        atoms: Dict[Row, int] = {}  # the later atom wins, as in a smash
        evaluator: Optional[Evaluator] = None
        for (side, operand, other), compiled, (op_plan, other_plan) in zip(
            self._sides, self._compiled, self._probe_plans
        ):
            op_rel = None if op_plan is None else op_plan.target(catalog)
            other_rel = None if other_plan is None else other_plan.target(catalog)
            if op_rel is not None and other_rel is not None:
                # Probe path: support counts answered from persistent
                # indexes, touching only base rows matching the delta rows.
                delta_bag = compiled.delta(child_delta, catalog, counters)
                entering, leaving = _support_transitions(
                    lambda r: self._probe_count(op_plan, op_rel, r, counters),
                    delta_bag,
                )

                def in_other(r: Row, _p=other_plan, _rel=other_rel) -> bool:
                    return self._probe_count(_p, _rel, r, counters) > 0

            else:
                if evaluator is None:
                    evaluator = Evaluator(
                        catalog, schemas=self._schemas_for(catalog), counters=counters
                    )
                old_bag = evaluator.evaluate(operand, "operand_old")
                delta_bag = compiled.delta(child_delta, catalog, counters)
                entering, leaving = _support_transitions(old_bag.count, delta_bag)
                other_support = evaluator.evaluate(other, "other").support()

                def in_other(r: Row, _s=other_support) -> bool:
                    return r in _s

            # diff1 (corrected): rows entering L join T unless in R; rows
            # leaving L leave T unless shadowed by R already.  diff2: rows
            # entering R evict L-rows from T; rows leaving R re-admit them.
            left = side == "left"
            for rows, sign in ((entering, 1), (leaving, -1)):
                for r in rows:
                    if in_other(r) != left:
                        atoms[r] = sign if left else -sign
        return Delta.from_counts(self.parent, atoms)

    # ------------------------------------------------------------------
    # Probe fast path
    # ------------------------------------------------------------------
    def _probe_count(
        self,
        plan: ProbeSpec,
        rel: Relation,
        row: Row,
        counters: Optional[EvalCounters],
    ) -> int:
        """The operand-support multiplicity of ``row``, via one index probe."""
        probe = plan.key_for(row)
        if probe is None:
            return 0  # two output attrs demand different base values
        if counters is not None:
            counters.index_probes += 1
        outmap = plan.chain.outmap_over(rel.schema)
        total = 0
        for br, bn in rel.index_lookup(plan.index_keys, probe):
            if plan.chain.apply(br, outmap) == row:
                total += bn
        return total

    @property
    def is_linear(self) -> bool:
        """Difference rules are support-transition based — never linear in
        the child delta, so provenance treats their parents as approximate."""
        return False

    def sibling_names(self) -> Tuple[str, ...]:
        """Relations the rule must read besides the incoming delta."""
        return self._siblings

    def index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Relations this rule's compiled joins can probe, with key tuples."""
        out: Dict[str, Set[Tuple[str, ...]]] = {}
        for compiled in self._compiled:
            for base, keysets in compiled.index_requirements().items():
                out.setdefault(base, set()).update(keysets)
        return out

    def probe_index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Support-probe indexes the fast path can use, keyed by base name."""
        out: Dict[str, Set[Tuple[str, ...]]] = {}
        for op_plan, other_plan in self._probe_plans:
            if op_plan is None or other_plan is None:
                continue  # fire() needs both sides probe-able to switch paths
            for plan in (op_plan, other_plan):
                out.setdefault(plan.base, set()).add(plan.index_keys)
        return out


def build_rule(
    parent: str,
    definition: Expression,
    child: str,
    child_schema: RelationSchema,
    schemas: Optional[Mapping[str, RelationSchema]] = None,
):
    """Construct the edge rule for ``(parent, child)`` from the node kind.

    ``schemas`` (node name → schema, e.g. ``vdp.schemas()``) enables eager
    compilation — renamed schemas and join plans resolved here instead of
    on first fire.  Without it the rule compiles its expressions eagerly
    and captures schemas lazily from the first catalog it sees.
    """
    if isinstance(definition, Difference):
        return SetNodeRule(parent, child, definition, child_schema, schemas)
    return BagNodeRule(parent, child, definition, child_schema, schemas)
