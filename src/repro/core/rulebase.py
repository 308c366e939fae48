"""The VDP-rulebase: one update-propagation rule per edge (Section 6.4).

A *VDP-rulebase* is a pair ``(V, edge_rule)`` where ``edge_rule`` maps each
edge of the VDP to a rule (Section 5.2 gives the SPJ and difference
instances).  Following the paper, ``edge_rule`` is extended to nodes:
``edge_rule(v)`` is the set of rules on in-edges *to* ``v``'s parents —
"all rules that propagate updates out of ``v``".

Rules are independent of annotations: the same rulebase serves any
annotation of the VDP (the paper notes this explicitly).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple, Union as TypingUnion

from repro.core.derived_from import TempRequest, child_requirements
from repro.core.rules import BagNodeRule, SetNodeRule, build_rule
from repro.core.vdp import VDP
from repro.errors import VDPError
from repro.relalg import TRUE

__all__ = ["RuleBase", "EdgeRule"]

EdgeRule = TypingUnion[BagNodeRule, SetNodeRule]


class RuleBase:
    """All edge rules of a VDP, indexed by edge and by child node.

    Construction passes the VDP's node schemas into :func:`build_rule`, so
    every rule compiles eagerly — rewritten expressions, renamed schemas and
    join plans are resolved here, once, rather than per ``fire()``.  So are
    the per-child data requirements of every full-width parent definition
    (:meth:`requirements`), which transaction preparation reads.
    """

    def __init__(self, vdp: VDP):
        self.vdp = vdp
        schemas = vdp.schemas()
        self._by_edge: Dict[Tuple[str, str], EdgeRule] = {}
        out_rules: Dict[str, List[EdgeRule]] = {name: [] for name in vdp.nodes}
        self._needs: Dict[str, Dict[str, TempRequest]] = {}
        for parent_name in vdp.non_leaves():
            parent = vdp.node(parent_name)
            self._needs[parent_name] = child_requirements(
                parent.definition, frozenset(parent.schema.attribute_names), TRUE, schemas
            )
            for child_name in vdp.children(parent_name):
                child = vdp.node(child_name)
                rule = build_rule(
                    parent_name, parent.definition, child_name, child.schema, schemas
                )
                self._by_edge[(parent_name, child_name)] = rule
                out_rules[child_name].append(rule)
        self._out_rules = {name: tuple(rules) for name, rules in out_rules.items()}
        self._index_requirements: Dict[str, Set[Tuple[str, ...]]] = {}
        for rule in self._by_edge.values():
            for declared in (rule.index_requirements(), rule.probe_index_requirements()):
                for base, keysets in declared.items():
                    self._index_requirements.setdefault(base, set()).update(keysets)

    def index_requirements(self) -> Dict[str, Set[Tuple[str, ...]]]:
        """Index declarations collected from the compiled rules.

        Maps node name → set of attribute-key tuples some rule's join plan
        or some set rule's support probe can look up.  The local store
        builds these indexes on materialized repositories (and the IUP on
        temporaries) so that firing a rule probes a persistent index
        instead of re-hashing the sibling or re-evaluating a difference
        operand.
        """
        return {base: set(keys) for base, keys in self._index_requirements.items()}

    def edge_rule(self, parent: str, child: str) -> EdgeRule:
        """The rule attached to edge ``(parent, child)``."""
        try:
            return self._by_edge[(parent, child)]
        except KeyError as exc:
            raise VDPError(f"no edge ({parent!r}, {child!r}) in the VDP") from exc

    def rules_out_of(self, node: str) -> Tuple[EdgeRule, ...]:
        """The paper's ``edge_rule(v)``: rules propagating updates out of ``v``."""
        if node not in self._out_rules:
            raise VDPError(f"no node named {node!r}")
        return self._out_rules[node]

    def requirements(self, parent: str) -> Mapping[str, TempRequest]:
        """What a rule into ``parent`` reads of each child: the full-width
        definition's ``child_requirements`` (read-only)."""
        return self._needs[parent]

    def edges(self) -> List[Tuple[str, str]]:
        """All (parent, child) edges with rules."""
        return sorted(self._by_edge)

    def __len__(self) -> int:
        return len(self._by_edge)
