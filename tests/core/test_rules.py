"""Unit tests for the Section 5.2 update-propagation rules."""

import pytest

from repro.core.rules import (
    BagNodeRule,
    SetNodeRule,
    build_rule,
    spj_delta,
)
from repro.deltas import BagDelta
from repro.errors import VDPError
from repro.relalg import (
    BagRelation,
    EvalCounters,
    SetRelation,
    evaluate,
    make_schema,
    parse_expression,
    row,
)

L = make_schema("L", ["k", "x"])
Rr = make_schema("Rr", ["k", "y"])


def incremental_equals_recompute(definition, catalogs_before, delta, child, child_schema):
    """Check ΔT(rule) == T(after) - T(before) under bag semantics."""
    before = evaluate(definition, catalogs_before, "T")
    after_catalog = {n: r.copy() for n, r in catalogs_before.items()}
    delta.apply_to(after_catalog[child], child)
    after = evaluate(definition, after_catalog, "T")
    expected = BagDelta.diff("T", _as_bag(before), _as_bag(after))
    got = spj_delta(definition, "T", child, delta, catalogs_before, child_schema)
    assert got == expected, f"{got} != {expected}"


def _as_bag(rel):
    out = BagRelation(rel.schema)
    for r, n in rel.items():
        out.insert(r, n)
    return out


def test_spj_rule_select_project():
    definition = parse_expression("project[x](select[x < 10](L))")
    cat = {"L": BagRelation.from_values(L, [(1, 5), (2, 20)])}
    delta = BagDelta.from_counts("L", {row(k=3, x=7): 1, row(k=1, x=5): -1})
    incremental_equals_recompute(definition, cat, delta, "L", L)


def test_spj_rule_join_insert_and_delete():
    definition = parse_expression("L join[k = k2] rename[k = k2](Rr)")
    # rename gives Rr attrs (k2, y) to keep the theta join disjoint
    cat = {
        "L": BagRelation.from_values(L, [(1, "a"), (2, "b")]),
        "Rr": BagRelation.from_values(Rr, [(1, "p"), (2, "q")]),
    }
    delta = BagDelta.from_counts("L", {row(k=1, x="a"): -1, row(k=2, x="z"): 1})
    incremental_equals_recompute(definition, cat, delta, "L", L)


def test_spj_rule_self_join_occurrences():
    """A child appearing twice (footnote 2): each occurrence contributes."""
    definition = parse_expression("L join[x = k2] rename[k = k2, x = x2](L)")
    cat = {"L": BagRelation.from_values(L, [(1, 2), (2, 3)])}
    delta = BagDelta.from_counts("L", {row(k=3, x=1): 1})
    incremental_equals_recompute(definition, cat, delta, "L", L)


def test_spj_rule_union_only_touches_matching_side():
    x = make_schema("X", ["a"])
    y = make_schema("Y", ["a"])
    definition = parse_expression("project[a](X) union project[a](rename[a = a](Y))")
    # Build via build_rule to exercise the union-side dispatch.
    rule = build_rule("T", definition, "X", x)
    assert isinstance(rule, BagNodeRule)
    cat = {
        "X": BagRelation.from_values(x, [(1,)]),
        "Y": BagRelation.from_values(y, [(9,)]),
    }
    delta = BagDelta.from_counts("X", {row(a=2): 1})
    out = rule.fire(delta, cat)
    # Only the insertion flows; Y's contents are NOT re-emitted.
    assert out.counts_for("T") == {row(a=2): 1}
    assert rule.sibling_names() == ()


def test_spj_delta_requires_reference():
    definition = parse_expression("project[x](L)")
    with pytest.raises(VDPError):
        spj_delta(definition, "T", "NOPE", BagDelta(), {}, L)


def _support_case(indexed):
    """``project[x](L) minus project[x](N)`` with N empty: T is L's support."""
    n = make_schema("N", ["x"])
    definition = parse_expression("project[x](L) minus project[x](N)")
    rule = build_rule("T", definition, "L", L, {"L": L, "N": n})
    cat = {
        "L": BagRelation.from_values(L, [(1, 7), (2, 7), (3, 8)]),
        "N": BagRelation(n),
    }
    if indexed:
        for base, keysets in rule.probe_index_requirements().items():
            for keys in keysets:
                cat[base].ensure_index(keys)
    return rule, cat


def test_operand_support_delta_counts_transitions():
    """Only 0↔positive transitions of the operand's support reach T — by
    index probes when the catalog carries the declared indexes, by full
    operand evaluation when it does not."""
    for indexed in (True, False):
        rule, cat = _support_case(indexed)
        assert rule.probe_index_requirements() == {"L": {("x",)}, "N": {("x",)}}
        # Removing one of the two x=7 rows: support unchanged; removing x=8: leaves.
        delta = BagDelta.from_counts(
            "L", {row(k=1, x=7): -1, row(k=3, x=8): -1, row(k=4, x=9): 1}
        )
        counters = EvalCounters()
        out = rule.fire(delta, cat, counters)
        assert out.insertions("T") == [row(x=9)]
        assert out.deletions("T") == [row(x=8)]
        # The probe path scans the three delta rows; the fallback also scans L.
        assert counters.rows_scanned == (3 if indexed else 6)
        assert (counters.index_probes > 0) == indexed


def test_set_rule_with_join_operand_keeps_full_operand_evaluation():
    """A difference operand that is not a select/project/rename chain has
    no probe plan: the rule declares no probe indexes and still fires
    correctly by evaluating both operands."""
    m = make_schema("M", ["k", "y"])
    definition = parse_expression(
        "project[k, y](L join[k = k2] rename[k = k2](Rr)) minus M"
    )
    schemas = {"L": L, "Rr": Rr, "M": m}
    cat = {
        "L": BagRelation.from_values(L, [(1, "a"), (2, "b")]),
        "Rr": BagRelation.from_values(Rr, [(1, "p"), (2, "q"), (3, "r")]),
        "M": BagRelation.from_values(m, [(2, "q")]),
    }
    deltas = {
        "L": BagDelta.from_counts("L", {row(k=3, x="c"): 1, row(k=1, x="a"): -1}),
        "M": BagDelta.from_counts("M", {row(k=2, y="q"): -1, row(k=1, y="p"): 1}),
    }
    child_schemas = {"L": L, "M": m}
    for child, delta in deltas.items():
        rule = build_rule("T", definition, child, child_schemas[child], schemas)
        assert rule.probe_index_requirements() == {}
        before = evaluate(definition, cat, "T")
        after_cat = {name: rel.copy() for name, rel in cat.items()}
        delta.apply_to(after_cat[child], child)
        after = evaluate(definition, after_cat, "T")
        out = rule.fire(delta, cat)
        assert set(out.insertions("T")) == after.support() - before.support()
        assert set(out.deletions("T")) == before.support() - after.support()
        assert not out.is_empty()


def test_set_rule_diff1_corrected_deletion_semantics():
    """The paper prints (ΔT)- = (ΔR1)- ∩ R2 for diff1; the correct rule is
    set-minus — a row leaving R1 leaves T only when NOT in R2."""
    a = make_schema("A", ["v"])
    b = make_schema("B", ["v"])
    definition = parse_expression("project[v](A) minus project[v](B)")
    rule = build_rule("T", definition, "A", a)
    assert isinstance(rule, SetNodeRule)
    cat = {
        "A": BagRelation.from_values(a, [(1,), (2,)]),
        "B": BagRelation.from_values(b, [(2,)]),
    }
    # Row 1 leaves A (was in T since 1 not in B) -> -1 must appear.
    # Row 2 leaves A (was NOT in T, shadowed by B) -> nothing.
    delta = BagDelta.from_counts("A", {row(v=1): -1, row(v=2): -1})
    out = rule.fire(delta, cat)
    assert out.sign("T", row(v=1)) == -1
    assert out.sign("T", row(v=2)) == 0  # the paper's ∩ version would emit -2


def test_set_rule_diff2_both_directions():
    a = make_schema("A", ["v"])
    b = make_schema("B", ["v"])
    definition = parse_expression("project[v](A) minus project[v](B)")
    rule = build_rule("T", definition, "B", b)
    cat = {
        "A": BagRelation.from_values(a, [(1,), (2,)]),
        "B": BagRelation.from_values(b, [(2,)]),
    }
    # 1 enters B: evicts 1 from T.  2 leaves B: re-admits 2 into T.
    delta = BagDelta.from_counts("B", {row(v=1): 1, row(v=2): -1})
    out = rule.fire(delta, cat)
    assert out.sign("T", row(v=1)) == -1
    assert out.sign("T", row(v=2)) == 1


def test_set_rule_ignores_support_preserving_changes():
    a = make_schema("A", ["k", "v"])
    b = make_schema("B", ["v"])
    definition = parse_expression("project[v](A) minus project[v](B)")
    rule = build_rule("T", definition, "A", a)
    cat = {
        "A": BagRelation.from_values(a, [(1, 7), (2, 7)]),
        "B": BagRelation(b),
    }
    # One of two supporting rows for v=7 goes away: support survives.
    delta = BagDelta.from_counts("A", {row(k=1, v=7): -1})
    out = rule.fire(delta, cat)
    assert out.is_empty()


def test_set_rule_sibling_names_cover_both_children():
    a = make_schema("A", ["v"])
    definition = parse_expression("project[v](A) minus project[v](B)")
    rule = build_rule("T", definition, "A", a)
    assert rule.sibling_names() == ("A", "B")
