"""The fused scan-chain kernel ≡ operator-at-a-time evaluation.

A select / project / rename stack over a scan evaluates as one pass over
the stored relation (:class:`repro.relalg.ScanChain`).  The reference here
is the textbook evaluation — one operator at a time through the public
``Row`` API, predicates through the tree walker — and the property is that
the two agree in values, in work counters and in errors, through the full
scan and through the index-probe path.  The *shape* of the pass is pinned
below in counts that repeat exactly.
"""

from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.relalg.evaluator as evaluator_module
import repro.relalg.predicates as predicates_module
from repro.errors import EvaluationError, SchemaError
from repro.relalg import (
    BagRelation,
    EvalCounters,
    Evaluator,
    Project,
    Rename,
    Row,
    Scan,
    Select,
    SetRelation,
    compile_scan_chain,
    make_schema,
    parse_predicate,
)
from repro.workloads import figure1_mediator, figure4_mediator

STORED = make_schema("R", ["a", "b", "c"])
#: What an evaluator is *told* R looks like: one attribute wider than the
#: rows it will meet, as when a hybrid repository or a VAP temporary stands
#: in for a VDP node.  ``d`` passes schema inference and fails on the row.
#: Only selections read it here: a *projection* onto it is where fusing is
#: knowingly laxer (``project[a](project[a, d](R))`` never builds the inner
#: row, so it no longer trips over the missing ``d``) — pinned by name below.
DECLARED = make_schema("R", ["a", "b", "c", "d"])
NAMES = ["a", "b", "c", "x", "y"]

small = st.integers(0, 3)
base_counts = st.dictionaries(st.tuples(small, small, small), st.integers(1, 3), max_size=8)

PREDICATES = ["{0} >= 1", "{0} = {1}", "{0} + {1} < 4 and {1} != 2", "not ({0} < 2) or {1} = 0"]


@st.composite
def stacks(draw):
    """A σ/π/ρ stack over ``Scan('R')``, innermost first, mostly well-formed:
    each step usually draws from the names visible at that point and now and
    then from all of ``NAMES`` (a projected-away, renamed-away or row-missing
    attribute)."""
    visible = list(STORED.attribute_names)
    expr = Scan("R")
    for _ in range(draw(st.integers(0, 4))):
        pool = visible if draw(st.integers(0, 5)) else NAMES
        kind = draw(st.sampled_from(["select", "project", "rename"]))
        if kind == "select":
            reads = pool + ["d"]
            text = draw(st.sampled_from(PREDICATES)).format(
                draw(st.sampled_from(reads)), draw(st.sampled_from(reads))
            )
            expr = Select(expr, parse_predicate(text))
        elif kind == "project":
            attrs = tuple(draw(st.permutations(pool)))[: draw(st.integers(1, len(pool)))]
            expr = Project(expr, attrs, dedup=draw(st.integers(0, 7)) == 0)
            visible = [a for a in attrs if a in visible] or visible
        else:
            old = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
            # Either a swap of two visible names or a move to fresh ones.
            new = list(reversed(old)) if len(old) == 2 and draw(st.booleans()) else [
                draw(st.sampled_from(["x", "y"])) for _ in old
            ]
            expr = Rename(expr, dict(zip(old, new)))
            visible = [dict(zip(old, new)).get(a, a) for a in visible]
    if draw(st.integers(0, 4)):
        # Usually close with a projection: an answer still as wide as
        # DECLARED fails the result-schema check before anything is compared.
        expr = Project(expr, tuple(draw(st.permutations(visible)))[: draw(st.integers(1, len(visible)))])
    return expr


def reference(expr, relation, counters):
    """Operator-at-a-time: every operator materialises its ``{row: count}``."""
    if isinstance(expr, Scan):
        counts = dict(relation.items())
        counters.rows_scanned += sum(counts.values())
        return counts
    child = reference(expr.child, relation, counters)
    if isinstance(expr, Select):
        return {r: n for r, n in child.items() if expr.predicate.evaluate(r)}
    out = Counter()
    for r, n in child.items():
        out[r.project(expr.attrs) if isinstance(expr, Project) else r.rename(expr.mapping_dict)] += n
    if isinstance(expr, Project) and expr.dedup:
        return dict.fromkeys(out, 1)
    return dict(out)


def evaluate_reference(expr, relation):
    """``Evaluator.evaluate`` around :func:`reference`: the schema is inferred
    (and the stack rejected) first, the answer's rows are checked against it."""
    counters = EvalCounters()
    schema = expr.infer_schema({"R": DECLARED}, "result")
    counts = reference(expr, relation, counters)
    if isinstance(expr, Project) and expr.dedup:
        answer = SetRelation(schema, counts)
    else:
        counters.rows_produced += sum(counts.values())
        answer = BagRelation(schema, counts)
    return dict(answer.items()), (counters.rows_scanned, counters.rows_produced)


def evaluate_fused(expr, relation):
    counters = EvalCounters()
    answer = Evaluator({"R": relation}, schemas={"R": DECLARED}, counters=counters).evaluate(expr)
    return dict(answer.items()), (counters.rows_scanned, counters.rows_produced)


def outcome(run, *args):
    try:
        return ("returned", run(*args))
    except Exception as exc:
        return ("raised", type(exc))




def stored_relation(counts, as_set):
    rows = {Row(dict(zip(STORED.attribute_names, values))): n for values, n in counts.items()}
    return SetRelation(STORED, rows) if as_set else BagRelation(STORED, rows)


@given(stacks(), base_counts, st.booleans())
@settings(max_examples=500, deadline=None)
def test_fused_scan_agrees_with_operator_at_a_time(expr, counts, as_set):
    relation = stored_relation(counts, as_set)
    assert outcome(evaluate_fused, expr, relation) == outcome(evaluate_reference, expr, relation), expr


@given(stacks(), base_counts)
@settings(max_examples=300, deadline=None)
def test_probe_path_agrees_with_the_chain_on_one_base_row(expr, counts):
    """What an index probe does per bucket row — ``ScanChain.apply`` with the
    same compiled ``(test, outmap)`` the full scan uses."""
    relation = stored_relation(counts, as_set=False)
    chain = compile_scan_chain(expr, {"R": DECLARED})
    if chain is None:
        return  # not a chain (or not well-formed): nothing probes it
    outmap = chain.outmap_over(relation.schema)
    for base_row in relation.support():

        def probe():
            out = chain.apply(base_row, outmap)
            return {} if out is None else {out: 1}

        single = BagRelation(STORED, {base_row: 1})
        expected = outcome(lambda: reference(expr, single, EvalCounters()))
        assert outcome(probe) == expected, (expr, base_row)


def _contains_dedup(expr):
    return not isinstance(expr, Scan) and (
        (isinstance(expr, Project) and expr.dedup) or _contains_dedup(expr.child)
    )


@given(stacks())
@settings(max_examples=200, deadline=None)
def test_a_dedup_projection_is_never_fused(expr):
    if _contains_dedup(expr):
        assert compile_scan_chain(expr, {"R": DECLARED}) is None


def test_swapped_names_and_a_projected_away_read():
    relation = stored_relation({(1, 2, 3): 2, (2, 1, 3): 1}, as_set=False)
    swap = Project(Select(Rename(Scan("R"), {"a": "b", "b": "a"}), parse_predicate("a >= 2")), ("b", "c"))
    assert compile_scan_chain(swap, {"R": DECLARED}).outmap == {"b": "a", "c": "c"}
    assert evaluate_fused(swap, relation) == evaluate_reference(swap, relation)
    assert evaluate_fused(swap, relation)[0] == {Row({"b": 1, "c": 3}): 2}
    hidden = Select(Project(Scan("R"), ("a",)), parse_predicate("b = 2"))
    assert compile_scan_chain(hidden, {"R": DECLARED}) is None
    assert outcome(evaluate_fused, hidden, relation) == ("raised", SchemaError)
    assert outcome(evaluate_reference, hidden, relation) == ("raised", SchemaError)


def test_an_attribute_the_rows_lack_fails_as_it_always_did():
    relation = stored_relation({(1, 2, 3): 1}, as_set=False)
    read = Project(Select(Scan("R"), parse_predicate("d >= 1")), ("a",))
    assert outcome(evaluate_fused, read, relation) == ("raised", EvaluationError)
    assert outcome(evaluate_reference, read, relation) == ("raised", EvaluationError)
    kept = Project(Select(Scan("R"), parse_predicate("a >= 1")), ("a", "d"))
    assert outcome(evaluate_fused, kept, relation) == ("raised", SchemaError)
    assert outcome(evaluate_reference, kept, relation) == ("raised", SchemaError)
    unselected = Project(Select(Scan("R"), parse_predicate("a >= 2")), ("a", "d"))
    assert evaluate_fused(unselected, relation) == evaluate_reference(unselected, relation) == ({}, (1, 0))
    # The one knowing difference: an inner projection's row is never built.
    composed = Project(Project(Scan("R"), ("a", "d")), ("a",))
    assert outcome(evaluate_reference, composed, relation) == ("raised", SchemaError)
    assert evaluate_fused(composed, relation) == ({Row({"a": 1}): 1}, (1, 1))


# ---------------------------------------------------------------------------
# Shape pins
# ---------------------------------------------------------------------------
def _count_row_constructions(monkeypatch, run):
    """Rows built while ``run()`` runs, through either constructor: the
    positional ``Row.new`` and the mapping one, ``Row(...)``."""
    built = []
    real_new, real_from_mapping = Row.new, Row.__new__

    def spy(cls, parts):
        built.append(1)
        return real_new(cls, parts)

    def spy_mapping(cls, data):
        built.append(1)
        return real_from_mapping(cls, data)

    monkeypatch.setattr(Row, "new", spy)
    monkeypatch.setattr(Row, "__new__", staticmethod(spy_mapping))
    try:
        return run(), len(built)
    finally:
        monkeypatch.undo()


def test_a_range_query_builds_one_row_per_survivor_and_none_for_identity(monkeypatch):
    mediator, _ = figure1_mediator("ex21")  # T fully materialized: r1, r3, s1, s2
    stored = mediator.store.repo("T")
    survivors = [r for r, _ in stored.items() if 20 <= r["r1"] < 120]
    assert 3 < len(survivors) < stored.distinct_size()

    narrow = "project[r1, s1](select[r1 >= 20 and r1 < 120](T))"
    answer, built = _count_row_constructions(monkeypatch, lambda: mediator.query(narrow))
    assert built == len(survivors)
    assert answer.cardinality() == sum(stored.count(r) for r in survivors)

    identity = "project[r1, r3, s1, s2](select[r1 >= 20 and r1 < 120](T))"
    answer, built = _count_row_constructions(monkeypatch, lambda: mediator.query(identity))
    assert built == 0
    assert answer.support() == frozenset(survivors)


def test_copies_and_source_snapshots_build_no_rows(monkeypatch):
    """A copy shares the stored rows (and their hashes): copying a set, a
    bag, or a whole memory source constructs nothing."""
    _, sources = figure4_mediator("all_m")
    source = sources["dbC"]
    stored = source.relation("C")
    bag = BagRelation(stored.schema, {r: 2 for r, _ in stored.items()})
    for run in (stored.copy, bag.copy, source.state):
        copied, built = _count_row_constructions(monkeypatch, run)
        assert built == 0
    assert copied["C"] == stored and copied["C"] is not stored
    assert bag.copy() == bag


def test_steady_state_compiles_only_the_query_predicates(monkeypatch):
    """50 transactions + 50 queries after ``initialize()``: the compile entry
    point runs once per query predicate and never under a transaction."""
    mediator, sources = figure4_mediator("all_m")
    calls = []
    in_transaction = []
    real_compile = predicates_module.compile_test
    real_transaction = mediator.iup.run_transaction

    def spy(pred, right=frozenset()):
        calls.append(bool(in_transaction))
        return real_compile(pred, right)

    def transaction(*args, **kwargs):
        in_transaction.append(1)
        try:
            return real_transaction(*args, **kwargs)
        finally:
            in_transaction.pop()

    monkeypatch.setattr(predicates_module, "compile_test", spy)
    monkeypatch.setattr(evaluator_module, "compile_test", spy)
    monkeypatch.setattr(mediator.iup, "run_transaction", transaction)
    for i in range(50):
        source, relation, key, value = [
            ("dbA", "A", "a1", "a2"), ("dbB", "B", "b1", "b2"),
            ("dbC", "C", "c1", "c2"), ("dbD", "D", "d1", "d2"),
        ][i % 4]
        sources[source].insert(relation, **{key: 1000 + i, value: 3 + i % 9})
        result = mediator.refresh()
        assert result.rules_fired > 0
        lo = 10 * (i % 5)
        mediator.query(f"select[b1 >= {lo} and b1 < {lo + 20}]({'EG'[i % 2]})")
    assert calls == [False] * 50


@pytest.mark.parametrize("scenario", [("fig4", "all_m"), ("fig4", "paper"), ("fig1", "ex23")])
def test_transactions_build_no_positional_test(monkeypatch, scenario):
    """Every predicate a rule evaluates was resolved to its row layout when
    the rulebase was built: under ``run_transaction`` no test is generated
    (``_build`` is where source text is emitted and, per new shape, compiled)."""
    make = figure4_mediator if scenario[0] == "fig4" else figure1_mediator
    mediator, sources = make(scenario[1])
    built, in_transaction = [], []
    real_build, real_transaction = predicates_module._build, mediator.iup.run_transaction

    def spy(*args):
        built.append(bool(in_transaction))
        return real_build(*args)

    def transaction(*args, **kwargs):
        in_transaction.append(1)
        try:
            return real_transaction(*args, **kwargs)
        finally:
            in_transaction.pop()

    monkeypatch.setattr(predicates_module, "_build", spy)
    monkeypatch.setattr(mediator.iup, "run_transaction", transaction)
    for name in sorted(sources):
        source = sources[name]
        relation = sorted(source.schemas)[0]
        victim = min(source.relation(relation).support(), key=repr)
        source.delete(relation, **dict(victim))
        mediator.refresh()
        source.insert(relation, **dict(victim))
        mediator.refresh()
    assert True not in built
