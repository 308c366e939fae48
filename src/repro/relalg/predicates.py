"""Predicate and term ASTs for selections and join conditions.

Selection conditions in the paper range from simple comparisons
(``r4 = 100``, ``s3 < 50``) to arithmetic join conditions
(``a1^2 + a2 < b2^2`` in Figure 4).  This module provides a small, pure
expression language:

* **Terms** — attribute references, constants, and binary arithmetic.
* **Predicates** — comparisons over terms, boolean combinators, and the
  constant ``TRUE`` predicate.

Predicates know which attributes they reference (needed by the
``derived_from`` function of Section 6.3, which must include condition
attributes in the attribute sets it pushes down), can be evaluated against a
:class:`~repro.relalg.tuples.Row`, can be renamed, and can be split into
conjuncts (used for hash-join planning and for filtering deltas).

``evaluate`` walks the tree and is the reference semantics; every evaluation
site runs the **compiled** form (:meth:`Predicate.compiled_test`,
:func:`compile_test`): one generated Python function per predicate *shape*,
constants lifted into arguments, with the walker's truth values and errors.
The evaluator's form reads a row's values tuple by position
(:meth:`CompiledTest.at`), resolved once per row layout; calling a
:class:`CompiledTest` (or :meth:`Predicate.compiled`) tests row *mappings*.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import EvaluationError

__all__ = [
    "Term",
    "Attr",
    "Const",
    "Arith",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "TRUE",
    "attr",
    "const",
    "eq",
    "lt",
    "le",
    "gt",
    "ge",
    "ne",
    "conjuncts",
    "conjoin",
    "disjoin",
    "equi_join_pairs",
    "normalize_comparison",
    "compile_test",
    "CompiledTest",
    "separable",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
class _Compiles:
    """What terms and predicates share: one compiled form per instance."""

    def compiled_test(self) -> "CompiledTest":
        """This node compiled (see :func:`compile_test`): built on first use
        and kept on the instance."""
        test = self.__dict__.get("_test")
        if test is None:
            test = compile_test(self)  # type: ignore[arg-type]
            object.__setattr__(self, "_test", test)  # frozen dataclass: not a field
        return test


class Term(_Compiles):
    """Abstract term: evaluates to a value given a row."""

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """The attribute names this term references."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        """A copy with attribute references renamed."""
        raise NotImplementedError


@dataclass(frozen=True)
class Attr(Term):
    """A reference to an attribute by name."""

    name: str

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError as exc:
            raise EvaluationError(f"row has no attribute {self.name!r}") from exc

    def attributes(self) -> FrozenSet[str]:
        return frozenset((self.name,))

    def rename(self, mapping: Mapping[str, str]) -> "Attr":
        return Attr(mapping.get(self.name, self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """A literal constant."""

    value: Any

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Const":
        return self

    def __str__(self) -> str:
        return repr(self.value)


_ARITH_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "^": operator.pow,
}


@dataclass(frozen=True)
class Arith(Term):
    """Binary arithmetic over terms (``+ - * / % ^``)."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise EvaluationError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return _ARITH_OPS[self.op](self.left.evaluate(row), self.right.evaluate(row))

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Arith":
        return Arith(self.left.rename(mapping), self.op, self.right.rename(mapping))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
class Predicate(_Compiles):
    """Abstract boolean predicate over a row."""

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """The attribute names this predicate references."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """A copy with attribute references renamed."""
        raise NotImplementedError

    def compiled(self) -> Callable[[Mapping[str, Any]], bool]:
        """This predicate as a plain function of one row mapping."""
        return self.compiled_test().function

    # boolean sugar
    def __and__(self, other: "Predicate") -> "Predicate":
        return conjoin(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return disjoin(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


_CMP_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """A comparison between two terms: ``left op right``."""

    left: Term
    op: str
    right: Term

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise EvaluationError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return bool(_CMP_OPS[self.op](self.left.evaluate(row), self.right.evaluate(row)))

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.left.rename(mapping), self.op, self.right.rename(mapping))

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of two predicates."""

    left: Predicate
    right: Predicate

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return self.left.evaluate(row) and self.right.evaluate(row)

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "And":
        return And(self.left.rename(mapping), self.right.rename(mapping))

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of two predicates.

    The VAP's merge step (Section 6.3, step 2b) replaces two pending
    temporary-relation requests ``(R, B, g)`` and ``(R, A, f)`` by
    ``(R, B ∪ A, f ∨ g)`` — this node is how that ``∨`` is represented.
    """

    left: Predicate
    right: Predicate

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return self.left.evaluate(row) or self.right.evaluate(row)

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Or":
        return Or(self.left.rename(mapping), self.right.rename(mapping))

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    child: Predicate

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return not self.child.evaluate(row)

    def attributes(self) -> FrozenSet[str]:
        return self.child.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.child.rename(mapping))

    def __str__(self) -> str:
        return f"(not {self.child})"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The always-true predicate (a selection with no condition)."""

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return True

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "TruePredicate":
        return self

    def __str__(self) -> str:
        return "true"


TRUE = TruePredicate()


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
_TEST_SOURCE = """\
def make({consts}):
    def test(r, s=None):
        try:
            return {body}
        except KeyError as exc:
            raise EvaluationError(f"row has no attribute {{exc.args[0]!r}}") from exc
    return test
"""


#: Operators spelled differently in generated Python source.
_PY_OPS = {"^": "**", "=": "=="}

#: Attribute name → position, for the first and the second row of a layout.
Layout = Tuple[Mapping[str, int], Mapping[str, int]]


def _missing(name: str) -> Any:
    """What a positional test reads for an attribute its rows lack."""
    raise EvaluationError(f"row has no attribute {name!r}")


def _emit(node: Any, consts: List[Any], right: FrozenSet[str], layout: Optional[Layout]) -> str:
    """Python source for one term or predicate node; its constants are
    appended to ``consts`` and named ``c0, c1, …`` in text order.  Without a
    ``layout`` an attribute is read by name, with one by position."""
    kind = type(node)  # the grammar is closed: no subclasses to honour
    if kind is Attr:
        side = "s" if node.name in right else "r"
        if layout is None:
            return f"{side}[{node.name!r}]"
        position = layout[side == "s"].get(node.name)
        return f"m({node.name!r})" if position is None else f"{side}[{position}]"
    if kind is Const:
        consts.append(node.value)
        return f"c{len(consts) - 1}"
    if kind is TruePredicate:
        return "True"
    if kind is Not:
        return f"(not ({_emit(node.child, consts, right, layout)}))"
    left = _emit(node.left, consts, right, layout)
    if kind is And:
        # Unparenthesised, so a long conjunction stays flat (every other
        # node parenthesises itself; ``not`` parenthesises its operand).
        return f"{left} and {_emit(node.right, consts, right, layout)}"
    op = "or" if kind is Or else _PY_OPS.get(node.op, node.op)
    return f"({left} {op} {_emit(node.right, consts, right, layout)})"


@lru_cache(maxsize=1024)
def _shape(body: str, n_consts: int) -> Callable[..., Callable[..., bool]]:
    """The function factory for one predicate shape (constants are arguments)."""
    namespace: Dict[str, Any] = {"EvaluationError": EvaluationError, "m": _missing}
    consts = ", ".join(f"c{i}" for i in range(n_consts))
    exec(_TEST_SOURCE.format(consts=consts, body=body), namespace)
    return namespace["make"]


def _build(pred: Predicate, right: FrozenSet[str], layout: Optional[Layout]) -> Callable[..., bool]:
    consts: List[Any] = []
    return _shape(_emit(pred, consts, right, layout), len(consts))(*consts)


class CompiledTest:
    """A predicate compiled for evaluation; see :func:`compile_test`."""

    __slots__ = ("predicate", "right", "_layouts", "_function")

    def __init__(self, predicate: Predicate, right: FrozenSet[str]):
        self.predicate = predicate
        self.right = right
        self._layouts: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], Callable[..., bool]] = {}
        self._function: Optional[Callable[..., bool]] = None

    def at(self, names: Tuple[str, ...], right_names: Tuple[str, ...] = ()) -> Callable[..., bool]:
        """``test(values)`` over a values tuple laid out like ``names`` — or
        ``test(values, right_values)`` over a pair — built once per layout."""
        test = self._layouts.get((names, right_names))
        if test is None:
            layout = (
                {n: i for i, n in enumerate(names)},
                {n: i for i, n in enumerate(right_names)},
            )
            test = self._layouts[names, right_names] = _build(self.predicate, self.right, layout)
        return test

    @property
    def function(self) -> Callable[..., bool]:
        """``test(r)`` / ``test(r, s)`` over row mappings, read by name."""
        if self._function is None:
            self._function = _build(self.predicate, self.right, None)
        return self._function

    def __call__(self, r: Mapping[str, Any], s: Optional[Mapping[str, Any]] = None) -> bool:
        return self.function(r, s)


def compile_test(pred: Any, right: FrozenSet[str] = frozenset()) -> CompiledTest:
    """Compile ``pred`` to a test of one row — or of a row *pair*.

    Attributes named in ``right`` are read from the second row, all others
    from the first, so a join condition is tested on the two operand rows
    before they are merged.  A test agrees with ``pred.evaluate`` on every
    row: same truth value, :class:`~repro.errors.EvaluationError` for a
    missing attribute, arithmetic and type errors untouched.  Source text is
    generated per layout but Python-compiled once per *shape* — predicates
    differing only in their constants share one code object — so compiling a
    fresh query predicate costs less than interpreting a couple of dozen rows.
    A :class:`Term` compiles the same way, to a function returning its value.
    """
    return CompiledTest(pred, right)


# ---------------------------------------------------------------------------
# Constructors and utilities
# ---------------------------------------------------------------------------
def attr(name: str) -> Attr:
    """Shorthand for :class:`Attr`."""
    return Attr(name)


def const(value: Any) -> Const:
    """Shorthand for :class:`Const`."""
    return Const(value)


def _as_term(value: Any) -> Term:
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Attr(value)
    return Const(value)


def _cmp(op: str, left: Any, right: Any) -> Comparison:
    return Comparison(_as_term(left), op, _as_term(right))


def eq(left: Any, right: Any) -> Comparison:
    """``left = right``; strings become attribute refs, other values constants."""
    return _cmp("=", left, right)


def ne(left: Any, right: Any) -> Comparison:
    """``left != right``."""
    return _cmp("!=", left, right)


def lt(left: Any, right: Any) -> Comparison:
    """``left < right``."""
    return _cmp("<", left, right)


def le(left: Any, right: Any) -> Comparison:
    """``left <= right``."""
    return _cmp("<=", left, right)


def gt(left: Any, right: Any) -> Comparison:
    """``left > right``."""
    return _cmp(">", left, right)


def ge(left: Any, right: Any) -> Comparison:
    """``left >= right``."""
    return _cmp(">=", left, right)


def conjuncts(pred: Predicate) -> List[Predicate]:
    """Flatten nested conjunctions into a list (TRUE flattens to [])."""
    if isinstance(pred, TruePredicate):
        return []
    if isinstance(pred, And):
        return conjuncts(pred.left) + conjuncts(pred.right)
    return [pred]


def conjoin(*preds: Predicate) -> Predicate:
    """Conjunction of any number of predicates, simplifying TRUE away."""
    parts: List[Predicate] = []
    for p in preds:
        parts.extend(conjuncts(p))
    if not parts:
        return TRUE
    result = parts[0]
    for p in parts[1:]:
        result = And(result, p)
    return result


def disjoin(*preds: Predicate) -> Predicate:
    """Disjunction of any number of predicates; TRUE absorbs everything."""
    if not preds:
        return TRUE
    if any(isinstance(p, TruePredicate) for p in preds):
        return TRUE
    result = preds[0]
    for p in preds[1:]:
        result = Or(result, p)
    return result


def normalize_comparison(pred: Predicate) -> Optional[Tuple[str, str, Any]]:
    """``(attr, op, const)`` for a single-attribute constant comparison.

    ``c op x`` forms are flipped so the attribute is always on the left;
    anything else (attr-attr, arithmetic terms) returns ``None``.
    """
    if not isinstance(pred, Comparison):
        return None
    if isinstance(pred.left, Attr) and isinstance(pred.right, Const):
        return pred.left.name, pred.op, pred.right.value
    if isinstance(pred.left, Const) and isinstance(pred.right, Attr):
        return pred.right.name, FLIP.get(pred.op, pred.op), pred.left.value
    return None


def equi_join_pairs(
    pred: Predicate, left_attrs: FrozenSet[str], right_attrs: FrozenSet[str]
) -> Tuple[List[Tuple[str, str]], Optional[Predicate]]:
    """Extract hash-joinable equality pairs from a join condition.

    Returns ``(pairs, residual)`` where each pair is ``(left_attr,
    right_attr)`` with one side from each operand, and ``residual`` is the
    conjunction of the remaining conjuncts (``None`` when nothing remains).
    Used by the evaluator to run equi-joins as hash joins while keeping
    arbitrary theta conditions (e.g. Figure 4's ``a1^2 + a2 < b2^2``) as a
    post-filter.
    """
    pairs: List[Tuple[str, str]] = []
    residual: List[Predicate] = []
    for part in conjuncts(pred):
        if (
            isinstance(part, Comparison)
            and part.op == "="
            and isinstance(part.left, Attr)
            and isinstance(part.right, Attr)
        ):
            l, r = part.left.name, part.right.name
            if l in left_attrs and r in right_attrs:
                pairs.append((l, r))
                continue
            if r in left_attrs and l in right_attrs:
                pairs.append((r, l))
                continue
        residual.append(part)
    residual_pred = conjoin(*residual) if residual else None
    if residual_pred is TRUE:
        residual_pred = None
    return pairs, residual_pred


FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def separable(
    pred: Predicate, left_attrs: FrozenSet[str], right_attrs: FrozenSet[str]
) -> Optional[Tuple[Term, str, Term, Optional[Predicate]]]:
    """``(f, op, g, rest)`` when ``pred``'s first conjunct is ``f(L) op
    g(R)`` in some orientation — ``op`` an ordering comparison, ``f`` / ``g``
    reading only left / right operand attributes — with ``rest`` the other
    conjuncts (None: none); None for any other shape."""
    first, *others = conjuncts(pred) or [TRUE]
    if not isinstance(first, Comparison) or first.op not in FLIP:
        return None
    f, op, g = first.left, first.op, first.right
    if f.attributes() <= right_attrs and g.attributes() <= left_attrs:
        f, op, g = g, FLIP[op], f
    if not (f.attributes() and g.attributes()):
        return None
    if f.attributes() <= left_attrs and g.attributes() <= right_attrs:
        return f, op, g, conjoin(*others) if others else None
    return None
