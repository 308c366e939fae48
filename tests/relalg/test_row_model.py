"""Property test: ``Row`` against a plain-dict reference model.

A row is stored as a tuple ``(names, values)`` with canonical (sorted,
interned) names.  The reference here is what a row meant when it was a
dict: every operation below is written against ``dict`` and the property
is that the tuple-backed row agrees with it — in values, in equality and
hashing, and in the errors its algebra helpers raise.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relalg import BagRelation, Row, SetRelation, make_schema, row

NAMES = ["a", "b", "c", "d", "e"]
cell = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.text(alphabet="xy", max_size=2),
    st.floats(allow_nan=False, width=16),
    st.tuples(st.integers(0, 2)),
)
dicts = st.dictionaries(st.sampled_from(NAMES), cell, max_size=len(NAMES))


def shuffled(data, draw):
    """The same mapping, built in another insertion order."""
    keys = draw(st.permutations(list(data)))
    return {k: data[k] for k in keys}


def outcome(run, *args):
    try:
        return ("returned", run(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


# -- the reference model: a row as a dict --------------------------------
def ref_project(data, names):
    try:
        return {n: data[n] for n in names}
    except KeyError as exc:
        raise SchemaError(f"row {ref_repr(data)} has no attribute {exc.args[0]!r}") from exc


def ref_merge(data, other):
    overlap = data.keys() & other.keys()
    if overlap:
        raise SchemaError(f"merge would overwrite attributes {sorted(overlap)}")
    return {**data, **other}


def ref_merge_natural(data, other):
    conflicts = sorted(k for k in data.keys() & other.keys() if data[k] != other[k])
    if conflicts:
        k = conflicts[0]
        raise SchemaError(f"natural merge conflict on {k!r}: {data[k]!r} vs {other[k]!r}")
    return {**data, **other}


def ref_repr(data):
    return "Row(" + ", ".join(f"{k}={v!r}" for k, v in sorted(data.items())) + ")"


def as_dict(result):
    kind, *rest = result
    if kind == "returned":
        value = rest[0]
        return ("returned", dict(value.items()) if isinstance(value, Row) else value)
    return result


# -- identity --------------------------------------------------------------
@given(st.data(), dicts)
def test_insertion_order_does_not_matter(data, d):
    one, other = Row(d), Row(shuffled(d, data.draw))
    assert one == other and hash(one) == hash(other)
    assert len({one, other}) == 1
    assert {one: 1, other: 2} == {one: 2}
    assert one._names is other._names  # interned: a relation's check is `is`


@given(dicts, dicts)
def test_rows_are_equal_exactly_when_their_dicts_are(d, e):
    assert (Row(d) == Row(e)) == (d == e)
    assert (Row(d) != Row(e)) == (d != e)


@given(dicts)
def test_a_row_equals_only_another_row(d):
    assert Row(d) != d and not (Row(d) == d)
    assert Row(Row(d)) == Row(d)


# -- the Mapping API -------------------------------------------------------
@given(dicts, st.sampled_from(NAMES))
def test_mapping_api_behaves_like_the_dict(d, name):
    r = Row(d)
    assert dict(r) == d and len(r) == len(d) and set(r) == set(d)
    assert set(r.keys()) == d.keys() and r.keys() == d.keys()
    assert sorted(r.items(), key=repr) == sorted(d.items(), key=repr)
    assert sorted(r.values(), key=repr) == sorted(d.values(), key=repr)
    assert (name in r) == (name in d)
    assert r.get(name, "missing") == d.get(name, "missing")
    assert outcome(lambda: r[name]) == outcome(lambda: d[name])
    assert repr(r) == ref_repr(d)
    assert pickle.loads(pickle.dumps(r)) == r


def test_a_row_is_immutable():
    r = row(a=1)
    with pytest.raises(AttributeError):
        r.x = 5
    with pytest.raises(AttributeError):
        r._values = (2,)
    with pytest.raises(TypeError):
        r["a"] = 2


# -- the algebra helpers -----------------------------------------------------
@given(dicts, st.lists(st.sampled_from(NAMES), max_size=4))
def test_project_and_values_for(d, names):
    r = Row(d)
    assert as_dict(outcome(r.project, names)) == as_dict(outcome(ref_project, d, names))
    expected = outcome(lambda: tuple(d[n] for n in names))
    assert outcome(r.values_for, names) == expected


@given(dicts, dicts)
def test_merge_and_merge_natural(d, e):
    assert as_dict(outcome(Row(d).merge, Row(e))) == as_dict(outcome(ref_merge, d, e))
    natural = outcome(Row(d).merge_natural, Row(e))
    assert as_dict(natural) == as_dict(outcome(ref_merge_natural, d, e))
    if natural[0] == "returned":
        assert natural[1] == Row(ref_merge_natural(d, e))


@given(st.data(), dicts)
def test_rename_and_with_value(data, d):
    targets = data.draw(st.permutations(["p", "q", "s", "t", "u"]))
    mapping = {old: new for old, new in zip(d, targets) if data.draw(st.booleans())}
    mapping["zz"] = "unused"  # names the row lacks are ignored
    assert dict(Row(d).rename(mapping)) == {mapping.get(k, k): v for k, v in d.items()}
    name, value = data.draw(st.sampled_from(NAMES)), data.draw(cell)
    assert dict(Row(d).with_value(name, value)) == {**d, name: value}
    assert dict(Row(d)) == d


# -- the relation's attribute check -----------------------------------------
@given(dicts)
@settings(max_examples=50)
def test_a_relation_rejects_a_row_with_another_attribute_set(d):
    schema = make_schema("R", ["a", "b"])
    r = Row(d)
    expected = (
        f"row attributes {sorted(d)} do not match schema 'R' attributes ['a', 'b']"
    )
    for relation in (SetRelation(schema), BagRelation(schema)):
        if set(d) == {"a", "b"}:
            relation.insert(r)
            assert relation.count(r) == 1
        else:
            with pytest.raises(SchemaError) as excinfo:
                relation.insert(r)
            assert str(excinfo.value) == expected
