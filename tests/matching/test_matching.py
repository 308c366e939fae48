"""Tests for object matching: normalizers, rules, and the engine."""

import pytest

from repro.errors import SchemaError, SourceError
from repro.matching import (
    MatchCriterion,
    MatchRule,
    MatchingEngine,
    alnum_only,
    casefold_trim,
    chain,
    digits_only,
    prefix,
    rounded,
    soundex,
)
from repro.relalg import make_schema, row
from repro.sources import MemorySource

CUSTOMERS = make_schema("customers", ["cid", "name", "phone"], key=["cid"])
CLIENTS = make_schema("clients", ["clid", "fullname", "tel"], key=["clid"])


def make_rule(criteria=None):
    return MatchRule(
        "cust_match",
        "customers",
        "clients",
        tuple(
            criteria
            or [
                MatchCriterion("name", "fullname", casefold_trim),
                MatchCriterion("phone", "tel", digits_only),
            ]
        ),
        left_keys=("cid",),
        right_keys=("clid",),
    )


def make_sources():
    left = MemorySource(
        "crm_a",
        [CUSTOMERS],
        initial={
            "customers": [
                (1, "Ada Lovelace", "+1 (303) 555-0101"),
                (2, "Grace Hopper", "303-555-0202"),
                (3, "Alan Turing", "303.555.0303"),
            ]
        },
    )
    right = MemorySource(
        "crm_b",
        [CLIENTS],
        initial={
            "clients": [
                (901, "ada   lovelace", "13035550101"),
                (902, "GRACE HOPPER", "3035550202"),
                (903, "Edsger Dijkstra", "3035550404"),
            ]
        },
    )
    return left, right


# ---------------------------------------------------------------------------
# Normalizers
# ---------------------------------------------------------------------------
def test_casefold_trim():
    assert casefold_trim("  Ada   LOVELACE ") == "ada lovelace"


def test_digits_only():
    assert digits_only("+1 (303) 555-0101") == "13035550101"


def test_alnum_only_and_prefix():
    assert alnum_only("AB-12/x") == "ab12x"
    assert prefix(3)("  Ada Lovelace") == "ada"


def test_rounded():
    assert rounded(1)(3.14159) == 3.1
    assert rounded()(2.6) == 3.0


def test_soundex_classics():
    assert soundex("Robert") == "R163"
    assert soundex("Rupert") == "R163"
    assert soundex("Ashcraft") == soundex("Ashcroft")
    assert soundex("Tymczak") == "T522"
    assert soundex("") == "0000"


def test_chain():
    n = chain(casefold_trim, prefix(2))
    assert n("  HeLLo world") == "he"


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------
def test_rule_schema_prefixes_keys():
    schema = make_rule().schema()
    assert schema.attribute_names == ("l_cid", "r_clid")


def test_rule_matches_and_pairs():
    rule = make_rule()
    left = row(cid=1, name="Ada Lovelace", phone="+1 (303) 555-0101")
    right = row(clid=901, fullname="ada lovelace", tel="1-303-555-0101")
    assert rule.matches(left, right)
    assert rule.pair(left, right) == row(l_cid=1, r_clid=901)
    assert not rule.matches(left, row(clid=9, fullname="ada lovelace", tel="000"))


def test_rule_validation():
    with pytest.raises(SchemaError):
        MatchRule("m", "a", "b", (), ("k",), ("k",))
    with pytest.raises(SchemaError):
        MatchRule("m", "a", "b", (MatchCriterion("x", "y"),), (), ("k",))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
def test_engine_bootstrap_matches_existing_rows():
    left, right = make_sources()
    engine = MatchingEngine([make_rule()], left, right)
    table = engine.match_table("cust_match")
    assert table.to_sorted_list() == [((1, 901), 1), ((2, 902), 1)]
    # Bootstrap is initial state, not an announcement.
    assert not engine.source.has_pending_announcement()


def test_engine_incremental_insert_both_sides():
    left, right = make_sources()
    engine = MatchingEngine([make_rule()], left, right)
    left.insert("customers", cid=4, name="Edsger Dijkstra", phone="303 555 0404")
    assert engine.match_table("cust_match").contains(row(l_cid=4, r_clid=903))
    right.insert("clients", clid=904, fullname="alan turing", tel="303-555-0303")
    assert engine.match_table("cust_match").contains(row(l_cid=3, r_clid=904))
    assert engine.pairs_emitted == 4


def test_engine_incremental_delete():
    left, right = make_sources()
    engine = MatchingEngine([make_rule()], left, right)
    left.delete("customers", cid=1, name="Ada Lovelace", phone="+1 (303) 555-0101")
    assert not engine.match_table("cust_match").contains(row(l_cid=1, r_clid=901))
    assert engine.pairs_retracted == 1


def test_engine_modify_moves_matches():
    left, right = make_sources()
    engine = MatchingEngine([make_rule()], left, right)
    # Grace changes phone number: the old pair retracts.
    left.update(
        "customers",
        {"cid": 2, "name": "Grace Hopper", "phone": "303-555-0202"},
        {"cid": 2, "name": "Grace Hopper", "phone": "303-555-9999"},
    )
    assert not engine.match_table("cust_match").contains(row(l_cid=2, r_clid=902))


def test_engine_announces_net_deltas():
    left, right = make_sources()
    engine = MatchingEngine([make_rule()], left, right)
    left.insert("customers", cid=4, name="Edsger Dijkstra", phone="303 555 0404")
    announcement = engine.source.take_announcement()
    assert announcement.count("cust_match", row(l_cid=4, r_clid=903)) == 1


def test_engine_rejects_unknown_relation():
    left, right = make_sources()
    bad = MatchRule(
        "m", "nope", "clients", (MatchCriterion("a", "b"),), ("a",), ("b",)
    )
    with pytest.raises(SourceError):
        MatchingEngine([bad], left, right)


def test_engine_soundex_rule():
    left, right = make_sources()
    rule = MatchRule(
        "fuzzy",
        "customers",
        "clients",
        (MatchCriterion("name", "fullname", soundex),),
        ("cid",),
        ("clid",),
    )
    engine = MatchingEngine([rule], left, right)
    # Ada/ada and Grace/GRACE match by soundex of the first name.
    table = engine.match_table("fuzzy")
    assert table.contains(row(l_cid=1, r_clid=901))
    assert table.contains(row(l_cid=2, r_clid=902))
