"""A set node's delta: additive smash + normalize ≡ later-wins smash + normalize.

Figure 4's ``G = project[a1, b1](E) minus F`` is a difference ("set") node.
During one update transaction each child fires once into it, and the
second firing reads the first's operand at its new state — so for any row
the contributions are a chain of ±1 transitions, each starting where the
previous one ended.  The kernel adds contributions into ``ΔG``
(``LocalStore.accumulate``) and normalizes the sum against ``G``'s state
(``IncrementalUpdateProcessor._normalize_set_delta``).  The reference
below is the set-semantics design the repository used before one delta
type served every node: the later atom wins on smash, then the same
redundancy filter.  Both must leave the same atoms and the same
``deltas_smashed``; with one firing per operand side — Figure 4's case —
they must also leave the same atom order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltas import Delta
from repro.relalg import SetRelation, row
from repro.sources import MemorySource
from repro.workloads import figure4_mediator, figure4_schemas

KEYS = range(6)
_MEDIATOR = []


def mediator():
    """One small all-materialized Figure-4 mediator, shared by examples
    (each example installs its own ``G`` state)."""
    if not _MEDIATOR:
        schemas = figure4_schemas()
        sources = {
            f"db{n}": MemorySource(f"db{n}", [schemas[n]], initial={n: []}) for n in "ABCD"
        }
        _MEDIATOR.append(figure4_mediator("all_m", sources=sources)[0])
    return _MEDIATOR[0]


def g_row(k):
    return row(a1=k, b1=k % 3)


@st.composite
def streams(draw):
    """Initial operand supports and a stream of firings into ``G = L − R``.

    A firing flips some rows of one operand side's support (each row at
    most once), as one child's rule firing does; the contribution it sends
    is the paper's difference rule read against the *current* other side.
    """
    left = set(draw(st.lists(st.sampled_from(KEYS), unique=True)))
    right = set(draw(st.lists(st.sampled_from(KEYS), unique=True)))
    sides = draw(st.lists(st.sampled_from(["left", "right"]), min_size=1, max_size=4))
    firings = [(side, draw(st.lists(st.sampled_from(KEYS), unique=True))) for side in sides]
    return left, right, firings


def contributions(left, right, firings):
    """The ±1 contribution of each firing, in firing order."""
    left, right = set(left), set(right)
    out = []
    for side, keys in firings:
        atoms = {}
        operand, other = (left, right) if side == "left" else (right, left)
        for k in keys:
            entering = k not in operand
            (operand.add if entering else operand.discard)(k)
            if side == "left" and k not in other:
                atoms[g_row(k)] = 1 if entering else -1
            elif side == "right" and k in other:
                atoms[g_row(k)] = -1 if entering else 1
        out.append(atoms)
    return out


def later_wins_reference(state, contributions):
    """The old design, written out: smash keeps the later atom of a row
    (one folded atom per row both hold), then atoms redundant for
    ``state`` are dropped (each counted)."""
    smashed, acc = 0, {}
    for atoms in contributions:
        before = len(acc)
        acc.update(atoms)
        smashed += before + len(atoms) - len(acc)
    kept = [(r, s) for r, s in acc.items() if (s > 0) != state.contains(r)]
    return kept, smashed + len(acc) - len(kept)


@given(streams())
@settings(max_examples=300, deadline=None)
def test_additive_accumulate_then_normalize_matches_later_wins(stream):
    left, right, firings = stream
    m = mediator()
    state = SetRelation(m.vdp.node("G").schema, [g_row(k) for k in left - right])
    m.store.install_repo("G", state)
    m.store.clear_delta("G")
    m.store.stats.reset()
    sent = contributions(left, right, firings)
    for atoms in sent:
        if atoms:
            m.store.accumulate("G", Delta.from_counts("G", atoms))
    accumulated = m.store.delta("G").copy()
    got = m.iup._normalize_set_delta("G", m.store.delta("G"), {})
    m.store.clear_delta("G")
    # Counts that cancel leave nothing redundant on a consistent stream, so
    # normalization drops nothing here; the later-wins reference needs it.
    # (Redundant input is covered by test_local_store::test_normalize_set_delta.)
    assert got == accumulated

    kept, smashed = later_wins_reference(state, sent)
    assert dict(got.atoms_for("G")) == dict(kept)
    assert got.relations() in ((), ("G",))
    assert m.store.stats.deltas_smashed == smashed
    if len({side for side, _ in firings}) == len(firings):  # one firing per side
        assert list(got.atoms_for("G")) == kept


@given(streams())
@settings(max_examples=200, deadline=None)
def test_normalized_delta_is_the_net_change_of_g(stream):
    """Additive smash is right, not just equal: applying the normalized
    delta to ``G`` gives ``L − R`` after every firing."""
    left, right, firings = stream
    m = mediator()
    state = SetRelation(m.vdp.node("G").schema, [g_row(k) for k in left - right])
    acc = Delta()
    for atoms in contributions(left, right, firings):
        acc.absorb(Delta.from_counts("G", atoms))
    final_left, final_right = set(left), set(right)
    for side, keys in firings:
        operand = final_left if side == "left" else final_right
        operand.symmetric_difference_update(keys)
    expected = SetRelation(state.schema, [g_row(k) for k in final_left - final_right])
    assert acc.normalized("G", state).applied(state, "G") == expected
