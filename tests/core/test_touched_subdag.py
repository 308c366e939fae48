"""An update transaction visits only the sub-DAG its delta reaches.

The IUP kernel (§6.4) processes, children first, the nodes a leaf delta
can reach: the updated leaf and its ancestors.  Per-transaction work must
therefore not grow with the width of the federation around them — and the
structure the walk reads (ancestor tuples, storing set, announcing
sources) must be the new one after every attach and detach.
"""

from collections import Counter

from repro.core.local_store import LocalStore
from repro.core.rulebase import RuleBase
from repro.durability import DurabilityManager
from repro.durability.checkpoint import CheckpointPolicy
from repro.generator import generate_mediator, make_federation, make_sources
from repro.obs import Tracer
from repro.obs.provenance import origin_labels

#: At seed 3, member s004 (curated) joins s003 and s012 at every width
#: from 13 up: its leaf has the same three ancestors at 25 and 100.
SEED, MEMBER = 3, "s004"


def _mediator(fed, members, **kwargs):
    sources = make_sources(fed.spec_text_for(), fed.initial_data())
    mediator = generate_mediator(
        fed.spec_text_for(members), {n: sources[n] for n in members}, **kwargs
    )
    return mediator, sources


def _commit_one_row(fed, source, name, join_value=7):
    """Insert one row under a key the member does not hold yet; returns
    the key."""
    k, a, b = fed.attributes(name)
    held = {row[0] for row in fed.initial_rows(name)}
    key = min(set(range(64)) - held)
    source.insert(fed.relation(name), **{k: key, a: join_value, b: 1})
    return key


def _counted_refresh(monkeypatch, mediator):
    """Run one refresh; return how often the kernel's two per-node probes
    were called, per node."""
    visits = Counter()
    has_pending = LocalStore.has_pending_delta
    rules_out_of = RuleBase.rules_out_of

    def counting_has_pending(self, name):
        visits[name] += 1
        return has_pending(self, name)

    def counting_rules_out_of(self, node):
        visits[node] += 1
        return rules_out_of(self, node)

    with monkeypatch.context() as patch:
        patch.setattr(LocalStore, "has_pending_delta", counting_has_pending)
        patch.setattr(RuleBase, "rules_out_of", counting_rules_out_of)
        result = mediator.refresh()
    return result, visits


def test_transaction_work_is_flat_in_federation_width(monkeypatch):
    seen = {}
    for width in (25, 100):
        fed = make_federation(width, seed=SEED)
        mediator, sources = _mediator(fed, fed.names)
        leaf = fed.relation(MEMBER)
        _commit_one_row(fed, sources[MEMBER], MEMBER)
        result, visits = _counted_refresh(monkeypatch, mediator)
        assert fed.leaf_parent(MEMBER) in result.processed_nodes
        assert set(visits) == {leaf, *mediator.vdp.ancestors(leaf)}
        seen[width] = visits
    assert len(seen[25]) == len(seen[100]) == 4
    assert seen[25] == seen[100]


def test_attach_then_commit_reaches_the_new_parent_and_its_checkpoint(tmp_path):
    fed = make_federation(6, seed=SEED)
    members, joiner = list(fed.names[:5]), fed.names[5]
    mediator, sources = _mediator(fed, members)
    manager = DurabilityManager.attach(
        mediator, str(tmp_path), policy=CheckpointPolicy(every_txns=0, every_wal_bytes=0)
    )
    views, annotations = fed.attach_payload(joiner, members)
    mediator.attach_source(sources[joiner], views, annotations)

    _commit_one_row(fed, sources[joiner], joiner)
    result = mediator.refresh()
    parent = fed.leaf_parent(joiner)
    assert parent in result.processed_nodes
    # The checkpoint images exactly what the commit dirtied among the new
    # structure's storing nodes — the joiner's parent included.
    checkpoint = manager.checkpoint()
    imaged = manager.checkpoints.load_all()[checkpoint]["nodes"]
    assert set(imaged) == set(result.processed_nodes) & set(
        mediator.annotated.nodes_with_storage()
    )
    assert parent in imaged
    manager.close()


def test_detach_leaves_nothing_of_the_departed_member_to_visit(monkeypatch):
    fed = make_federation(6, seed=SEED)
    mediator, sources = _mediator(fed, fed.names)
    detached = mediator.detach_source("s003")
    _commit_one_row(fed, sources["s003"], "s003")
    _commit_one_row(fed, sources[MEMBER], MEMBER)
    result, visits = _counted_refresh(monkeypatch, mediator)
    leaf = fed.relation(MEMBER)
    assert not set(visits) & set(detached.removed_nodes)
    assert set(visits) == {leaf, *mediator.vdp.ancestors(leaf)}
    assert result.processed_nodes == (fed.leaf_parent(MEMBER),)


def test_provenance_after_a_swap_names_the_same_origins():
    fed = make_federation(6, seed=SEED)
    members, joiner = list(fed.names[:5]), fed.names[5]
    tracer = Tracer(enabled=True, provenance=True)
    mediator, sources = _mediator(fed, members, tracer=tracer)
    views, annotations = fed.attach_payload(joiner, members)
    mediator.attach_source(sources[joiner], views, annotations)
    # s001's new row joins the joiner's new row in J_001_005 (a001 = k005):
    # one cross term, blamed on both transactions.
    key = _commit_one_row(fed, sources[joiner], joiner)
    _commit_one_row(fed, sources["s001"], "s001", join_value=key)
    _commit_one_row(fed, sources[MEMBER], MEMBER)
    result = mediator.refresh()
    assert "J_001_005" in result.processed_nodes
    origins = {
        node: origin_labels(tracer.provenance_of(node))
        for node in mediator.vdp.topological_order()
        if tracer.provenance_of(node)
    }
    assert origins == EXPECTED_ORIGINS


#: Exclusion semantics: a node's origins are the source transactions whose
#: removal would change it.  The joiner's and s001's new rows meet only in
#: J_001_005; R004's row reaches no join.  The whole-structure walk
#: (every non-leaf probed, every edge reconciled) records the same sets.
EXPECTED_ORIGINS = {
    "R001": ["s001#1"],
    "R001_p": ["s001#1"],
    "R004": ["s004#1"],
    "R004_p": ["s004#1"],
    "R005": ["s005#1"],
    "R005_p": ["s005#1"],
    "J_001_005": ["s001#1", "s005#1"],
}
