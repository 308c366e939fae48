"""The ordered index a range σ reads, across every way a repository is replaced.

A repository gets the ordered index on its first range σ (the QP's
materialized read, the VAP's key-based σ below the join) and keeps it up to
date through every write after that.  A repository built anew — a checkpoint
restore (``install_image``), selective re-initialization
(``reinitialize_node``), crash recovery, a replica's promotion — starts
without it: the next range σ builds it once, counted in ``index_rebuilds`` /
``rows_hashed``, and answers as the from-scratch recompute does.
"""

import pytest

from repro.core import annotate
from repro.core.persistence import reinitialize_sources
from repro.correctness import recompute_all
from repro.deltas import SetDelta
from repro.durability import CheckpointPolicy, DurabilityManager, RecoveryManager
from repro.relalg import Attr, Evaluator, OrderedKey, Row, parse_expression
from repro.replication import ReplicationHarness
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_mediator, figure1_vdp

RANGE = "project[r1, s1](select[r1 >= 20 and r1 < 60](T))"
KEY = OrderedKey("r1", Attr("r1"))


def indexed(mediator):
    return mediator.store.repo("T").has_index(KEY)


def assert_built_once_and_correct(mediator, sources):
    """The next range σ builds the index once; answers equal the recompute."""
    assert not indexed(mediator)
    counters = mediator.store.counters
    rebuilds, hashed = counters.index_rebuilds, counters.rows_hashed
    answer = mediator.query(RANGE)
    assert indexed(mediator)
    assert counters.index_rebuilds == rebuilds + 1
    assert counters.rows_hashed == hashed + mediator.store.repo("T").distinct_size()
    again = mediator.query(RANGE)
    assert counters.index_rebuilds == rebuilds + 1  # maintained, never rebuilt
    truth = Evaluator({"T": recompute_all(mediator.vdp, sources)["T"]}).evaluate(
        parse_expression(RANGE), "answer"
    )
    assert truth.cardinality() > 0
    assert answer == truth and again == truth


def insert_r(r1, r2=1):
    d = SetDelta()
    d.insert("R", Row({"r1": r1, "r2": r2, "r3": r1 % 7, "r4": 100}))
    return d


@pytest.mark.parametrize("example", ["ex21", "ex23"])
def test_writes_maintain_the_index_and_queries_never_rebuild_it(example):
    mediator, sources = figure1_mediator(example, seed=5)
    assert_built_once_and_correct(mediator, sources)
    repo = mediator.store.repo("T")
    live = repo.index_buckets(KEY)
    for i in range(6):
        sources["db1"].execute(insert_r(20 + i, r2=i))
        mediator.refresh()
        assert mediator.store.repo("T") is repo and repo.index_buckets(KEY) is live
        scratch = repo.copy()
        scratch.ensure_index(KEY)
        assert live == scratch.index_buckets(KEY)
        assert repo.index_order(KEY) == scratch.index_order(KEY)
    truth = Evaluator({"T": recompute_all(mediator.vdp, sources)["T"]}).evaluate(
        parse_expression(RANGE), "answer"
    )
    assert mediator.query(RANGE) == truth
    assert repo.index_buckets(KEY) is live


def test_checkpoint_restore(tmp_path):
    mediator, sources = figure1_mediator("ex23", seed=91)
    mediator.query(RANGE)
    assert indexed(mediator)
    DurabilityManager.attach(mediator, str(tmp_path)).close()
    sources["db1"].execute(insert_r(30))
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex23"])
    restored = RecoveryManager(str(tmp_path)).recover(annotated, sources, on_stale="raise")
    assert_built_once_and_correct(restored.mediator, sources)


def test_selective_reinitialization():
    mediator, sources = figure1_mediator("ex21", seed=92)
    mediator.query(RANGE)
    assert indexed(mediator)
    assert "T" in reinitialize_sources(mediator, ["db1"])
    assert_built_once_and_correct(mediator, sources)


def test_crash_recovery(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=21)
    manager = DurabilityManager.attach(mediator, str(tmp_path), policy=CheckpointPolicy(every_txns=2))
    mediator.query(RANGE)
    for i in range(5):
        sources["db1"].execute(insert_r(40 + i, r2=i))
        mediator.refresh()
    assert indexed(mediator)
    manager.close()  # the mediator dies here
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    recovered = RecoveryManager(str(tmp_path)).recover(annotated, sources).mediator
    assert_built_once_and_correct(recovered, sources)


def test_replica_promotion():
    h = ReplicationHarness(replicas=2, seed=6, heartbeat_timeout=3.0)
    try:
        h.run(commits=9)
        h.drain()
        h.kill_primary()
        h.silent_commit()
        result = h.coordinator.check(h.advance_past_timeout())
        assert result is not None
        assert_built_once_and_correct(h.coordinator.promoted.mediator, h.sources)
    finally:
        h.close()


def test_temporaries_never_get_the_index():
    """Under ex23 a full-width range query runs over the VAP's temporary for
    T: the σ scans it, and neither the temporary nor the cached copy gets an
    ordered index (only the key-based σ below the join reads the repository's)."""
    mediator, sources = figure1_mediator("ex23", seed=7)
    text = "project[r1, r3, s1](select[r1 >= 20 and r1 < 60](T))"
    mediator.query(text)
    assert indexed(mediator)  # the key-based σ over the repository
    cached = mediator.vap.cache.entries_for("T")
    assert cached
    for entry in cached:
        assert not entry.value.has_index(KEY)
