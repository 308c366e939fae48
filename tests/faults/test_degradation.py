"""Graceful degradation across scheduled outage windows.

During an outage the paper's environment model simply has no story — the
mediator would hang on a poll.  These tests pin the degraded-mode
contract instead:

* materialized data keeps answering, with an explicit staleness tag;
* queries that *need* a poll to the downed source raise a typed
  :class:`SourceUnavailableError` (callers choose: fail or serve stale);
* update transactions needing such a poll are deferred — requeued intact,
  retried next flush — never half-applied;
* once the window closes, retransmission drains everything and the view
  reconverges to ground truth.
"""

import random

import pytest

from repro.core import Annotation, AnnotatedVDP, build_vdp
from repro.correctness import (
    assert_materialized_correct,
    assert_view_correct,
    check_tagged_staleness,
)
from repro.errors import SourceUnavailableError
from repro.faults import ChannelFaults, FaultPlan, OutageWindow
from repro.relalg import make_schema
from repro.sim import EnvironmentDelays
from repro.runtime import SimulatedEnvironment
from repro.sources import MemorySource

X = make_schema("X", ["x1", "x2", "x3"], key=["x1"])
Y = make_schema("Y", ["y1", "y2"], key=["y1"])

OUTAGE = OutageWindow(3.0, 6.0)


def build_env(marks, outage_on="sx", window=OUTAGE):
    vdp = build_vdp(
        source_schemas={"X": X, "Y": Y},
        source_of={"X": "sx", "Y": "sy"},
        views={
            "Xp": "select[x3 < 5](X)",
            "Yp": "Y",
            "V": "project[x1, x2, y2](Xp join[x2 = y1] Yp)",
        },
        exports=["V"],
    )
    annotated = AnnotatedVDP(vdp, marks)
    rng = random.Random(7)
    sx = MemorySource(
        "sx",
        [X],
        initial={"X": [(i, rng.randrange(10), rng.randrange(5)) for i in range(10)]},
    )
    sy = MemorySource(
        "sy", [Y], initial={"Y": [(i, rng.randrange(10)) for i in range(8)]}
    )
    plan = FaultPlan(
        seed=1,
        channels={outage_on: ChannelFaults(outages=(window,))},
    )
    delays = EnvironmentDelays.uniform(
        ["sx", "sy"], ann_delay=0.2, comm_delay=0.1, u_hold_delay_med=1.0
    )
    env = SimulatedEnvironment(
        annotated,
        {"sx": sx, "sy": sy},
        delays,
        fault_plan=plan,
        record_updates=False,
    )
    return env, sx, sy


ALL_MAT = {
    "Xp": Annotation.all_materialized(["x1", "x2", "x3"]),
    "Yp": Annotation.all_materialized(["y1", "y2"]),
    "V": Annotation.all_materialized(["x1", "x2", "y2"]),
}

Y_VIRTUAL = {
    "Xp": Annotation.all_materialized(["x1", "x2", "x3"]),
    "Yp": Annotation.all_virtual(["y1", "y2"]),
    "V": Annotation.of({"x1": "m", "x2": "m", "y2": "v"}),
}


def test_materialized_answers_survive_outage_with_staleness_tag():
    env, sx, sy = build_env(ALL_MAT)
    probes = {}

    def probe():
        m = env.mediator
        probes["availability"] = m.source_availability()
        probes["unavailable"] = m.unavailable_sources()
        answer = m.query_relation_tagged("V")
        probes["tagged"] = answer
        probes["plain"] = m.query_relation("V")

    env.schedule_action(1.0, lambda: sx.insert("X", x1=500, x2=1, x3=1), "pre-outage commit")
    env.schedule_action(4.0, lambda: sx.insert("X", x1=501, x2=1, x3=1), "in-outage commit")
    env.schedule_action(4.5, probe, "probe during outage")
    env.run_until(30.0)
    env.mediator.run_update_transaction()

    assert probes["availability"] == {"sx": False, "sy": True}
    assert probes["unavailable"] == ("sx",)
    tagged = probes["tagged"]
    assert tagged.degraded
    assert tagged.tag.unavailable == ("sx",)
    # The pre-outage commit was reflected; staleness is measured from its
    # send time: at t=4.5 the answer is stale but bounded.
    assert 0.0 < tagged.tag.staleness["sx"] <= 4.5
    assert "sy" not in tagged.tag.staleness
    # The tagged value is the same materialized answer the plain path gives.
    assert tagged.value == probes["plain"]

    # After the window closes, the in-outage commit is retransmitted
    # through and the view reconverges exactly.
    assert env.drained(), env.fault_stats()
    assert any(r["x1"] == 501 for r in env.mediator.query_relation("V").rows())
    assert_materialized_correct(env.mediator)
    assert_view_correct(env.mediator)


def test_availability_restored_after_window():
    env, _, _ = build_env(ALL_MAT)
    seen = {}
    env.schedule_action(6.5, lambda: seen.update(env.mediator.source_availability()), "probe")
    env.run_until(10.0)
    assert seen == {"sx": True, "sy": True}
    assert env.mediator.staleness_tag().degraded is False
    assert env.mediator.unavailable_sources() == ()


def test_poll_requiring_query_raises_typed_error_during_outage():
    env, sx, sy = build_env(Y_VIRTUAL, outage_on="sy")
    caught = {}

    def probe():
        # Pre-outage traffic may have warmed the VAP temp cache, which would
        # (correctly) answer without touching sy — that degraded-mode win is
        # pinned in test_cache_degradation.py.  Drop it so this query
        # genuinely needs a poll.
        env.mediator.vap.clear_cache()
        with pytest.raises(SourceUnavailableError) as exc_info:
            env.mediator.query_relation("V")  # y2 is virtual: needs a poll
        caught["error"] = exc_info.value

    env.schedule_action(4.0, probe, "query during outage")
    env.run_until(10.0)
    err = caught["error"]
    assert err.source == "sy"
    assert err.until == OUTAGE.end
    assert "unavailable" in str(err)


def test_update_transactions_defer_and_retry_until_source_returns():
    """An X update needs a Y poll (Yp virtual).  With sy down, the flush
    must requeue the update untouched — phase (b) fails before any store
    mutation — and the periodic policy retries until the poll succeeds.
    The run bypasses the temp cache: with it live, a pre-outage fill would
    let phase (b) succeed without the poll (pinned in
    test_cache_degradation.py) and nothing would ever defer."""
    env, sx, sy = build_env(Y_VIRTUAL, outage_on="sy")
    env.schedule_action(3.2, lambda: sx.insert("X", x1=600, x2=2, x3=1), "commit during sy outage")
    with env.mediator.vap.cache_bypassed():
        env.run_until(30.0)
        env.mediator.run_update_transaction()

    stats = env.mediator.iup.stats
    assert stats.deferred_transactions >= 1
    # Requeues are visible in the queue's own accounting too.
    assert env.mediator.queue.total_requeued >= 1
    assert env.mediator.queue.is_empty()
    assert env.drained(), env.fault_stats()
    assert any(r["x1"] == 600 for r in env.mediator.query_relation("V").rows())
    assert_materialized_correct(env.mediator)
    assert_view_correct(env.mediator)


def test_tagged_staleness_checker_flags_tight_bounds_only():
    env, sx, sy = build_env(ALL_MAT)
    tags = []
    env.schedule_action(1.0, lambda: sx.insert("X", x1=700, x2=3, x3=1), "commit")
    for t in (4.0, 5.0, 5.9):
        env.schedule_action(t, lambda: tags.append(env.mediator.staleness_tag()), "tag")
    env.run_until(10.0)

    assert all(tag.degraded for tag in tags)
    assert max(tag.worst() for tag in tags) > 0
    # A bound wider than the outage length passes; a tight one reports.
    assert check_tagged_staleness(tags, {"sx": 10.0}) == []
    violations = check_tagged_staleness(tags, {"sx": 0.5})
    assert violations and all("sx" in v for v in violations)


def test_outage_during_quiescence_never_loses_anything():
    """An outage with no traffic inside it is a non-event: no deferral, no
    divergence, clean counters."""
    env, sx, sy = build_env(ALL_MAT)
    env.schedule_action(0.5, lambda: sx.insert("X", x1=800, x2=4, x3=1), "pre-outage")
    env.schedule_action(8.0, lambda: sy.insert("Y", y1=800, y2=4), "post-outage")
    env.run_until(20.0)
    env.mediator.run_update_transaction()
    assert env.mediator.iup.stats.deferred_transactions == 0
    assert env.drained(), env.fault_stats()
    assert_materialized_correct(env.mediator)
    assert_view_correct(env.mediator)
