"""One transport: every message path keeps §4's per-source FIFO contract.

Announcements in a :class:`SimulatedEnvironment`, announcements in the
soak harness, and shipped WAL records all cross ``sim.Channel`` +
``ReliableSender`` / ``ReliableInbox``.  The regression below is the PR 10
bug class (a delayed message overtaken by its successor) driven through
each entry point: a row is inserted, then deleted one time unit later,
and the insert's transmission is delayed and reordered past the delete's.
The delete physically arrives first everywhere; the inbox must hold it
until the insert is in.
"""

import pytest

from repro.core import annotate
from repro.correctness import assert_materialized_correct, assert_view_correct
from repro.deltas import SetDelta
from repro.faults import BackoffPolicy, FaultDecision, FaultPlan
from repro.generator.federation import ChurnPlan
from repro.relalg import Row, row
from repro.replication import ReplicationHarness
from repro.runtime import SimulatedEnvironment
from repro.sim import EnvironmentDelays
from repro.soak import SoakConfig
from repro.soak.harness import SoakHarness
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_sources, figure1_vdp


class ScriptedPlan(FaultPlan):
    """Fault-free, except for decisions queued per channel key (one is
    consumed by each transmission on that key, in order)."""

    def __init__(self):
        super().__init__()
        self.queued = {}

    def decide(self, key, transmission, attempt=0, now=0.0):
        if self.queued.get(key):
            return self.queued[key].pop(0)
        return super().decide(key, transmission, attempt, now)


#: The insert's first copy is held back past the delete (and, being
#: reordered, does not hold the delete back); its first retransmission is
#: lost, so no copy of the insert can arrive before the delete does.
OVERTAKEN = [FaultDecision(extra_delay=2.5, reorder=True), FaultDecision(drop=True)]


def _delta(relation, inserts=(), deletes=()):
    delta = SetDelta()
    for r in inserts:
        delta.insert(relation, r)
    for r in deletes:
        delta.delete(relation, r)
    return delta


def _record_releases(inbox):
    released = []
    sink = inbox.sink

    def recording_sink(envelope):
        released.append(envelope.seq)
        sink(envelope)

    inbox.sink = recording_sink
    return released


def _through_environment():
    plan = ScriptedPlan()
    plan.queued["db1"] = list(OVERTAKEN)
    env = SimulatedEnvironment(
        annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"]),
        figure1_sources(r_rows=30, s_rows=20, seed=7),
        EnvironmentDelays.uniform(
            ["db1", "db2"], ann_delay=0.1, comm_delay=0.1, u_hold_delay_med=1.0
        ),
        fault_plan=plan,
        backoff=BackoffPolicy(base_timeout=1.0, multiplier=1.0, max_backoff=1.0),
    )
    inbox = env.links["db1"].inbox
    released = _record_releases(inbox)
    doomed = row(r1=9001, r2=3, r3=1, r4=100)
    env.schedule_transaction(1.0, "db1", _delta("R", inserts=[doomed]))
    env.schedule_transaction(2.0, "db1", _delta("R", deletes=[doomed]))
    env.run_until(8.0)
    assert env.drained()
    assert_materialized_correct(env.mediator)
    assert_view_correct(env.mediator)
    return inbox, released


def _through_soak():
    harness = SoakHarness(
        SoakConfig(sources=6, seed=1, steps=6, checkpoint_every=6, faults=ScriptedPlan())
    )
    # No churn: the only commits are the two scheduled below, on the
    # harness's own simulator.
    harness.plan = ChurnPlan(harness.plan.initial_members, (), harness.config.steps)
    name = next(n for n in sorted(harness.members) if harness.links[n].announces)
    harness.faults.queued[name] = list(OVERTAKEN)
    inbox = harness.links[name].inbox
    released = _record_releases(inbox)
    source, relation = harness.sources[name], harness.fed.relation(name)
    k, a, b = harness.fed.attributes(name)
    doomed = Row({k: 10**6, a: 0, b: 0})
    harness.sim.schedule_at(1.0, lambda: source.execute(_delta(relation, inserts=[doomed])))
    harness.sim.schedule_at(2.0, lambda: source.execute(_delta(relation, deletes=[doomed])))
    result = harness.run()
    # The checkpoint at step 6 compared every repository and export with a
    # from-scratch rebuild and with a freshly generated mediator.
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.stats.convergence_checks == 1
    return inbox, released


def _through_shipper():
    plan = ScriptedPlan()
    plan.queued["ship:replica-0"] = list(OVERTAKEN)
    h = ReplicationHarness(replicas=1, seed=3, faults=plan)
    try:
        inbox = h.shipper.streams["replica-0"].inbox
        released = _record_releases(inbox)
        doomed = row(r1=9001, r2=3, r3=1, r4=100)
        survivor = row(r1=9002, r2=3, r3=2, r4=100)
        # Record 1 (insert) is overtaken by record 2 (delete).  Physical
        # replay out of order would skip record 1 and lose the survivor.
        h.sources["db1"].execute(_delta("R", inserts=[doomed, survivor]))
        h.primary.refresh()
        h.tick()
        h.sources["db1"].execute(_delta("R", deletes=[doomed]))
        h.primary.refresh()
        for _ in range(4):
            h.tick()
        assert h.replicas[0].applied_txn == 2
        assert h.replicas[0].lag(float(h.step)) == 0.0
        h.assert_converged()
        return inbox, released
    finally:
        h.close()


@pytest.mark.parametrize(
    "entry_point", [_through_environment, _through_soak, _through_shipper]
)
def test_delayed_insert_is_never_overtaken_by_its_delete(entry_point):
    inbox, released = entry_point()
    assert inbox.gaps_detected >= 1  # the delete did arrive first
    assert inbox.duplicates_dropped >= 1  # the late copy arrived too
    assert released == [0, 1]  # and still went out behind the insert


def test_soak_shipper_runs_on_the_harness_simulator():
    harness = SoakHarness(SoakConfig(sources=8, seed=3, steps=6, checkpoint_every=3, replicas=1))
    result = harness.run()
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert harness.shipper.sim is harness.sim
    assert harness.step == harness.sim.now == 5.0
    assert result.metrics["replication.records_shipped"] > 0


def test_soak_leaves_the_callers_fault_plan_untouched():
    plan = FaultPlan(seed=4)
    result = SoakHarness(
        SoakConfig(sources=10, seed=7, steps=12, checkpoint_every=6, faults=plan)
    ).run()
    assert result.ok and result.stats.outages > 0
    assert plan.channels == {}
