"""A deterministic primary + replica-fleet driver for chaos tests/benches.

Wires the whole replication stack over the Figure 1 environment with
everything materialized (``ex21`` — replicas must never need to poll):
one primary :class:`~repro.core.SquirrelMediator` under a
:class:`~repro.durability.DurabilityManager`, a :class:`WalShipper`
streaming to N :class:`ReplicaMediator`\\ s through a seeded
:class:`~repro.faults.FaultPlan` (channel keys ``ship:replica-<i>``), a
:class:`ReadRouter` and a :class:`FailoverCoordinator`.  Time is one
:class:`~repro.sim.Simulator` (``harness.sim``) the shipper's streams run
on; ``harness.step`` counts whole time units along it.  Every run with the
same parameters is bit-identical.

The ground truth for every assertion is :meth:`expected_exports`: a
from-scratch mediator built over the *same live sources* — whatever the
primary acknowledged plus whatever the sources committed on their own is,
by definition, what a converged replica must show.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.core import SquirrelMediator, annotate
from repro.deltas import Delta
from repro.durability import CheckpointPolicy, DurabilityManager
from repro.errors import SimulatedCrash
from repro.faults.plan import CrashSchedule, FaultPlan
from repro.faults.reliable import BackoffPolicy
from repro.obs.tracer import NULL_TRACER
from repro.relalg import row
from repro.sim.scheduler import Simulator
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_sources, figure1_vdp

from repro.replication.failover import FailoverCoordinator
from repro.replication.replica import ReplicaMediator
from repro.replication.router import ReadRouter
from repro.replication.shipper import WalShipper

__all__ = ["ReplicationHarness"]


class ReplicationHarness:
    """One primary, N replicas, and a simulator carrying the fault plan."""

    def __init__(
        self,
        replicas: int = 2,
        seed: int = 0,
        faults: Optional[FaultPlan] = None,
        policy: Optional[BackoffPolicy] = None,
        crash_points: Sequence = (),
        directory: Optional[str] = None,
        checkpoint_every: int = 4,
        heartbeat_timeout: float = 3.0,
        on_stale: str = "degrade",
        tracer=NULL_TRACER,
    ):
        if directory is None:
            import tempfile

            self._tmp = tempfile.TemporaryDirectory()
            directory = self._tmp.name
        self.directory = directory
        self.seed = seed
        self.tracer = tracer
        self.annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
        self.sources = figure1_sources(seed=seed)
        self.primary = SquirrelMediator(self.annotated, self.sources, tracer=tracer)
        self.primary.initialize()
        self.durability = DurabilityManager.attach(
            self.primary,
            directory,
            policy=CheckpointPolicy(every_txns=checkpoint_every, every_wal_bytes=0),
            crash_schedule=CrashSchedule(list(crash_points)) if crash_points else None,
        )
        self.sim = Simulator(fault_plan=faults)
        self.shipper = WalShipper(
            self.durability, simulator=self.sim, policy=policy, tracer=tracer
        )
        self.replicas: List[ReplicaMediator] = []
        for i in range(replicas):
            replica = ReplicaMediator(
                f"replica-{i}",
                annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"]),
                self.sources,
                directory,
                tracer=tracer,
            )
            self.replicas.append(replica)
            self.shipper.attach_replica(replica)
        self.router = ReadRouter(
            self.replicas, primary=self.primary, on_stale=on_stale, tracer=tracer
        )
        self.coordinator = FailoverCoordinator(
            self.shipper, heartbeat_timeout=heartbeat_timeout
        )
        self.step = 0
        self.commits = 0
        self.primary_dead = False

    # ------------------------------------------------------------------
    # The workload
    # ------------------------------------------------------------------
    def workload_delta(self, k: int) -> Delta:
        """The k-th committed delta — seeded, collision-free keys."""
        rng = random.Random((self.seed << 20) + k)
        delta = Delta()
        if k % 3 == 2:
            delta.insert("S", row(s1=90_000 + k, s2=7000 + k, s3=rng.randrange(100)))
        else:
            delta.insert(
                "R",
                row(
                    r1=50_000 + k,
                    r2=rng.randrange(50),
                    r3=rng.randrange(1000),
                    r4=100 if k % 2 == 0 else rng.randrange(99),
                ),
            )
        return delta

    def commit(self) -> bool:
        """One source commit + primary refresh; False when the crash fired.

        A :class:`SimulatedCrash` kills the primary exactly as the crash
        schedule dictates — the source has already committed (it is
        autonomous), so the transaction is part of the ground truth either
        way.
        """
        k = self.commits
        self.commits += 1
        source = "db2" if k % 3 == 2 else "db1"
        self.sources[source].execute(self.workload_delta(k))
        if self.primary_dead:
            return False
        try:
            self.primary.refresh()
        except SimulatedCrash:
            self.kill_primary()
            return False
        return True

    def silent_commit(self) -> None:
        """A source-side commit the (dead or slow) primary never sees."""
        k = self.commits
        self.commits += 1
        source = "db2" if k % 3 == 2 else "db1"
        self.sources[source].execute(self.workload_delta(k))

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def tick(self) -> float:
        """Advance one step; the shipper runs only while the primary lives."""
        self.step += 1
        if not self.primary_dead:
            self.shipper.tick(float(self.step))
        return float(self.step)

    def run(self, commits: int) -> None:
        """``commits`` rounds of commit-then-tick."""
        for _ in range(commits):
            self.commit()
            self.tick()

    def drain(self) -> None:
        """Force every replica current (test/convergence-check hook)."""
        self.shipper.drain()

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def kill_primary(self) -> None:
        """The primary process dies: no more refreshes, ships, heartbeats."""
        if self.primary_dead:
            return
        self.primary_dead = True
        self.shipper.close()
        self.durability.close()

    def advance_past_timeout(self) -> float:
        """Silent ticks until heartbeat-timeout detection can fire."""
        target = self.step + int(self.coordinator.heartbeat_timeout) + 2
        while self.step < target:
            self.tick()
        return float(self.step)

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def expected_exports(self) -> Dict[str, object]:
        """Every export's content per a from-scratch recompute, by name.

        Builds a cold mediator over the same live sources — consuming
        nothing (``initialize`` snapshots; announcements are only taken by
        the primary's pump, which this never runs).
        """
        fresh = SquirrelMediator(
            annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"]), self.sources
        )
        fresh.initialize()
        return {name: fresh.query_relation(name) for name in sorted(fresh.vdp.exports)}

    def replica_exports(self, replica: ReplicaMediator) -> Dict[str, object]:
        assert replica.mediator is not None
        return {
            name: replica.mediator.query_relation(name)
            for name in sorted(replica.mediator.vdp.exports)
        }

    def assert_converged(self) -> None:
        """Every replica's exports equal the from-scratch recompute."""
        self.drain()
        expected = self.expected_exports()
        for replica in self.replicas:
            got = self.replica_exports(replica)
            for name in expected:
                if got.get(name) != expected[name]:
                    raise AssertionError(
                        f"{replica.name} diverged on export {name!r} "
                        f"(applied_txn={replica.applied_txn})"
                    )

    def close(self) -> None:
        self.shipper.close()
        if not self.primary_dead:
            self.durability.close()
        if hasattr(self, "_tmp"):
            self._tmp.cleanup()
