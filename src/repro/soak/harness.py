"""The churn & soak harness: seeded chaos with provable convergence.

One :class:`SoakHarness` run executes a :class:`~repro.generator.ChurnPlan`
against a live mediator, step by step:

1. **churn** — ``leave`` events detach sources (dropping their in-flight
   messages), ``join`` events attach new or previously detached sources
   with staleness-tagged backfill, ``outage`` events write an
   :class:`~repro.faults.OutageWindow` into the run's fault plan,
   ``update`` events commit deterministic source transactions;
2. **messaging** — every reachable announcing member sends its pending
   net update over a :class:`~repro.runtime.ReliableChannelLink` — the
   transport :class:`~repro.runtime.SimulatedEnvironment` uses (faulty
   :class:`~repro.sim.Channel`, retransmitting sender, in-order inbox) —
   on the harness's one :class:`~repro.sim.Simulator`: step ``n`` is
   simulated time ``n``.  All of it is a pure function of the seed;
3. **propagation** — one IUP transaction per step; transactions deferred
   by an outage retry on later steps.  A :class:`~repro.faults.CrashSchedule`
   may kill the mediator mid-durability-protocol, after which the harness
   runs full recovery (:class:`~repro.durability.RecoveryManager`) and
   carries on;
4. **freshness** — each step's staleness tag is checked against the
   Theorem 7.2 SLO bound for announcing members (see
   ``docs/scenarios.md`` for the bound's derivation and the attach-age
   adjustment);
5. **convergence checkpoints** — periodically the harness clears
   outages, flushes every link, quiesces, and proves *churned ≡ static*:
   every export equals a freshly generated mediator over the same member
   set and live sources, and every materialized repository equals a
   from-scratch rebuild.

Any discrepancy is recorded as a violation in the :class:`SoakResult`
(the ``repro soak`` CLI turns violations into a non-zero exit).
"""

from __future__ import annotations

import copy
import dataclasses
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.correctness import (
    assert_materialized_correct,
    assert_view_correct,
    check_tagged_staleness,
)
from repro.deltas import SetDelta
from repro.durability import DurabilityManager, restart_after_crash
from repro.errors import SimulatedCrash, SourceUnavailableError
from repro.faults import ChannelFaults, CrashPoint, CrashSchedule, FaultPlan, OutageWindow
from repro.faults.staleness import StalenessTag
from repro.generator import (
    ChurnPlan,
    FederationSpec,
    build_annotated_from_spec,
    generate_mediator,
    make_federation,
    make_sources,
    plan_events,
)
from repro.generator.federation import KEY_DOMAIN, _subrng
from repro.faults.reliable import BackoffPolicy
from repro.obs.export import export_jsonl
from repro.obs.profile import CostProfiler
from repro.obs.telemetry import (
    BurnRateAlert,
    FreshnessBurnRateMonitor,
    TelemetryPipeline,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import Row
from repro.replication import ReplicaMediator, WalShipper
from repro.runtime import ReliableChannelLink
from repro.sim import Simulator

__all__ = ["SoakConfig", "SoakHarness", "SoakResult", "SoakStats", "run_soak"]


#: Mild default chaos: every channel loses, duplicates, and delays some
#: messages.  ``fault_free_after_attempt`` (plan default 3) guarantees every
#: retransmission chain terminates, bounding delivery latency.
DEFAULT_CHANNEL_FAULTS = ChannelFaults(
    drop_rate=0.10,
    duplicate_rate=0.10,
    delay_rate=0.20,
    reorder_rate=0.10,
    delay_range=(1.0, 2.0),
    max_duplicates=2,
)

#: Announcement retry pacing: an unacknowledged message is retransmitted
#: one step after each attempt, every step, until it is acknowledged.
RETRY_NEXT_STEP = BackoffPolicy(base_timeout=1.0, multiplier=1.0, max_backoff=1.0)


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's parameters (everything derives from ``seed``)."""

    sources: int = 50
    seed: int = 0
    steps: int = 40
    checkpoint_every: int = 10
    #: Theorem 7.2 SLO bound (steps) applied to announcing members' tagged
    #: staleness; see ``docs/scenarios.md`` for the derivation.
    staleness_bound: float = 15.0
    updates_per_step: Optional[int] = None
    faults: Optional[FaultPlan] = None
    #: ``(txn, phase)`` crash points; non-empty implies durability.
    crash_points: Tuple[Tuple[int, str], ...] = ()
    durability_dir: Optional[str] = None
    eca_enabled: bool = True
    key_based_enabled: bool = True
    #: WAL-shipped read replicas fed by the durability manager (implies
    #: durability).  Each replica applies shipped records over the fault
    #: plan's ``ship:replica-<i>`` channels, is checked for lag-SLO burn
    #: every step, and must equal the primary's materialized state at
    #: every convergence checkpoint.
    replicas: int = 0
    #: How many members (lowest-sorted names) are backed by SQLite rather
    #: than memory; defaults to 1 when replicas are enabled, else 0.
    sqlite_sources: Optional[int] = None
    #: When set, the run streams continuous telemetry into this directory:
    #: ``metrics.jsonl`` (cadenced registry snapshots + burn-rate alerts),
    #: ``trace.jsonl`` (the schema-validated trace), and ``profile.json``
    #: (the folded :class:`~repro.obs.profile.CostProfile`).
    telemetry_dir: Optional[str] = None
    #: Steps between metrics snapshots in the telemetry stream.
    telemetry_cadence: int = 1


@dataclass
class SoakStats:
    """Counters registered as ``soak.*`` in the mediator's metrics."""

    attaches: int = 0
    detaches: int = 0
    outages: int = 0
    updates_applied: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    retransmissions: int = 0
    duplicates: int = 0
    deferred_txns: int = 0
    crashes: int = 0
    recoveries: int = 0
    convergence_checks: int = 0
    backfill_rows: int = 0
    #: Replica-fleet rebuilds forced by membership changes or recovery.
    replica_rebuilds: int = 0


@dataclass
class SoakResult:
    """What one soak run observed."""

    config: SoakConfig
    steps_run: int
    final_members: Tuple[str, ...]
    convergence_violations: List[str] = field(default_factory=list)
    slo_violations: List[str] = field(default_factory=list)
    worst_staleness: Dict[str, float] = field(default_factory=dict)
    checkpoints: List[Dict] = field(default_factory=list)
    stats: SoakStats = field(default_factory=SoakStats)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Burn-rate alerts raised by the live SLO monitors (the telemetry
    #: pipeline's per-source monitor and the per-replica lag monitor).
    alerts: List[BurnRateAlert] = field(default_factory=list)
    #: Worst observed per-replica lag (steps), by replica name.
    replica_worst_lag: Dict[str, float] = field(default_factory=dict)
    telemetry_dir: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when no convergence or SLO violation was recorded."""
        return not self.convergence_violations and not self.slo_violations


class SoakHarness:
    """Drives one seeded churn & soak run; see the module docstring."""

    def __init__(self, config: SoakConfig, tracer: Tracer = NULL_TRACER):
        self.config = config
        # Telemetry needs a live trace stream (for the profiler and the
        # exported trace.jsonl); upgrade the default disabled tracer.
        if config.telemetry_dir and not tracer.enabled:
            tracer = Tracer(enabled=True)
        self.tracer = tracer
        self.profiler: Optional[CostProfiler] = None
        self.telemetry: Optional[TelemetryPipeline] = None
        if config.telemetry_dir:
            os.makedirs(config.telemetry_dir, exist_ok=True)
            self.profiler = CostProfiler().attach(tracer)
            self.telemetry = TelemetryPipeline(
                os.path.join(config.telemetry_dir, "metrics.jsonl"),
                # A callable, not a registry: crash recovery replaces the
                # mediator (and its registry) mid-run.
                snapshot_fn=lambda: self.mediator.metrics.snapshot(),
                bound=config.staleness_bound,
                cadence=config.telemetry_cadence,
                tracer=tracer,
            )
        self.fed: FederationSpec = make_federation(config.sources, seed=config.seed)
        self.plan: ChurnPlan = plan_events(
            self.fed, config.steps, updates_per_step=config.updates_per_step
        )
        # A private copy: churn outages are written into its channel table,
        # and the caller's plan must come back unchanged.
        self.faults = copy.copy(
            config.faults or FaultPlan(seed=config.seed, default=DEFAULT_CHANNEL_FAULTS)
        )
        self.faults.channels = dict(self.faults.channels)
        #: The run's one clock and event queue: announcements and shipped
        #: WAL records all travel on it.
        self.sim = Simulator(fault_plan=self.faults)
        self.members: set = set(self.plan.initial_members)
        self.stats = SoakStats()
        self.result = SoakResult(
            config=config, steps_run=0, final_members=(), stats=self.stats
        )
        # All source objects ever created; a source keeps accumulating
        # committed transactions while detached, so re-attach backfills
        # real divergence.
        spec = self.fed.spec_text_for(sorted(self.members))
        self.sources = make_sources(spec, self.fed.initial_data(sorted(self.members)))
        # Heterogeneous backends: the first N sorted members live in
        # SQLite, exercising the pushdown source under churn, shipping,
        # and recovery exactly like the memory-backed ones.
        n_sqlite = config.sqlite_sources
        if n_sqlite is None:
            n_sqlite = 1 if config.replicas > 0 else 0
        for name in sorted(self.members)[:n_sqlite]:
            self.sources.update(
                make_sources(
                    self.fed.spec_text_for([name]),
                    self.fed.initial_data([name]),
                    backend="sqlite",
                )
            )
        self.links: Dict[str, ReliableChannelLink] = {}
        # Links a re-wire replaced; kept for their transport counters.
        self._retired_links: List[ReliableChannelLink] = []
        for name in sorted(self.sources):
            self._wire(name)
        self._update_counts: Dict[str, int] = {}
        self._fresh_keys: Dict[str, int] = {}
        self._live_rows: Dict[str, List[Tuple[int, int, int]]] = {
            name: list(self.fed.initial_rows(name)) for name in self.sources
        }
        # Per-source freshness floor: the latest step at which the
        # source's state was known fully reflected (init, attach
        # backfill, recovery catch-up, or a quiesced checkpoint).
        self.reflected_floor: Dict[str, int] = {name: 0 for name in self.members}

        self.mediator = generate_mediator(
            spec,
            self.sources,
            eca_enabled=config.eca_enabled,
            key_based_enabled=config.key_based_enabled,
            tracer=tracer,
        )
        # generate_mediator builds its own DirectLinks; swap in the
        # harness-played links (with correct announce flags) post-init.
        self._install_links()
        self.mediator.metrics.register_stats("soak", self.stats)

        self.durability: Optional[DurabilityManager] = None
        self.durability_dir: Optional[str] = None
        if config.crash_points or config.durability_dir or config.replicas > 0:
            self.durability_dir = config.durability_dir or tempfile.mkdtemp(
                prefix="repro-soak-"
            )
            schedule = CrashSchedule(
                [CrashPoint(txn, phase) for txn, phase in config.crash_points]
            )
            self.durability = DurabilityManager.attach(
                self.mediator, self.durability_dir, crash_schedule=schedule
            )

        self.shipper: Optional[WalShipper] = None
        self.replicas: List[ReplicaMediator] = []
        self.replica_monitor: Optional[FreshnessBurnRateMonitor] = None
        if config.replicas > 0:
            self.replica_monitor = FreshnessBurnRateMonitor(
                bound=config.staleness_bound
            )
            self._rebuild_replication()

    @property
    def step(self) -> int:
        """The current step: the simulator's clock in whole time units."""
        return int(self.sim.now)

    # ------------------------------------------------------------------
    # Read replicas
    # ------------------------------------------------------------------
    def _rebuild_replication(self) -> None:
        """(Re)build the replica fleet against the current membership.

        Called at startup and after any event that invalidates the fleet's
        schema or shipping tap: attach/detach (the member set changed, and
        both leave a fresh full checkpoint to resync from) and crash
        recovery (the durability manager itself was replaced).  Each
        rebuild bootstraps every replica from the newest checkpoint chain
        plus the live WAL tail — counted in ``replication.replica_resyncs``.
        """
        if self.config.replicas <= 0 or self.durability is None:
            return
        if self.shipper is not None:
            self.shipper.close()
            self.stats.replica_rebuilds += 1
        self.shipper = WalShipper(
            self.durability,
            simulator=self.sim,
            policy=BackoffPolicy(),
            tracer=self.tracer,
        )
        members = sorted(self.members)
        member_sources = {n: self.sources[n] for n in members}
        self.replicas = []
        for i in range(self.config.replicas):
            replica = ReplicaMediator(
                f"replica-{i}",
                build_annotated_from_spec(self.fed.spec_text_for(members)),
                member_sources,
                self.durability_dir,
                tracer=self.tracer,
                eca_enabled=self.config.eca_enabled,
                key_based_enabled=self.config.key_based_enabled,
            )
            self.replicas.append(replica)
            self.shipper.attach_replica(replica)

    def _tick_replication(self) -> None:
        """Heal and heartbeat the fleet (its records move on the shared
        simulator), then check every replica's lag SLO."""
        if self.shipper is None:
            return
        now = float(self.step)
        self.shipper.tick(now)
        observed: Dict[str, float] = {}
        for replica in self.replicas:
            lag = replica.lag(now)
            # A mid-resync replica's lag is unbounded; feed the monitor a
            # finite over-bound reading so the burn-rate math stays sane
            # while still guaranteeing an alert if it persists.
            value = (
                lag
                if lag != float("inf")
                else 2.0 * self.config.staleness_bound
            )
            observed[replica.name] = value
            if value > self.result.replica_worst_lag.get(replica.name, 0.0):
                self.result.replica_worst_lag[replica.name] = value
        if self.replica_monitor is not None and observed:
            for alert in self.replica_monitor.observe(self.step, observed):
                self.result.alerts.append(alert)
                self.result.slo_violations.append(
                    f"step {alert.step}: replica {alert.source} lag burn-rate "
                    f"alert ({alert.staleness:g} vs bound {alert.bound:g})"
                )

    # ------------------------------------------------------------------
    # Link plumbing
    # ------------------------------------------------------------------
    def _wire(self, name: str) -> None:
        """Connect one source to the mediator over a fresh transport.

        Re-wiring (the source left, or the mediator crashed) abandons the
        old transport's in-flight and unacked messages: their payloads are
        in the source's log, re-attach backfill or recovery catch-up reads
        them there, and a stale copy delivered later would double-apply.
        """
        old = self.links.get(name)
        if old is not None:
            old.sender.forget_all()
            self._retired_links.append(old)
        self.links[name] = ReliableChannelLink(
            self.sim,
            self.sources[name],
            True if old is None else old.announces,
            # Late-bound: crash recovery replaces the mediator.
            lambda *args, **meta: self.mediator.enqueue_update(*args, **meta),
            RETRY_NEXT_STEP,
            tracer=self.tracer,
        )

    def _install_links(self) -> None:
        """Hand the mediator the harness's links, announce flags current."""
        for name in self.mediator.sources:
            link = self.links[name]
            kind = self.mediator.contributor_kinds.get(name)
            link.announces = bool(kind and kind.announces)
            self.mediator.links[name] = link
        self.mediator.vap.links = dict(self.mediator.links)

    def _set_outages(self, name: str, windows: Tuple[OutageWindow, ...]) -> None:
        faults = self.faults.faults_for(name)
        if faults.outages != windows:
            self.faults.channels[name] = dataclasses.replace(faults, outages=windows)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _send_pending(self) -> None:
        """Every reachable announcing member sends its pending net update
        (a down link sends nothing; its pending update accumulates)."""
        for name in sorted(self.members):
            link = self.links[name]
            if link.announces and link.is_available():
                link.announce()

    def _count_network(self) -> None:
        """Read the network counters off every transport this run wired."""
        links = self._retired_links + list(self.links.values())
        stats = self.stats
        stats.messages_sent = sum(link.sender.sent for link in links)
        stats.messages_delivered = sum(link.inbox.delivered for link in links)
        stats.messages_dropped = sum(link.channel.messages_dropped for link in links)
        stats.retransmissions = sum(link.sender.retransmits for link in links)
        stats.duplicates = sum(link.channel.messages_duplicated for link in links)

    # ------------------------------------------------------------------
    # Churn events
    # ------------------------------------------------------------------
    def _apply_update(self, name: str) -> None:
        count = self._update_counts.get(name, 0)
        self._update_counts[name] = count + 1
        rng = _subrng(self.config.seed, "op", name, count)
        relation = self.fed.relation(name)
        k, a, b = self.fed.attributes(name)
        rows = self._live_rows[name]
        delta = SetDelta()
        if rows and rng.random() < 0.3:
            victim = rows.pop(rng.randrange(len(rows)))
            delta.delete(relation, Row({k: victim[0], a: victim[1], b: victim[2]}))
        else:
            key = KEY_DOMAIN + self._fresh_keys.get(name, 0)
            self._fresh_keys[name] = key - KEY_DOMAIN + 1
            row = (key, rng.randrange(KEY_DOMAIN), rng.randrange(1000))
            rows.append(row)
            delta.insert(relation, Row({k: row[0], a: row[1], b: row[2]}))
        self.sources[name].execute(delta)
        self.stats.updates_applied += 1

    def _attach(self, name: str) -> None:
        if name not in self.sources:
            spec = self.fed.spec_text_for([name])
            self.sources.update(make_sources(spec, self.fed.initial_data([name])))
            self._wire(name)
            self._live_rows[name] = list(self.fed.initial_rows(name))
        views, annotations = self.fed.attach_payload(name, sorted(self.members))
        link = self.links[name]
        self._set_outages(name, ())
        try:
            result = self.mediator.attach_source(
                self.sources[name], views, annotations, link=link
            )
        except SourceUnavailableError:
            # The plan never schedules a join during a *planned* outage,
            # but crash/recovery timing can still leave a partner down at
            # backfill time; model the join as waiting out the outage.
            for other in self.links:
                self._set_outages(other, ())
            result = self.mediator.attach_source(
                self.sources[name], views, annotations, link=link
            )
        self.members.add(name)
        self._install_links()
        self.reflected_floor[name] = self.step
        self.stats.attaches += 1
        self.stats.backfill_rows += result.backfill_rows
        # attach_source checkpoints (full) under durability, so the fleet
        # can re-baseline against the widened membership immediately.
        self._rebuild_replication()

    def _detach(self, name: str) -> None:
        self.mediator.detach_source(name)
        self.members.discard(name)
        self._wire(name)
        self._install_links()
        self.stats.detaches += 1
        self._rebuild_replication()

    def _apply_events(self) -> None:
        # Tolerant of plan/actual membership divergence: a crash during an
        # attach/detach checkpoint recovers to the *pre-change* membership,
        # losing that membership event — later planned events referring to
        # the diverged state are skipped rather than failed.
        for event in self.plan.events_at(self.step):
            try:
                if event.kind == "leave" and event.source in self.members:
                    self._detach(event.source)
                elif event.kind == "join" and event.source not in self.members:
                    self._attach(event.source)
                elif event.kind == "outage" and event.source in self.members:
                    window = OutageWindow(self.step, self.step + event.duration)
                    self._set_outages(event.source, (window,))
                    self.stats.outages += 1
                elif event.kind == "update" and event.source in self.sources:
                    # Detached sources keep committing — re-attach backfills
                    # the divergence.
                    self._apply_update(event.source)
            except SimulatedCrash:
                self._recover()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        if self.durability is not None:
            self.durability.close()
        members = sorted(self.members)
        for name in members:
            self._wire(name)
        manager, recoveries, again = restart_after_crash(
            self.durability_dir,
            build_annotated_from_spec(self.fed.spec_text_for(members)),
            {n: self.sources[n] for n in members},
            crash_schedule=self.durability.crash_schedule if self.durability else None,
            on_stale="reinit",
            links={n: self.links[n] for n in members},
            eca_enabled=self.config.eca_enabled,
            key_based_enabled=self.config.key_based_enabled,
            tracer=self.tracer,
        )
        self.stats.crashes += 1 + len(again)
        self.stats.recoveries += len(recoveries)
        self.durability = manager
        self.mediator = manager.mediator
        self._install_links()
        self.mediator.metrics.register_stats("soak", self.stats)
        # Recovery's catch-up replays every member's source log to its
        # current end, so every member's state is known reflected as of now.
        for name in members:
            self.reflected_floor[name] = self.step
        # The shipper's tap died with the old durability manager; rebuild
        # the fleet against the recovered one.
        self._rebuild_replication()

    def _run_txn(self) -> None:
        try:
            result = self.mediator.run_update_transaction()
            if result.deferred:
                self.stats.deferred_txns += 1
        except SimulatedCrash:
            self._recover()

    # ------------------------------------------------------------------
    # Freshness SLO
    # ------------------------------------------------------------------
    def _check_slo(self) -> None:
        tag = self.mediator.staleness_tag(now=float(self.step))
        adjusted: Dict[str, float] = {}
        for name, value in tag.staleness.items():
            # The SLO is checked on the *ignorance window* — time since
            # the newest source state known fully reflected — which is the
            # queue's now−last_flushed_send measure capped by the floor a
            # backfill, recovery catch-up, or quiesced checkpoint
            # established (the queue's bookkeeping restarts empty after a
            # recovery, so its "stale since init" fallback over-reports).
            age = float(self.step - self.reflected_floor.get(name, 0))
            adjusted[name] = min(value, age)
        bound = {
            name: self.config.staleness_bound
            for name in sorted(self.members)
            if (kind := self.mediator.contributor_kinds.get(name)) and kind.announces
        }
        if adjusted:
            tags = [StalenessTag(time=tag.time, staleness=adjusted)]
            for violation in check_tagged_staleness(tags, bound):
                self.result.slo_violations.append(violation)
            for name, value in adjusted.items():
                if value > self.result.worst_staleness.get(name, 0.0):
                    self.result.worst_staleness[name] = value
        if self.telemetry is not None:
            # The burn monitor sees every announcing member every step —
            # a fresh reading when the tag has one, a zero burn otherwise
            # — so the fast/slow windows stay step-aligned across sources.
            observed = {name: adjusted.get(name, 0.0) for name in sorted(bound)}
            self.result.alerts.extend(self.telemetry.observe(self.step, observed))

    # ------------------------------------------------------------------
    # Convergence checkpoints
    # ------------------------------------------------------------------
    def _quiesce(self) -> bool:
        for name in self.links:
            self._set_outages(name, ())
        for _ in range(200):
            for name in sorted(self.members):
                if self.links[name].announces:
                    self.links[name].flush_before_answer()
            idle = self.mediator.queue.is_empty()
            try:
                result = self.mediator.run_update_transaction()
            except SimulatedCrash:
                self._recover()
                continue
            if idle and not result.deferred and self.mediator.queue.is_empty():
                return True
        return False

    def _check_convergence(self) -> None:
        self.stats.convergence_checks += 1
        step = self.step
        violations_before = len(self.result.convergence_violations)
        if not self._quiesce():
            self.result.convergence_violations.append(
                f"step {step}: failed to quiesce within the iteration cap"
            )
            return
        for name in self.members:
            self.reflected_floor[name] = step
        try:
            assert_materialized_correct(self.mediator)
        except AssertionError as exc:
            self.result.convergence_violations.append(f"step {step}: {exc}")
        try:
            assert_view_correct(self.mediator)
        except AssertionError as exc:
            self.result.convergence_violations.append(f"step {step}: {exc}")
        # The headline churned ≡ static property: a mediator *freshly
        # generated* over the surviving member set and the same live
        # sources must agree on every export.
        members = sorted(self.members)
        fresh = generate_mediator(
            self.fed.spec_text_for(members),
            {n: self.sources[n] for n in members},
            eca_enabled=self.config.eca_enabled,
            key_based_enabled=self.config.key_based_enabled,
        )
        if set(self.mediator.vdp.exports) != set(fresh.vdp.exports):
            self.result.convergence_violations.append(
                f"step {step}: export sets diverged "
                f"(churned {sorted(self.mediator.vdp.exports)}, "
                f"static {sorted(fresh.vdp.exports)})"
            )
        else:
            for export in sorted(fresh.vdp.exports):
                churned = self.mediator.query_relation(export)
                static = fresh.query_relation(export)
                if churned != static:
                    self.result.convergence_violations.append(
                        f"step {step}: export {export!r} diverged from the "
                        f"statically built mediator"
                    )
        # Replica ≡ primary: after a full drain of the shipping pipeline
        # every replica's materialized repositories must equal the
        # primary's, node for node.  (Repos, not exports: bulk-tier
        # exports are virtual, and a replica never polls a source.)
        if self.shipper is not None:
            self.shipper.drain()
            primary_repos = self.mediator.store.repos()
            for replica in self.replicas:
                assert replica.mediator is not None
                replica_repos = replica.mediator.store.repos()
                if set(replica_repos) != set(primary_repos):
                    self.result.convergence_violations.append(
                        f"step {step}: {replica.name} node sets diverged "
                        f"(replica {sorted(replica_repos)}, "
                        f"primary {sorted(primary_repos)})"
                    )
                    continue
                for node in sorted(primary_repos):
                    if replica_repos[node] != primary_repos[node]:
                        self.result.convergence_violations.append(
                            f"step {step}: {replica.name} diverged from the "
                            f"primary on node {node!r}"
                        )
        self.result.checkpoints.append(
            {
                "step": step,
                "members": len(members),
                "violations": len(self.result.convergence_violations)
                - violations_before,
            }
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SoakResult:
        """Execute the whole schedule; returns the populated result."""
        for step in range(self.config.steps):
            self.sim.run_until(step)  # due deliveries and retransmissions
            self._apply_events()
            self._send_pending()
            self.sim.run_until(step)
            self._run_txn()
            self._tick_replication()
            self._count_network()
            self._check_slo()
            self.result.steps_run = step + 1
            if (step + 1) % self.config.checkpoint_every == 0:
                self._check_convergence()
        if self.config.steps % self.config.checkpoint_every != 0:
            self.sim.run_until(self.config.steps)
            self._check_convergence()
        self._count_network()
        self.result.final_members = tuple(sorted(self.members))
        self.result.metrics = {
            name: value
            for name, value in self.mediator.metrics.snapshot().items()
            if isinstance(value, (int, float))
        }
        if self.telemetry is not None and self.profiler is not None:
            final_step = float(self.config.steps)
            profile = self.profiler.profile()
            self.telemetry.write_profile(final_step, profile.to_dict())
            self.telemetry.close(step=final_step)
            telemetry_dir = self.config.telemetry_dir
            assert telemetry_dir is not None
            with open(os.path.join(telemetry_dir, "profile.json"), "w") as handle:
                handle.write(profile.to_json(indent=2) + "\n")
            export_jsonl(self.tracer, os.path.join(telemetry_dir, "trace.jsonl"))
            self.result.telemetry_dir = telemetry_dir
        if self.shipper is not None:
            self.shipper.close()
        if self.durability is not None:
            self.durability.close()
        return self.result


def run_soak(config: SoakConfig, tracer: Tracer = NULL_TRACER) -> SoakResult:
    """Run one soak schedule; see :class:`SoakHarness`."""
    return SoakHarness(config, tracer=tracer).run()
