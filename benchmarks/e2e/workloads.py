"""The four seeded closed-loop workloads.

One client, one driver thread: the next operation is issued when the
previous returns.  Every mediator is default-constructed — no ablation,
layout or shard flag, ``CheckpointPolicy()`` default, ``WalShipper`` with
no fault plan — so a change that moves a default is measured automatically,
parent against change, with no knob here.  WAL flush policy on both sides
of every comparison: flush-to-OS per record, ``sync=False``.

Initial data and federation topology come from :data:`DATA_SEED`; ``--seed``
drives only the operation stream (victims, values, query ranges, order).
Class mixes are exact proportions shuffled by the seed, not independent
draws, so two seeds differ in *which* rows they touch and not in *how much*
work they ask for — the property that keeps ten seeds within one bound.
Victims are drawn from sorted key lists, so ``PYTHONHASHSEED`` cannot
change a stream.  Everything a repeat will send is built before its clock
starts; the timed loops contain only calls into ``repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.core import SquirrelMediator, annotate
from repro.correctness import (
    assert_materialized_correct,
    assert_view_correct,
    recompute_all,
)
from repro.deltas import SetDelta
from repro.durability import (
    DurabilityManager,
    RecoveryManager,
    WalRecord,
    WalSourceEntry,
    WriteAheadLog,
)
from repro.generator import build_annotated_from_spec, make_federation, make_sources
from repro.relalg import Evaluator, parse_expression, row
from repro.replication import ReplicaMediator, WalShipper
from repro.sources import MemorySource, SQLiteSource
from repro.workloads import (
    FIGURE1_ANNOTATIONS,
    figure1_schemas,
    figure1_vdp,
    figure4_sources,
    figure4_vdp,
)

from calibration import Calibration
from tracing import SpanRecorder

__all__ = ["DATA_SEED", "WORKLOADS", "Repeat", "Workload"]

DATA_SEED = 2063

#: One query in this many is checked against the recompute oracle right
#: after it returns (outside every operation's interval).
SPOT_EVERY = 100


class Repeat:
    """What the driver loop of one repeat recorded."""

    def __init__(self) -> None:
        #: ``(start, end)`` per operation, sequential and disjoint; the
        #: timed section is the sum of these intervals.
        self.ops: List[Tuple[float, float]] = []
        #: Stream operations (source commits + queries + recoveries).
        self.stream_ops = 0
        #: ``(start, seconds)`` per latency class.
        self.latency: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        #: Sampled between operations by every driver loop.
        self.calibration = Calibration()
        self.answers: List[object] = []
        self.checks = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, assertion, *args) -> None:
        """Run one of the repo's ``assert_*`` oracles as a counted check."""
        try:
            assertion(*args)
        except AssertionError as exc:
            self.check(False, f"{what}: {exc}")
        else:
            self.check(True, what)

    def digest(self) -> str:
        """Order-independent (within each answer) digest of every answer."""
        h = hashlib.sha256()
        for answer in self.answers:
            h.update(repr(answer.to_sorted_list()).encode())
        return h.hexdigest()


def exact_mix(rng: random.Random, n: int, weights: Dict[str, int]) -> List[str]:
    """``n`` labels in exact proportion (largest remainder), shuffled."""
    total = sum(weights.values())
    shares = {label: n * w / total for label, w in weights.items()}
    counts = {label: int(share) for label, share in shares.items()}
    by_remainder = sorted(weights, key=lambda label: counts[label] - shares[label])
    for label in by_remainder[: n - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label in weights for _ in range(counts[label])]
    rng.shuffle(labels)
    return labels


def spot_marks(rng: random.Random, n: int) -> List[bool]:
    """Which of ``n`` queries get the immediate oracle check (≥1, ~1 %)."""
    marks = [False] * n
    for i in rng.sample(range(n), max(1, n // SPOT_EVERY)) if n else ():
        marks[i] = True
    return marks


class Workload:
    """One fresh system under test; a new instance per repeat."""

    name = ""
    why = ""
    #: Stream size at ``--scale 1`` — about three seconds of timed section
    #: per repeat at the seed commit on the two-core reference sandbox.
    base_ops = 0
    #: The same workload at a quarter of the data, run beside the traced
    #: pass for ``core.iup.db_scaling_ratio``.
    scaling_twin: Optional[type] = None

    mediator: SquirrelMediator
    sources: Dict[str, object]

    def setup(self, scratch: str) -> None:
        """Sources built → ``initialize()`` returned (+ durability attach,
        base checkpoint, replica bootstrap where used).  Timed: ``setup_s``."""
        raise NotImplementedError

    def generate(self, seed: int, scale: float) -> None:
        """Build the whole operation stream (outside the clock)."""
        raise NotImplementedError

    def run(self, rep: Repeat) -> None:
        """The timed closed loop."""
        raise NotImplementedError

    def verify(self, rep: Repeat) -> None:
        """End-of-repeat oracle gate, outside the clock, system quiesced."""
        self.mediator.refresh()
        rep.guard("materialized repositories", assert_materialized_correct, self.mediator)
        rep.guard("export views", assert_view_correct, self.mediator)

    def instrument(self, tracer: SpanRecorder) -> None:
        """Wrap the live instances' layer-boundary entry points."""
        instrument_mediator(tracer, self.mediator)

    def counters(self) -> Dict[str, float]:
        """Program counters; the driver diffs them over the timed section
        and requires the differences to repeat exactly."""
        stats = self.mediator.stats().as_dict()
        # Wall-clock and gauge fields are not program counters.
        del stats["poll_wall_time"], stats["replica_lag"]
        return stats

    def scaled(self, scale: float) -> int:
        return max(1, round(self.base_ops * scale))

    def spot_check(self, rep: Repeat, text: str, answer) -> None:
        truth = recompute_all(self.mediator.vdp, self.sources)
        expected = Evaluator(truth).evaluate(parse_expression(text), "answer")
        rep.check(answer == expected, f"query diverged from recompute: {text}")

    def extras(self, traced: bool) -> Dict[str, object]:
        """Workload-specific additions to the repeat's result."""
        return {}

    def close(self) -> None:
        pass


def instrument_mediator(tracer: SpanRecorder, mediator: SquirrelMediator) -> None:
    work = mediator.store.counters
    for source in mediator.sources.values():
        tracer.wrap(source, "execute", "sources.execute")
    for link in mediator.links.values():
        tracer.wrap(link, "poll_many", "sources.poll")
    tracer.wrap(mediator, "collect_announcements", "core.update_queue.collect")
    tracer.wrap(
        mediator.iup,
        "run_transaction",
        "core.iup.txn",
        counter=lambda: work.rows_scanned + work.rows_hashed + work.index_probes,
    )
    tracer.wrap(mediator.vap, "materialize", "core.vap.materialize")
    tracer.wrap(mediator, "query", "core.mediator.query")
    tracer.wrap(
        mediator.qp, "query", "core.query_processor.query",
        counter=lambda: work.rows_scanned,
    )
    tracer.wrap(mediator.store, "apply_delta", "core.local_store.apply")


# ---------------------------------------------------------------------------
# Figure 4: the kernel workloads
# ---------------------------------------------------------------------------
FIG4_A_ROWS, FIG4_B_ROWS = 200, 100
#: relation -> (source, key attribute, value attribute, value domain)
FIG4 = {
    "A": ("dbA", "a1", "a2", range(20)),
    "B": ("dbB", "b1", "b2", range(3, 12)),
    "C": ("dbC", "c1", "c2", range(FIG4_A_ROWS)),  # candidate a1 values
    "D": ("dbD", "d1", "d2", range(FIG4_B_ROWS)),  # candidate b1 values
}
FIG4_MIX = {"C": 40, "D": 40, "A": 10, "B": 10}


class _Fig4(Workload):
    """Figure 4 VDP, every node materialized, four memory sources:
    |A|=200 |B|=100 |C|=|D|=``cd_rows``."""

    cd_rows = 6400
    #: Victim keys are drawn below this bound, so one stream is valid
    #: against every ``cd_rows`` the scaling side run uses.
    key_bound = 1600

    def setup(self, scratch: str) -> None:
        self.sources = figure4_sources(
            a_rows=FIG4_A_ROWS, b_rows=FIG4_B_ROWS, cd_rows=self.cd_rows, seed=DATA_SEED
        )
        self.mediator = SquirrelMediator(annotate(figure4_vdp(), {}), self.sources)
        self.mediator.initialize()

    def _mirror(self) -> None:
        """Python-side copy of the keyed source rows, so every delta is
        built non-redundant without touching the system under test later."""
        self.values: Dict[str, Dict[int, int]] = {}
        self.keys: Dict[str, List[int]] = {}
        for rel, (db, key, val, _) in FIG4.items():
            rows = {r[key]: r[val] for r in self.sources[db].relation(rel).rows()}
            self.values[rel] = rows
            self.keys[rel] = sorted(k for k in rows if k < self.key_bound)

    def _modify(self, rng: random.Random, rel: str, n_rows: int) -> SetDelta:
        """Modify ``n_rows`` rows of ``rel`` in place (delete + insert, same key)."""
        _, key, val, domain = FIG4[rel]
        values = self.values[rel]
        delta = SetDelta()
        for k in rng.sample(self.keys[rel], n_rows):
            old = values[k]
            new = domain[(domain.index(old) + 1 + rng.randrange(len(domain) - 1)) % len(domain)]
            delta.delete(rel, row(**{key: k, val: old}))
            delta.insert(rel, row(**{key: k, val: new}))
            values[k] = new
        return delta

    def _undo(self, rel: str, delta: SetDelta) -> SetDelta:
        _, key, val, _ = FIG4[rel]
        inverse = delta.inverse()
        for r in inverse.insertions(rel):
            self.values[rel][r[key]] = r[val]
        return inverse

    #: One export per workload: a class mixing E and G reads half and half
    #: has two modes 1.35× apart and no stable median.
    export = ""

    def _range_query(self, i: int) -> str:
        """Five 50-key ``b1`` ranges in rotation.  Drawn at random, which
        ranges a 50-query repeat happened to get moved its median by 9 %
        from seed to seed; the seed still decides what the ranges hold."""
        lo = 10 * (i % 5)
        return f"select[b1 >= {lo} and b1 < {lo + 50}]({self.export})"


class Fig4Trickle(_Fig4):
    name = "fig4_trickle"
    why = (
        "small deltas against a large all-materialized store: core.iup + core.rules + "
        "relalg do the work (equi-join F, theta-join E, set-difference G); no polls, no durability"
    )
    base_ops = 180  # × {10-row commit, refresh, one 50-key range query on G}
    export = "G"

    def generate(self, seed: int, scale: float) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        n = self.scaled(scale)
        self._mirror()
        marks = spot_marks(rng, n)
        self.stream = [
            (self.sources[FIG4[rel][0]], self._modify(rng, rel, 10),
             self._range_query(i), marks[i])
            for i, rel in enumerate(exact_mix(rng, n, FIG4_MIX))
        ]
        self.delta_rows = 20 * n

    def run(self, rep: Repeat) -> None:
        mediator, ops, answers = self.mediator, rep.ops, rep.answers
        visible, query_mat = rep.latency["update_visible"], rep.latency["query_mat"]
        calibrate = rep.calibration.sample
        for source, delta, text, spot in self.stream:
            calibrate()
            t0 = perf_counter()
            source.execute(delta)
            mediator.refresh()
            t1 = perf_counter()
            answer = mediator.query(text)
            t2 = perf_counter()
            ops.append((t0, t1))
            ops.append((t1, t2))
            visible.append((t0, t1 - t0))
            query_mat.append((t1, t2 - t1))
            answers.append(answer)
            if spot:
                self.spot_check(rep, text, answer)
        rep.stream_ops = 2 * len(self.stream)


class Fig4TrickleSmall(Fig4Trickle):
    """Same stream, |C|=|D|=1600: a ratio of 1.0 would be O(delta)."""

    cd_rows = 1600


Fig4Trickle.scaling_twin, Fig4TrickleSmall.scaling_twin = Fig4TrickleSmall, None


class Fig4Burst(_Fig4):
    name = "fig4_burst"
    why = (
        "same kernel, bulk use: 64 small commits per transaction with 25 % exact undos, so "
        "core.update_queue + deltas net-accumulation and large smashed deltas do the work"
    )
    base_ops = 50  # × {64 commits in 4 announcement rounds, one transaction, one query on E}
    export = "E"
    commits, rounds = 64, 4

    def generate(self, seed: int, scale: float) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        n = self.scaled(scale)
        self._mirror()
        marks = spot_marks(rng, n)
        self.stream = []
        self.delta_rows = 0
        per_round = self.commits // self.rounds
        for i in range(n):
            relations = exact_mix(rng, self.commits, FIG4_MIX)
            undo = exact_mix(rng, self.commits, {"undo": 25, "fresh": 75})
            last: Dict[str, SetDelta] = {}
            commits = []
            for rel, kind in zip(relations, undo):
                if kind == "undo" and rel in last:
                    delta = self._undo(rel, last.pop(rel))
                else:
                    delta = last[rel] = self._modify(rng, rel, rng.randint(1, 4))
                self.delta_rows += delta.atom_count()
                commits.append((self.sources[FIG4[rel][0]], delta))
            batches = [commits[r: r + per_round] for r in range(0, self.commits, per_round)]
            self.stream.append((batches, self._range_query(i), marks[i]))

    def run(self, rep: Repeat) -> None:
        mediator, ops, answers = self.mediator, rep.ops, rep.answers
        visible, query_mat = rep.latency["update_visible"], rep.latency["query_mat"]
        calibrate = rep.calibration.burst
        for batches, text, spot in self.stream:
            calibrate(4)
            t0 = perf_counter()
            for batch in batches:
                for source, delta in batch:
                    t_last = perf_counter()
                    source.execute(delta)
                mediator.collect_announcements()
            mediator.run_update_transaction()
            t1 = perf_counter()
            answer = mediator.query(text)
            t2 = perf_counter()
            ops.append((t0, t1))
            ops.append((t1, t2))
            visible.append((t_last, t1 - t_last))
            query_mat.append((t1, t2 - t1))
            answers.append(answer)
            if spot:
                self.spot_check(rep, text, answer)
        rep.stream_ops = (self.commits + 1) * len(self.stream)


# ---------------------------------------------------------------------------
# Figure 1 under the Example 2.3 hybrid annotation: the query-path workload
# ---------------------------------------------------------------------------
class Fig1HybridQuery(Workload):
    name = "fig1_hybrid_query"
    why = (
        "reads beside the writes that invalidate them under hybrid T: core.vap, core.vap_cache, "
        "core.query_processor and sources (+sql_compile pushdown on SQLite) do the work, the kernel little"
    )
    base_ops = 500
    r_rows, s_rows = 10_000, 1_000
    mix = {"mat": 40, "key": 40, "s2": 15, "upd": 5}
    #: ``key`` needs r3 (polls db1 only); ``s2`` needs s2 (polls db2 only).
    #: No query asks for r3 and s2 together: a cold two-source poll round
    #: that includes a SQLiteSource raises under the default flags at the
    #: seed commit (README, "defects found").
    shapes = {"mat": "r1, s1", "key": "r1, r3, s1", "s2": "r1, s1, s2"}
    span, hot_ranges = 50, 20

    def setup(self, scratch: str) -> None:
        rng = random.Random(f"{DATA_SEED}:fig1")
        schemas = figure1_schemas()
        self.r = {
            i: (i, rng.randrange(self.s_rows), rng.randrange(1000), rng.choice((100, 200)))
            for i in range(self.r_rows)
        }
        s = [(i, rng.randrange(1000), rng.randrange(100)) for i in range(self.s_rows)]
        self.sources = {
            "db1": SQLiteSource("db1", [schemas["R"]], initial={"R": list(self.r.values())}),
            "db2": MemorySource("db2", [schemas["S"]], initial={"S": s}),
        }
        annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex23"])
        self.mediator = SquirrelMediator(annotated, self.sources)
        self.mediator.initialize()

    def generate(self, seed: int, scale: float) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        n = self.scaled(scale)
        kinds = exact_mix(rng, n, self.mix)
        hot = [rng.randrange(self.r_rows - self.span) for _ in range(self.hot_ranges)]
        heat = exact_mix(rng, n, {"hot": 80, "uniform": 20})
        marks = spot_marks(rng, n)
        self.stream = []
        updates = 0
        for kind, where, spot in zip(kinds, heat, marks):
            if kind == "upd":
                self.stream.append((kind, self._update(rng, updates), False))
                updates += 1
                continue
            lo = rng.choice(hot) if where == "hot" else rng.randrange(self.r_rows - self.span)
            text = (
                f"project[{self.shapes[kind]}]"
                f"(select[r1 >= {lo} and r1 < {lo + self.span}](T))"
            )
            self.stream.append((kind, text, spot))
        self.delta_rows = 2 * updates

    def _update(self, rng: random.Random, nth: int) -> SetDelta:
        """One-row R update: two flips of the selection attribute (the row
        enters or leaves the view), then one payload change (r3) — two to
        one, so the class has one majority mode for its median to sit in."""
        k = rng.randrange(self.r_rows)
        r1, r2, r3, r4 = old = self.r[k]
        new = (r1, r2, (r3 + 1 + rng.randrange(998)) % 1000, r4) if nth % 3 == 2 else (r1, r2, r3, 300 - r4)
        self.r[k] = new
        delta = SetDelta()
        delta.delete("R", row(r1=old[0], r2=old[1], r3=old[2], r4=old[3]))
        delta.insert("R", row(r1=new[0], r2=new[1], r3=new[2], r4=new[3]))
        return delta

    def run(self, rep: Repeat) -> None:
        mediator, ops, answers = self.mediator, rep.ops, rep.answers
        execute = self.sources["db1"].execute
        latency = {
            "upd": rep.latency["update_visible"],
            "mat": rep.latency["query_mat"],
            "key": rep.latency["query_virt"],
            "s2": rep.latency["query_virt"],
        }
        calibrate = rep.calibration.sample
        for kind, payload, spot in self.stream:
            calibrate()
            if kind == "upd":
                t0 = perf_counter()
                execute(payload)
                mediator.refresh()
                t1 = perf_counter()
            else:
                t0 = perf_counter()
                answer = mediator.query(payload)
                t1 = perf_counter()
                answers.append(answer)
                if spot:
                    self.spot_check(rep, payload, answer)
            ops.append((t0, t1))
            latency[kind].append((t0, t1 - t0))
        rep.stream_ops = len(self.stream)

    def verify(self, rep: Repeat) -> None:
        # assert_view_correct reads T full width with the cache bypassed —
        # the cold two-source poll round this workload must avoid — so the
        # export is checked against the same oracle through the two
        # single-source projections instead.
        self.mediator.refresh()
        rep.guard("materialized repositories", assert_materialized_correct, self.mediator)
        truth = {"T": recompute_all(self.mediator.vdp, self.sources)["T"]}
        for attrs in ("r1, r3, s1", "r1, s1, s2"):
            text = f"project[{attrs}](T)"
            expected = Evaluator(truth).evaluate(parse_expression(text), "answer")
            rep.check(self.mediator.query(text) == expected, f"export view: {text}")

    def close(self) -> None:
        close_sqlite(self.sources)


# ---------------------------------------------------------------------------
# 50-source federation, durable, one WAL-shipped replica
# ---------------------------------------------------------------------------
class Fed50DurableReplica(Workload):
    name = "fed50_durable_replica"
    why = (
        "tiny per-transaction work across a wide VDP: fixed per-txn overhead, durability (WAL append, "
        "1-in-8 checkpoints, directory growth), replication (ship + physical apply) and recovery dominate"
    )
    base_ops = 4000
    members, sqlite_members, max_rows, recoveries = 50, 5, 24, 3
    #: Set by the traced pass: recover() is wrapped per RecoveryManager.
    tracer: Optional[SpanRecorder] = None

    def setup(self, scratch: str) -> None:
        fed = self.fed = make_federation(self.members, DATA_SEED)
        self.spec = fed.spec_text_for()
        self.sources = make_sources(self.spec, fed.initial_data())
        # Bulk-tier (fully virtual) members are polled by their partners'
        # update transactions, possibly two per round; a round that includes
        # a SQLiteSource raises under the default flags at the seed commit,
        # so the SQLite members are the first five of the other tiers.
        on_sqlite = [s.name for s in fed.sources if s.tier != "bulk"][: self.sqlite_members]
        for name in on_sqlite:
            self.sources.update(
                make_sources(fed.spec_text_for([name]), fed.initial_data([name]), backend="sqlite")
            )
        self.mediator = SquirrelMediator(build_annotated_from_spec(self.spec), self.sources)
        self.mediator.initialize()
        self.directory = scratch
        self.manager = DurabilityManager.attach(self.mediator, scratch, sync=False)
        self.shipper = WalShipper(self.manager)
        self.replica = ReplicaMediator(
            "replica-0", build_annotated_from_spec(self.spec), self.sources, scratch
        )
        self.shipper.attach_replica(self.replica)

    def generate(self, seed: int, scale: float) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        fed, n = self.fed, self.scaled(scale)
        rows = {name: {r[0]: r for r in fed.initial_rows(name)} for name in fed.names}
        joins = [
            (fed.join_name(left, right), fed.attributes(left)[0]) for left, right in fed.joins
        ]
        reads = sum(1 for i in range(n) if i % 4 == 3)
        marks = iter(spot_marks(rng, reads))
        self.stream = []
        self.delta_rows = 0
        for i in range(n):
            name = fed.names[i % self.members]
            delta = self._commit(rng, name, rows[name], i // self.members)
            self.delta_rows += delta.atom_count()
            join, key = joins[(i // 4) % len(joins)]
            replica_read = (join, next(marks)) if i % 4 == 3 else None
            primary_read = f"select[{key} >= 0 and {key} < 32]({join})" if i % 8 == 7 else None
            self.stream.append((self.sources[name], delta, float(i), replica_read, primary_read))
        # Built before the clock: recover() wants a fresh annotated VDP each.
        self.recover_into = [build_annotated_from_spec(self.spec) for _ in range(self.recoveries)]
        self.recovered: List[SquirrelMediator] = []

    def _commit(self, rng: random.Random, name: str, rows: Dict[int, tuple], lap: int) -> SetDelta:
        """One-row insert / modify / delete, the kind rotating per lap over
        the members so every source stays between 2 and 24 rows."""
        kind = ("ins", "mod", "del")[lap % 3]
        if (kind == "ins" and len(rows) >= self.max_rows) or (kind == "del" and len(rows) <= 2):
            kind = "mod"
        rel = self.fed.relation(name)
        attrs = self.fed.attributes(name)
        delta = SetDelta()
        if kind == "ins":
            k = rng.choice([k for k in range(64) if k not in rows])
            rows[k] = (k, rng.randrange(64), rng.randrange(1000))
            delta.insert(rel, row(**dict(zip(attrs, rows[k]))))
            return delta
        k = rng.choice(sorted(rows))
        old = rows.pop(k)
        delta.delete(rel, row(**dict(zip(attrs, old))))
        if kind == "mod":  # alternately the join attribute and the payload
            new = (
                (k, (old[1] + 1 + rng.randrange(63)) % 64, old[2])
                if (lap // 3) % 2
                else (k, old[1], (old[2] + 1 + rng.randrange(998)) % 1000)
            )
            rows[k] = new
            delta.insert(rel, row(**dict(zip(attrs, new))))
        return delta

    def instrument(self, tracer: SpanRecorder) -> None:
        instrument_mediator(tracer, self.mediator)
        manager = self.manager
        tracer.wrap(manager, "on_transaction_commit", "durability.commit")
        tracer.wrap(manager, "checkpoint", "durability.checkpoint")
        tracer.wrap(manager.wal, "append", "durability.wal_append")
        manager.observers[:] = [
            tracer.traced(observer, "replication.ship") for observer in manager.observers
        ]
        tracer.wrap(self.shipper, "tick", "replication.tick")
        tracer.wrap(self.replica, "apply_record", "replication.apply")
        replica_work = self.replica.mediator.store.counters
        tracer.wrap(
            self.replica.mediator.qp, "query", "core.query_processor.query",
            counter=lambda: replica_work.rows_scanned,
        )
        self.tracer = tracer

    def run(self, rep: Repeat) -> None:
        mediator, ops, answers = self.mediator, rep.ops, rep.answers
        tick, replica, durable = self.shipper.tick, self.replica, self.manager.stats
        visible = rep.latency["update_visible"]
        replica_visible = rep.latency["replica_visible"]
        query_mat = rep.latency["query_mat"]
        calibrate = rep.calibration.sample
        lagging = 0
        for source, delta, now, replica_read, primary_read in self.stream:
            calibrate()
            t0 = perf_counter()
            source.execute(delta)
            mediator.refresh()
            t1 = perf_counter()
            tick(now)
            t2 = perf_counter()
            ops.append((t0, t2))
            visible.append((t0, t1 - t0))
            replica_visible.append((t0, t2 - t0))
            # The directory is fresh, so WAL records written = primary txn.
            lagging += replica.applied_txn != durable.wal_records
            if replica_read:
                join, spot = replica_read
                t0 = perf_counter()
                answer = replica.query_tagged(join, now).value
                t1 = perf_counter()
                ops.append((t0, t1))
                query_mat.append((t0, t1 - t0))
                answers.append(answer)
                if spot:
                    self.spot_check(rep, join, answer)
            if primary_read:
                t0 = perf_counter()
                answer = mediator.query(primary_read)
                t1 = perf_counter()
                ops.append((t0, t1))
                query_mat.append((t0, t1 - t0))
                answers.append(answer)
        rep.check(lagging == 0, f"replica behind the primary after {lagging} ticks")
        # Restarts are part of this workload's stream: the clock keeps
        # running over close + recoveries, so ops_per_s pays for a cheaper
        # append that makes recovery slower.
        self.manager.close()
        for annotated in self.recover_into:
            recovery = RecoveryManager(self.directory)
            if self.tracer:
                self.tracer.wrap(recovery, "recover", "durability.recover")
                self.tracer.wrap(recovery.checkpoints, "resolve_chain", "durability.recover_load")
            rep.calibration.burst()
            t0 = perf_counter()
            result = recovery.recover(annotated, self.sources)
            t1 = perf_counter()
            ops.append((t0, t1))
            rep.latency["recovery"].append((t0, t1 - t0))
            self.recovered.append(result.mediator)
        rep.stream_ops = len(ops)

    def verify(self, rep: Repeat) -> None:
        super().verify(rep)
        primary = self.mediator.store
        for who, other in [("replica", self.replica.mediator)] + [
            ("recovered", m) for m in self.recovered
        ]:
            same = all(
                other.store.repo(node) == primary.repo(node)
                for node in self.mediator.annotated.nodes_with_storage()
            )
            rep.check(same, f"{who} repositories differ from the primary's")

    def counters(self) -> Dict[str, float]:
        stats = super().counters()
        stats.update(
            {f"durability.{k}": v for k, v in dataclasses.asdict(self.manager.stats).items()}
        )
        stats["replica.records_applied"] = self.replica.records_applied
        return stats

    def extras(self, traced: bool) -> Dict[str, object]:
        names = os.listdir(self.directory)
        found: Dict[str, object] = {
            "checkpoint_files": sum(1 for n in names if n.startswith("ckpt-")),
            "dir_bytes": sum(os.path.getsize(os.path.join(self.directory, n)) for n in names),
        }
        if traced:
            found["fsync"] = self.fsync_probe()
        return found

    def fsync_probe(self, appends: int = 200) -> List[float]:
        """Seconds per append of the stream's first ``appends`` deltas to a
        scratch WAL with ``sync=True`` — what the device would add per
        transaction under an fsync flush policy.  Informational: fsync on
        the sandbox is device-bound and part of no end-to-end number."""
        wal = WriteAheadLog(os.path.join(self.directory, "fsync-probe.log"), sync=True)
        times = []
        try:
            for txn, (source, delta, *_) in enumerate(self.stream[:appends], start=1):
                entry = WalSourceEntry(seq=txn, cursor=txn, delta=delta)
                record = WalRecord(txn=txn, sources={source.name: entry})
                t0 = perf_counter()
                wal.append(record)
                times.append(perf_counter() - t0)
        finally:
            wal.close()
        return times

    def close(self) -> None:
        self.shipper.close()
        close_sqlite(self.sources)


def close_sqlite(sources: Dict[str, object]) -> None:
    for source in sources.values():
        if isinstance(source, SQLiteSource):
            source.close()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Fig4Trickle, Fig4Burst, Fig1HybridQuery, Fed50DurableReplica)
}
