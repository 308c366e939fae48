"""Experiment E61 — Example 6.1: the ΔR' ⋈ ΔS' cross-term.

"It would be incorrect to compute ΔT = (R' ⋈ ΔS') ∪ (ΔR' ⋈ S') because
this will 'miss' the contribution of ΔR' ⋈ ΔS'."

This benchmark implements the naive simultaneous-firing scheme alongside
the kernel's process-node discipline and counts the rows the naive scheme
loses when both children change in one transaction.  Expected shape: the
kernel is exact for every batch; the naive scheme diverges exactly when
the cross-term ΔR' ⋈ ΔS' is non-empty.
"""

import random

import pytest

from repro.core.rules import spj_delta
from repro.correctness import recompute
from repro.deltas import Delta
from repro.relalg import BagRelation, row
from repro.workloads import figure1_mediator

from _util import report
from repro.bench import shape_line


def naive_delta(definition, deltas, catalog, schemas):
    """The incorrect rule firing: every rule reads PRE-update siblings."""
    total = Delta()
    for child, delta in deltas.items():
        contribution = spj_delta(
            definition, "T", child, delta, catalog, schemas[child]
        )
        total = total.smash(contribution)
    return total


def one_batch(seed, joint):
    """Drive one update batch; returns (naive missing rows, kernel exact?).

    ``joint=True`` inserts matching R- and S-rows in the same batch so the
    cross-term is non-empty; ``joint=False`` updates only one side.
    """
    mediator, sources = figure1_mediator("ex21", seed=seed)
    rng = random.Random(seed)
    vdp = mediator.vdp

    key = 77_000 + seed
    join_value = 900 + seed  # a fresh join key: guarantees the cross-term
    sources["db1"].insert("R", r1=key, r2=join_value, r3=rng.randrange(100), r4=100)
    if joint:
        sources["db2"].insert("S", s1=join_value, s2=rng.randrange(100), s3=5)

    # Snapshot the pre-update children repositories for the naive scheme.
    pre = {
        "R_p": mediator.store.repo("R_p").copy(),
        "S_p": mediator.store.repo("S_p").copy(),
    }
    t_before = mediator.store.repo("T").copy()

    # Compute the leaf-parent deltas the same way the kernel would.
    mediator.collect_announcements()
    combined, _ = mediator.queue.flush()
    from repro.core.rules import spj_delta as _spj

    deltas = {}
    for lp, leaf in (("R_p", "R"), ("S_p", "S")):
        leaf_delta = combined.restrict_to([leaf])
        if not leaf_delta.is_empty():
            deltas[lp] = _spj(
                vdp.node(lp).definition,
                lp,
                leaf,
                leaf_delta,
                {},
                vdp.node(leaf).schema,
            )
            # re-key the delta to the leaf-parent name
            rekeyed = Delta()
            for _, r, n in deltas[lp].atoms():
                rekeyed.add(lp, r, n)
            deltas[lp] = rekeyed

    naive = naive_delta(
        vdp.node("T").definition, deltas, pre, {n: vdp.node(n).schema for n in pre}
    )
    naive_t = t_before.copy()
    for r, n in naive.atoms_for("T"):
        if n > 0:
            naive_t.insert(r, n)
        elif naive_t.count(r) >= -n:
            naive_t.delete(r, -n)

    # The kernel processes the same queue contents (re-enqueue the flushed
    # announcements; the kernel consumes raw source deltas, not ours).
    mediator.enqueue_update("db1", combined.restrict_to(["R"]))
    if not combined.restrict_to(["S"]).is_empty():
        mediator.enqueue_update("db2", combined.restrict_to(["S"]))
    mediator.run_update_transaction()

    truth = recompute(vdp, sources, "T")
    kernel_exact = mediator.store.repo("T") == truth
    missing = truth.cardinality() - naive_t.cardinality()
    return missing, kernel_exact


def test_ex61_crossterm_table():
    rows = []
    total_missing = 0
    for seed, joint in [(1, True), (2, True), (3, True), (4, False), (5, False)]:
        missing, kernel_exact = one_batch(seed, joint)
        total_missing += missing if joint else 0
        rows.append(
            [
                f"batch {seed}",
                "ΔR and ΔS together" if joint else "ΔR only",
                missing,
                kernel_exact,
            ]
        )
        assert kernel_exact
        if joint:
            assert missing > 0, "cross-term should be missed by the naive scheme"
        else:
            assert missing == 0

    report(
        "E61_crossterm",
        "E61 (Example 6.1): naive simultaneous firing vs the IUP kernel",
        ["batch", "update mix", "rows missed by naive ΔT", "kernel exact"],
        rows,
        shapes=[
            shape_line(
                "naive firing misses ΔR'⋈ΔS' exactly when both children change",
                total_missing > 0,
                f"{total_missing} rows lost across joint batches",
            ),
            shape_line("the process-node discipline is exact in every batch", True),
        ],
    )


def test_ex61_kernel_batch_benchmark(benchmark):
    """Timing a joint-update transaction through the kernel."""
    mediator, sources = figure1_mediator("ex21", seed=61)
    counter = [0]

    def setup():
        k = counter[0]
        counter[0] += 1
        join_value = 5000 + k
        sources["db1"].insert("R", r1=80_000 + k, r2=join_value, r3=1, r4=100)
        sources["db2"].insert("S", s1=join_value, s2=1, s3=5)
        mediator.collect_announcements()
        return (), {}

    benchmark.pedantic(mediator.run_update_transaction, setup=setup, rounds=25)
