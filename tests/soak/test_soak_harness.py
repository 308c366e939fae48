"""The soak harness end to end: seeded chaos, crashes, and the report.

Quick bounded runs stay in tier-1; the medium/large federations carry the
``soak`` marker and run in the dedicated CI job (``pytest -m soak``).
"""

import json

import pytest

from repro.faults import OutageWindow
from repro.soak import SoakConfig, run_soak, slo_report, write_slo_report
from repro.soak.harness import SoakHarness


def test_small_soak_run_converges():
    result = run_soak(SoakConfig(sources=8, seed=3, steps=12, checkpoint_every=6))
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.steps_run == 12
    assert result.final_members
    assert result.stats.updates_applied > 0
    assert result.stats.messages_sent > 0
    assert result.stats.convergence_checks == 2
    assert len(result.checkpoints) == 2
    assert all(cp["violations"] == 0 for cp in result.checkpoints)
    # Soak counters are exported through the mediator's metrics registry.
    assert result.metrics.get("soak.updates_applied") == result.stats.updates_applied


def test_soak_with_crash_points_recovers_and_converges():
    result = run_soak(
        SoakConfig(
            sources=8,
            seed=5,
            steps=12,
            checkpoint_every=6,
            crash_points=((2, "post-wal-append"), (6, "torn-wal")),
        )
    )
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.stats.crashes >= 1
    assert result.stats.recoveries == result.stats.crashes


def test_crash_during_post_recovery_reattach_restarts_recovery():
    """Regression: the torn-wal crash at txn 4 recovers to txn 3, and the
    re-attach's re-base checkpoint then hits the txn-3 mid-checkpoint
    crash point — which used to escape the run instead of restarting
    recovery (``repro.durability.restart_after_crash``)."""
    result = run_soak(
        SoakConfig(
            sources=8,
            seed=5,
            steps=12,
            checkpoint_every=6,
            crash_points=((4, "torn-wal"), (3, "mid-checkpoint")),
        )
    )
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.stats.crashes == result.stats.recoveries == 2


def test_soak_is_deterministic_for_a_seed():
    config = SoakConfig(sources=8, seed=9, steps=10, checkpoint_every=5)
    first = run_soak(config)
    second = run_soak(config)
    assert first.final_members == second.final_members
    assert first.stats == second.stats
    assert first.worst_staleness == second.worst_staleness


def test_join_while_partner_link_down_waits_out_outage_and_converges():
    """A join scheduled while a partner link is down (the crash/recovery
    timing the harness's SourceUnavailableError branch models): the first
    attach attempt fails mid-backfill and rolls back, the harness clears
    the outage and retries, and the federation still converges."""
    harness = SoakHarness(SoakConfig(sources=10, seed=0, steps=4, checkpoint_every=2))
    # s001 joins against s000, whose leaf parent is fully virtual (bulk
    # tier) — backfilling the join view must poll s000, which is down.
    joiner, partner = "s001", "s000"
    assert {joiner, partner} <= harness.members
    assert harness.fed.source(partner).tier == "bulk"
    assert (partner, joiner) in harness.fed.joins or (joiner, partner) in harness.fed.joins

    harness._detach(joiner)
    harness._set_outages(partner, (OutageWindow(0.0, 10_000.0),))
    assert not harness.links[partner].is_available()
    harness._attach(joiner)

    # Outages on *partner* links are cleared only by the retry branch, so
    # this proves the first attempt failed and the retry succeeded.
    assert harness.links[partner].is_available()
    assert joiner in harness.members
    assert harness.stats.attaches == 1
    harness._check_convergence()
    assert not harness.result.convergence_violations


def test_slo_report_roundtrip(tmp_path):
    result = run_soak(SoakConfig(sources=6, seed=1, steps=8, checkpoint_every=4))
    path = tmp_path / "slo.json"
    document = write_slo_report(result, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == document
    assert loaded["kind"] == "soak-slo-report"
    assert loaded["ok"] is True
    assert loaded["steps_run"] == 8
    assert loaded["freshness"]["bound"] == result.config.staleness_bound
    assert loaded["counters"]["updates_applied"] == result.stats.updates_applied
    assert loaded["convergence"]["checkpoints"]
    assert sorted(loaded["final_members"]) == list(result.final_members)
    assert slo_report(result) == document


@pytest.mark.soak
def test_soak_medium_federation_with_churn_and_crashes():
    result = run_soak(
        SoakConfig(
            sources=60,
            seed=7,
            steps=30,
            checkpoint_every=10,
            crash_points=(
                (5, "post-wal-append"),
                (12, "torn-wal"),
                (20, "mid-checkpoint"),
            ),
        )
    )
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.stats.attaches > 0
    assert result.stats.detaches > 0
    assert result.stats.recoveries >= 1


@pytest.mark.soak
def test_soak_large_federation_acceptance():
    """The ISSUE 6 acceptance run: 200 sources, seed 7, zero violations."""
    result = run_soak(SoakConfig(sources=200, seed=7))
    assert result.ok, (result.convergence_violations, result.slo_violations)
    assert result.stats.convergence_checks == 4
    assert result.stats.attaches > 0
    assert result.stats.backfill_rows > 0
