"""Long-running churn & soak harness over generated federations.

Composes the fault plans (:mod:`repro.faults`), crash schedules and
recovery (:mod:`repro.durability`), freshness SLOs
(:mod:`repro.correctness.freshness`) and dynamic federation membership
(:meth:`repro.core.SquirrelMediator.attach_source` /
:meth:`~repro.core.SquirrelMediator.detach_source`) into one verifiable
workload: a seeded schedule of join / leave / outage / update events runs
against a mediator while every message crosses a faulty simulated
network, and at periodic checkpoints the harness proves *churned ≡
static* — the churned mediator's state equals a mediator freshly built
over the surviving member set — and that tagged staleness stayed within
the configured SLO bound.
"""

from repro.soak.harness import (
    SoakConfig,
    SoakHarness,
    SoakResult,
    SoakStats,
    run_soak,
)
from repro.soak.report import slo_report, write_slo_report

__all__ = [
    "SoakConfig",
    "SoakHarness",
    "SoakResult",
    "SoakStats",
    "run_soak",
    "slo_report",
    "write_slo_report",
]
