"""The kill/restart simulator for crash-injection testing.

Drives one mediator through a scripted workload of source commits (and
optional autonomous source-log compactions), with a
:class:`~repro.faults.CrashSchedule` deciding where the mediator "dies".
A crash is modelled as :class:`~repro.errors.SimulatedCrash` escaping the
refresh: the harness abandons the mediator object wholesale (everything
in memory is lost, exactly like a kill -9), recovers a fresh one from the
durability directory through :class:`~repro.durability.RecoveryManager`,
re-attaches durability, and carries on with the remaining steps.

Because every commit step runs its own ``refresh()``, the N-th commit step
is the N-th committed update transaction — which is precisely the ``txn``
coordinate a :class:`~repro.faults.CrashPoint` names, so property tests
can draw crash points against workload positions deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.mediator import SquirrelMediator
from repro.core.vdp import AnnotatedVDP
from repro.deltas import Delta
from repro.durability.checkpoint import CheckpointPolicy
from repro.durability.manager import DurabilityManager
from repro.durability.recovery import RecoveryResult, restart_after_crash
from repro.errors import SimulatedCrash
from repro.sources.base import SourceDatabase

__all__ = ["Commit", "CompactLog", "CrashRunOutcome", "run_crash_workload"]


@dataclass(frozen=True)
class Commit:
    """Commit one transaction at a source, then refresh the mediator.

    ``refresh=False`` commits silently — the mediator is not refreshed, so
    the transaction sits in the source's log and announcement accumulator
    unheard.  A following :class:`CompactLog` can then drop log entries
    the mediator has never reflected, which is the scenario that forces a
    later recovery into selective re-initialization.
    """

    source: str
    delta: Delta
    refresh: bool = True


@dataclass(frozen=True)
class CompactLog:
    """The source autonomously reclaims its log through ``through``
    (default: everything so far) — the event that forces selective
    re-initialization if the mediator later needs the dropped range."""

    source: str
    through: Optional[int] = None


Step = Union[Commit, CompactLog]


@dataclass
class CrashRunOutcome:
    """What a crash-injected workload run produced."""

    mediator: SquirrelMediator
    manager: DurabilityManager
    crashes: List[Tuple[str, int]] = field(default_factory=list)
    recoveries: List[RecoveryResult] = field(default_factory=list)
    commits: int = 0


def run_crash_workload(
    annotated: AnnotatedVDP,
    sources: Mapping[str, SourceDatabase],
    directory: str,
    steps: Sequence[Step],
    crash_schedule=None,
    policy: Optional[CheckpointPolicy] = None,
    mediator_kwargs: Optional[Dict] = None,
) -> CrashRunOutcome:
    """Run ``steps`` against a durable mediator, recovering after each crash.

    Returns the final live mediator (durability still attached via
    ``outcome.manager``) plus every crash and recovery along the way.  The
    caller owns the sources — they survive mediator "deaths", exactly like
    autonomous databases survive a mediator host reboot.
    """
    kwargs = dict(mediator_kwargs or {})
    mediator = SquirrelMediator(annotated, sources, **kwargs)
    mediator.initialize()
    manager = DurabilityManager.attach(
        mediator, directory, policy=policy, crash_schedule=crash_schedule
    )
    outcome = CrashRunOutcome(mediator=mediator, manager=manager)

    for step in steps:
        if isinstance(step, CompactLog):
            source = sources[step.source]
            through = step.through if step.through is not None else source.txn_count
            source.compact_log(through)
            continue
        sources[step.source].execute(step.delta)
        outcome.commits += 1
        if not step.refresh:
            continue
        try:
            mediator.refresh()
        except SimulatedCrash as crash:
            manager.close()
            # The process is "dead": drop every in-memory structure, keep
            # only what the durability directory and the sources hold.
            manager, recoveries, again = restart_after_crash(
                directory,
                annotated,
                sources,
                policy=policy,
                crash_schedule=crash_schedule,
                **kwargs,
            )
            outcome.crashes.extend((c.phase, c.txn) for c in [crash, *again])
            outcome.recoveries.extend(recoveries)
            mediator = outcome.mediator = manager.mediator
            outcome.manager = manager
    return outcome
