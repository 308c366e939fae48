"""Exception hierarchy for the Squirrel reproduction.

Every error raised by this package derives from :class:`ReproError`, so
downstream users can catch the whole family with one ``except`` clause while
still being able to distinguish schema problems from planning problems from
runtime mediator faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A relation schema is malformed or two schemas are incompatible.

    Raised, for example, when a projection references an attribute that the
    input relation does not have, or when a join would produce duplicate
    attribute names.
    """


class EvaluationError(ReproError):
    """An algebra expression could not be evaluated against a catalog."""


class ParseError(ReproError):
    """A textual algebra expression or mediator spec failed to parse."""


class DeltaError(ReproError):
    """A delta value is inconsistent or incompatible with its target."""


class VDPError(ReproError):
    """A View Decomposition Plan is structurally invalid.

    Covers violations of the node-definition restrictions of Section 5.1 of
    the paper (e.g. a leaf-parent node using a join, or a difference nested
    under a join within a single node definition).
    """


class AnnotationError(ReproError):
    """An attribute annotation (materialized/virtual) is invalid for its VDP."""


class MediatorError(ReproError):
    """The mediator was driven into an unsupported state at runtime."""


class SourceError(ReproError):
    """A source database rejected an operation (unknown relation, bad delta)."""


class SourceUnavailableError(MediatorError):
    """A source is inside an outage window and cannot be polled.

    Raised instead of hanging when the VAP (or a poll-backed query) needs a
    source whose link is down.  Materialized-only queries keep working —
    served with an explicit staleness tag — so callers can distinguish
    "degraded but answerable" from "requires the unreachable source".
    """

    def __init__(self, source: str, until=None, message=None):
        self.source = source
        self.until = until
        if message is None:
            message = f"source {source!r} is unavailable"
            if until is not None:
                message += f" (outage until t={until})"
        super().__init__(message)


class StaleReadError(MediatorError):
    """No read replica can satisfy a query's staleness budget.

    Raised by :class:`repro.replication.ReadRouter` when routing with
    ``on_stale="reject"``: every replica's lag exceeds the per-query
    budget (a resyncing replica's lag is unbounded).  ``budget`` is the
    budget that failed; ``lags`` maps each replica to its lag at routing
    time, so callers can see how close the freshest copy came — or route
    again with ``on_stale="degrade"`` to accept a tagged stale answer.
    """

    def __init__(self, budget, lags, message=None):
        self.budget = budget
        self.lags = dict(lags)
        if message is None:
            detail = ", ".join(
                f"{name}: {lag:g}" for name, lag in sorted(self.lags.items())
            )
            message = (
                f"no replica within staleness budget {budget:g} "
                f"(lags: {detail or 'no replicas'})"
            )
        super().__init__(message)


class SnapshotStaleError(MediatorError):
    """A checkpoint's cursors outrun a source's transaction log.

    Raised by :meth:`repro.durability.RecoveryManager.recover` with
    ``on_stale="raise"`` when a source's log has been truncated past the
    cursor the checkpoint chain and WAL tail reflect, so the missed updates
    can no longer be replayed.  Every source is checked before any
    announcement is taken, so a raising recovery leaves every source as it
    found it.  ``gaps`` maps each such source to ``(cursor, log_floor)`` where
    ``log_floor`` is the lowest transaction sequence the log still holds
    (``source.txn_count + 1`` when the log is empty) — the caller can see
    exactly how far each log fell short.  Pass ``on_stale="reinit"`` to
    fall back to selective re-initialization of only the stale sources'
    subtrees instead.
    """

    def __init__(self, gaps, message=None):
        self.gaps = dict(gaps)
        if message is None:
            detail = ", ".join(
                f"{source}: cursor {cursor} < log floor {floor}"
                for source, (cursor, floor) in sorted(self.gaps.items())
            )
            message = (
                f"snapshot stale for {len(self.gaps)} source(s) ({detail}); "
                'replay impossible — pass on_stale="reinit" for selective '
                "re-initialization"
            )
        super().__init__(message)


class SimulatedCrash(ReproError):
    """A crash-injection point fired: the mediator process "dies" here.

    Raised by the durability layer's crash injector
    (:class:`repro.faults.CrashPoint` schedules) so crash-recovery tests can
    kill a mediator at a precisely chosen instant — after a WAL append,
    mid-checkpoint, or mid-record — and then drive recovery over whatever
    the filesystem holds.  Never raised in production configurations.
    """

    def __init__(self, phase: str, txn: int):
        self.phase = phase
        self.txn = txn
        super().__init__(f"injected crash at txn {txn} ({phase})")


class SimulationError(ReproError):
    """The discrete-event simulator was misconfigured or used out of order."""


class PlanningError(ReproError):
    """The annotation planner could not produce a plan for a VDP."""


class ConsistencyError(ReproError):
    """A correctness checker found the recorded trace to be malformed.

    Note: a trace that is well-formed but *inconsistent* is reported through
    checker verdict objects, not exceptions; this error means the trace itself
    could not be analyzed.
    """
