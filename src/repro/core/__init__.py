"""The paper's primary contribution: annotated VDPs and Squirrel mediators.

Public surface:

* :class:`Annotation`, :class:`VDP`, :class:`AnnotatedVDP`, :class:`VDPNode`,
  :class:`NodeKind` — the View Decomposition Plan structure (Section 5);
* :func:`build_vdp`, :func:`annotate` — construction from named view
  definitions;
* :func:`derived_from`, :class:`TempRequest` — the Section 6.3 lineage
  function;
* :class:`RuleBase` and the edge rules — Section 5.2 update propagation;
* :class:`SquirrelMediator` — the assembled five-component mediator
  (Section 4), with :class:`LocalStore`, :class:`UpdateQueue`,
  :class:`VirtualAttributeProcessor`, :class:`IncrementalUpdateProcessor`
  and :class:`QueryProcessor` as its parts;
* :class:`DirectLink` / :class:`SourceLink` — how the mediator reaches
  sources.
"""

from repro.core.annotations import MATERIALIZED, VIRTUAL, Annotation
from repro.core.builder import annotate, build_vdp, extend_vdp
from repro.core.compensation import compensate
from repro.core.derived_from import TempRequest, child_requirements, derived_from
from repro.core.iup import IncrementalUpdateProcessor, IUPStats, UpdateTransactionResult
from repro.core.links import DelayedLink, DirectLink, SourceLink
from repro.core.local_store import LocalStore
from repro.core.mediator import (
    STATS_METRICS,
    AttachResult,
    DetachResult,
    MediatorStats,
    ReplicationStats,
    SquirrelMediator,
)
from repro.core.persistence import restore_mediator, save_mediator
from repro.core.query_processor import QPStats, QueryProcessor
from repro.core.rulebase import RuleBase
from repro.core.rules import BagNodeRule, SetNodeRule, spj_delta
from repro.core.update_queue import QueuedUpdate, UpdateQueue
from repro.core.vap import PlannedTemp, VAPStats, VirtualAttributeProcessor
from repro.core.vap_cache import CacheEntry, VAPTempCache
from repro.core.vdp import VDP, AnnotatedVDP, NodeKind, VDPNode, classify_definition

__all__ = [
    "Annotation",
    "MATERIALIZED",
    "VIRTUAL",
    "VDP",
    "AnnotatedVDP",
    "VDPNode",
    "NodeKind",
    "classify_definition",
    "build_vdp",
    "extend_vdp",
    "annotate",
    "TempRequest",
    "derived_from",
    "child_requirements",
    "RuleBase",
    "BagNodeRule",
    "SetNodeRule",
    "spj_delta",
    "LocalStore",
    "UpdateQueue",
    "QueuedUpdate",
    "VirtualAttributeProcessor",
    "PlannedTemp",
    "VAPStats",
    "VAPTempCache",
    "CacheEntry",
    "IncrementalUpdateProcessor",
    "IUPStats",
    "UpdateTransactionResult",
    "QueryProcessor",
    "QPStats",
    "SquirrelMediator",
    "AttachResult",
    "DetachResult",
    "MediatorStats",
    "ReplicationStats",
    "STATS_METRICS",
    "DirectLink",
    "DelayedLink",
    "SourceLink",
    "compensate",
    "save_mediator",
    "restore_mediator",
]
