"""Generating deployed mediators from specifications.

The back half of the Squirrel generator: take a parsed
:class:`~repro.generator.spec.MediatorSpec` (or its text), check it against
the actual source databases, build and annotate the VDP, wire up a
:class:`~repro.core.SquirrelMediator`, and initialize it.

Annotation resolution: the paper's bracket notation is used verbatim
(``annotate T [r1^m, r3^v]``); ``materialized`` / ``virtual`` annotate all
attributes; unmentioned relations default to fully materialized.  Passing
``plan_profile`` instead lets the Section 5.3 planner choose annotations
from a workload profile.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union as TypingUnion

from repro.core import SquirrelMediator, annotate, build_vdp
from repro.core.annotations import Annotation
from repro.core.vdp import VDP
from repro.errors import ParseError, SourceError
from repro.generator.spec import MediatorSpec, parse_spec
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.planner import WorkloadProfile, suggest_annotation
from repro.sources.base import SourceDatabase
from repro.sources.memory import MemorySource

__all__ = [
    "build_annotated_from_spec",
    "build_vdp_from_spec",
    "generate_mediator",
    "make_sources",
]

SpecInput = TypingUnion[str, MediatorSpec]


def _resolve(spec: SpecInput) -> MediatorSpec:
    return parse_spec(spec) if isinstance(spec, str) else spec


def build_vdp_from_spec(spec: SpecInput) -> VDP:
    """Build the (unannotated) VDP a spec describes."""
    spec = _resolve(spec)
    return build_vdp(
        source_schemas=spec.source_schemas(),
        source_of=spec.source_of(),
        views={v.name: v.definition for v in spec.views},
        exports=spec.exports(),
    )


def make_sources(
    spec: SpecInput,
    initial: Optional[Mapping[str, Mapping]] = None,
    backend: str = "memory",
) -> Dict[str, SourceDatabase]:
    """Create sources matching a spec's declarations.

    ``initial`` maps source name to ``{relation: iterable of value rows}``.
    ``backend`` is ``"memory"`` (default) or ``"sqlite"`` (each source gets
    its own in-memory SQLite database; attribute types from the spec become
    column affinities).
    """
    spec = _resolve(spec)
    if backend not in ("memory", "sqlite"):
        raise SourceError(f"unknown source backend {backend!r}")
    sources: Dict[str, SourceDatabase] = {}
    # Iterate in sorted-name order, not dict insertion order: creation order
    # is observable (SQLite connection ids, RNG draws in callers that zip
    # over the result), and determinism must derive from the spec alone.
    for name in sorted(spec.sources):
        source_spec = spec.sources[name]
        data = (initial or {}).get(name)
        if backend == "memory":
            sources[name] = MemorySource(name, source_spec.schemas(), initial=data)
        else:
            from repro.sources.sqlite_source import SQLiteSource

            sources[name] = SQLiteSource(name, source_spec.schemas(), initial=data)
    return sources


def build_annotated_from_spec(
    spec: SpecInput, plan_profile: Optional[WorkloadProfile] = None
):
    """Resolve a spec's annotations into an :class:`AnnotatedVDP`.

    This is the declarative half of :func:`generate_mediator` — recovery
    needs it on its own, because a recovered mediator is *not* initialized
    from the sources (its repositories come from the checkpoint chain).
    """
    spec = _resolve(spec)
    vdp = build_vdp_from_spec(spec)

    overrides: Dict[str, Annotation] = {}
    for name, text in spec.annotations.items():
        if name not in vdp.nodes or vdp.node(name).is_leaf:
            raise ParseError(f"annotation for unknown view {name!r}")
        attrs = vdp.node(name).schema.attribute_names
        lowered = text.lower()
        if lowered in ("materialized", "m"):
            overrides[name] = Annotation.all_materialized(attrs)
        elif lowered in ("virtual", "v"):
            overrides[name] = Annotation.all_virtual(attrs)
        else:
            overrides[name] = Annotation.parse(text)

    if plan_profile is not None:
        suggested = suggest_annotation(vdp, plan_profile)
        resolved = {
            name: overrides.get(name, suggested.annotation(name))
            for name in vdp.non_leaves()
        }
        return annotate(vdp, resolved)
    return annotate(vdp, overrides)


def generate_mediator(
    spec: SpecInput,
    sources: Mapping[str, SourceDatabase],
    plan_profile: Optional[WorkloadProfile] = None,
    eca_enabled: bool = True,
    key_based_enabled: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> SquirrelMediator:
    """Generate, wire, and initialize a mediator from a specification.

    When ``plan_profile`` is given, relations the spec leaves unannotated
    get planner-suggested annotations instead of defaulting to fully
    materialized; explicit spec annotations always win.
    """
    spec = _resolve(spec)
    _check_sources_match(spec, sources)
    annotated = build_annotated_from_spec(spec, plan_profile)
    mediator = SquirrelMediator(
        annotated,
        sources,
        eca_enabled=eca_enabled,
        key_based_enabled=key_based_enabled,
        tracer=tracer,
    )
    mediator.initialize()
    return mediator


def _check_sources_match(spec: MediatorSpec, sources: Mapping[str, SourceDatabase]) -> None:
    for name, source_spec in spec.sources.items():
        source = sources.get(name)
        if source is None:
            raise SourceError(f"spec declares source {name!r} but none was supplied")
        for rel in source_spec.relations:
            declared = rel.schema
            if declared.name not in source.schemas:
                raise SourceError(
                    f"source {name!r} lacks declared relation {declared.name!r}"
                )
            actual = source.schemas[declared.name]
            if actual.attribute_names != declared.attribute_names:
                raise SourceError(
                    f"relation {declared.name!r}: spec declares attributes "
                    f"{declared.attribute_names}, source has {actual.attribute_names}"
                )
