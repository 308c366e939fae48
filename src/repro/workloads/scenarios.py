"""The paper's running examples as ready-made scenarios.

* :func:`figure1_mediator` — Figure 1's VDP over ``R`` and ``S`` with the
  export ``T = π_{r1,r3,s1,s2}(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S)`` and
  the three annotations of Examples 2.1 (fully materialized support),
  2.2 (virtual auxiliary ``R'``), and 2.3 (hybrid ``T``).
* :func:`figure4_mediator` — Figure 4 / Example 5.1's two-export VDP
  (``E`` with the arithmetic join condition, ``G`` a difference node) under
  the paper's suggested annotation.

Both build deterministic synthetic data from a seed, so tests and
benchmarks are reproducible.  (Figure 1's relation ``T`` is written
``π_{r1,s1,s2}`` in Example 2.1's text and ``π_{r1,r3,s1,s2}`` in the
figure caption; we follow the caption, which Example 2.3 requires —
``r3`` must be an attribute of ``T`` for its hybrid annotation.)
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Tuple

from repro.core import AnnotatedVDP, SquirrelMediator, annotate, build_vdp
from repro.core.vdp import VDP
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.relalg import Attribute, RelationSchema
from repro.sources import MemorySource, SourceDatabase

__all__ = [
    "FIGURE1_ANNOTATIONS",
    "figure1_schemas",
    "figure1_sources",
    "figure1_vdp",
    "figure1_mediator",
    "figure2_trace",
    "chain_schemas",
    "chain_mediator",
    "union_schemas",
    "union_sources",
    "union_vdp",
    "union_mediator",
    "figure4_schemas",
    "figure4_sources",
    "figure4_vdp",
    "figure4_mediator",
]


# ---------------------------------------------------------------------------
# Figure 1 / Examples 2.1 - 2.3
# ---------------------------------------------------------------------------
def figure1_schemas() -> Dict[str, RelationSchema]:
    """Schemas of the two source relations ``R`` and ``S``."""
    return {
        "R": RelationSchema(
            "R",
            (
                Attribute("r1", "int"),
                Attribute("r2", "int"),
                Attribute("r3", "int"),
                Attribute("r4", "int"),
            ),
            key=("r1",),
        ),
        "S": RelationSchema(
            "S",
            (Attribute("s1", "int"), Attribute("s2", "int"), Attribute("s3", "int")),
            key=("s1",),
        ),
    }


def figure1_sources(
    r_rows: int = 200,
    s_rows: int = 60,
    seed: int = 7,
    join_domain: int = 50,
) -> Dict[str, SourceDatabase]:
    """Two in-memory sources populated with deterministic synthetic data.

    About half the ``R`` rows pass ``r4 = 100`` and half the ``S`` rows pass
    ``s3 < 50``, so the view stays non-trivially populated.
    """
    rng = random.Random(seed)
    schemas = figure1_schemas()
    r_values = [
        (
            i,                                  # r1: key
            rng.randrange(join_domain),         # r2: join attribute
            rng.randrange(1000),                # r3: payload
            100 if rng.random() < 0.5 else 200,  # r4: selection attribute
        )
        for i in range(r_rows)
    ]
    s_values = [
        (
            i,                        # s1: key / join attribute
            rng.randrange(1000),      # s2: payload
            rng.randrange(100),       # s3: selection attribute
        )
        for i in range(min(s_rows, join_domain))
    ]
    db1 = MemorySource("db1", [schemas["R"]], initial={"R": r_values})
    db2 = MemorySource("db2", [schemas["S"]], initial={"S": s_values})
    return {"db1": db1, "db2": db2}


def figure1_vdp() -> VDP:
    """The Figure 1 VDP: leaf-parents ``R_p``/``S_p`` under export ``T``."""
    schemas = figure1_schemas()
    return build_vdp(
        source_schemas=schemas,
        source_of={"R": "db1", "S": "db2"},
        views={
            "R_p": "project[r1, r2, r3](select[r4 = 100](R))",
            "S_p": "project[s1, s2](select[s3 < 50](S))",
            "T": "project[r1, r3, s1, s2](R_p join[r2 = s1] S_p)",
        },
        exports=["T"],
    )


FIGURE1_ANNOTATIONS: Dict[str, Dict[str, str]] = {
    # Example 2.1: everything materialized (fully materialized support).
    "ex21": {},
    # Example 2.2: the frequently-updated auxiliary R' kept virtual.
    "ex22": {"R_p": "[r1^v, r2^v, r3^v]"},
    # Example 2.3: hybrid T; both auxiliaries virtual.
    "ex23": {
        "T": "[r1^m, r3^v, s1^m, s2^v]",
        "R_p": "[r1^v, r2^v, r3^v]",
        "S_p": "[s1^v, s2^v]",
    },
}


def figure1_mediator(
    example: str = "ex21",
    sources: Optional[Mapping[str, SourceDatabase]] = None,
    seed: int = 7,
    eca_enabled: bool = True,
    key_based_enabled: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[SquirrelMediator, Dict[str, SourceDatabase]]:
    """A deployed, initialized Figure-1 mediator under one of the paper's
    annotations (``"ex21"``, ``"ex22"``, ``"ex23"``)."""
    if example not in FIGURE1_ANNOTATIONS:
        raise ValueError(f"unknown example {example!r}; choose from {sorted(FIGURE1_ANNOTATIONS)}")
    sources = dict(sources) if sources else figure1_sources(seed=seed)
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS[example])
    mediator = SquirrelMediator(
        annotated,
        sources,
        eca_enabled=eca_enabled,
        key_based_enabled=key_based_enabled,
        tracer=tracer,
    )
    mediator.initialize()
    return mediator, sources


# ---------------------------------------------------------------------------
# Parametric join chains ("VDPs can be of any size", Section 2)
# ---------------------------------------------------------------------------
def chain_schemas(depth: int) -> Dict[str, RelationSchema]:
    """``depth + 1`` source relations ``T0(k0, v0) ... Tn(kn, vn)``."""
    return {
        f"T{i}": RelationSchema(
            f"T{i}",
            (Attribute(f"k{i}", "int"), Attribute(f"v{i}", "int")),
            key=(f"k{i}",),
        )
        for i in range(depth + 1)
    }


def chain_mediator(
    depth: int,
    rows_per_source: int = 30,
    seed: int = 37,
    default_annotation: str = "m",
    tracer: Tracer = NULL_TRACER,
) -> Tuple[SquirrelMediator, Dict[str, SourceDatabase]]:
    """A join chain of the given depth: ``Ni = N(i-1) ⋈_{v(i-1)=ki} Ti``.

    Each level's ``v`` values point into the next level's key domain, so an
    update at the bottom source propagates through every level to the
    export ``N<depth>``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = random.Random(seed)
    schemas = chain_schemas(depth)
    sources: Dict[str, SourceDatabase] = {}
    for i in range(depth + 1):
        values = [(k, rng.randrange(rows_per_source)) for k in range(rows_per_source)]
        sources[f"db{i}"] = MemorySource(f"db{i}", [schemas[f"T{i}"]], initial={f"T{i}": values})

    views: Dict[str, str] = {"N1": "T0 join[v0 = k1] T1"}
    for i in range(2, depth + 1):
        views[f"N{i}"] = f"N{i - 1} join[v{i - 1} = k{i}] T{i}"
    vdp = build_vdp(
        source_schemas=schemas,
        source_of={f"T{i}": f"db{i}" for i in range(depth + 1)},
        views=views,
        exports=[f"N{depth}"],
    )
    mediator = SquirrelMediator(
        annotate(vdp, {}, default=default_annotation),
        sources,
        tracer=tracer,
    )
    mediator.initialize()
    return mediator, sources


# ---------------------------------------------------------------------------
# Union scenario (Section 5.1 shape (c), union flavour)
# ---------------------------------------------------------------------------
def union_schemas() -> Dict[str, RelationSchema]:
    """Two regional order tables with identical shape."""
    cols = (
        Attribute("oid", "int"),
        Attribute("cust", "int"),
        Attribute("amount", "int"),
    )
    return {
        "orders_east": RelationSchema("orders_east", cols, key=("oid",)),
        "orders_west": RelationSchema("orders_west", cols, key=("oid",)),
    }


def union_sources(rows_per_region: int = 40, seed: int = 23) -> Dict[str, SourceDatabase]:
    """Two regional sources; east oids are even, west oids odd (disjoint)."""
    rng = random.Random(seed)
    schemas = union_schemas()
    east = [(2 * i, rng.randrange(10), rng.randrange(1000)) for i in range(rows_per_region)]
    west = [(2 * i + 1, rng.randrange(10), rng.randrange(1000)) for i in range(rows_per_region)]
    return {
        "east": MemorySource("east", [schemas["orders_east"]], initial={"orders_east": east}),
        "west": MemorySource("west", [schemas["orders_west"]], initial={"orders_west": west}),
    }


def union_vdp() -> VDP:
    """A union node over two regional leaf-parents: ``all_orders`` is the
    bag union of big orders from both regions (Section 5.1's union shape)."""
    schemas = union_schemas()
    return build_vdp(
        source_schemas=schemas,
        source_of={"orders_east": "east", "orders_west": "west"},
        views={
            "east_p": "rename[oid = o, cust = c, amount = a](select[amount > 100](orders_east))",
            "west_p": "rename[oid = o, cust = c, amount = a](select[amount > 100](orders_west))",
            "all_orders": "project[o, c, a](east_p) union project[o, c, a](west_p)",
        },
        exports=["all_orders"],
    )


def union_mediator(
    overrides: Optional[Mapping[str, str]] = None,
    seed: int = 23,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[SquirrelMediator, Dict[str, SourceDatabase]]:
    """A deployed union-scenario mediator (fully materialized by default)."""
    sources = union_sources(seed=seed)
    annotated = annotate(union_vdp(), dict(overrides or {}))
    mediator = SquirrelMediator(
        annotated,
        sources,
        tracer=tracer,
    )
    mediator.initialize()
    return mediator, sources


# ---------------------------------------------------------------------------
# Figure 2 / Remark 3.1
# ---------------------------------------------------------------------------
def figure2_trace():
    """Figure 2's six-step scenario: pseudo-consistent but NOT consistent.

    One source ``db`` holds binary ``R``; the view is ``S = π_2(R)`` (set
    semantics).  Returns ``(trace, view_fn)`` ready for the checkers.
    """
    from repro.correctness.trace import IntegrationTrace
    from repro.relalg import Evaluator, scan

    r_schema = RelationSchema("R", (Attribute("x"), Attribute("y")))
    s_schema = RelationSchema("S", (Attribute("y"),))
    view_expr = scan("R").project(["y"], dedup=True)

    def view_fn(source_states):
        catalog = {"R": source_states["db"]["R"]}
        return {"S": Evaluator(catalog).evaluate(view_expr, "S")}

    from repro.relalg import SetRelation

    def r_state(*pairs):
        return {"R": SetRelation.from_values(r_schema, pairs)}

    def s_state(*values):
        return {"S": SetRelation.from_values(s_schema, [(v,) for v in values])}

    trace = IntegrationTrace(["db"])
    db_states = [
        (1.0, r_state(("a", "a"))),
        (2.0, r_state(("b", "b"))),
        (3.0, r_state(("c", "a"))),
        (4.0, r_state(("d", "a"))),
        (5.0, r_state(("e", "a"))),
        (6.0, r_state(("f", "a"))),
    ]
    view_states = [
        (1.0, s_state("a")),
        (2.0, s_state("a")),
        (3.0, s_state("b")),
        (4.0, s_state("a")),
        (5.0, s_state("b")),
        (6.0, s_state("a")),
    ]
    for t, state in db_states:
        trace.record_source_state("db", t, state)
    for t, state in view_states:
        trace.record_view_state(t, "query", state)
    return trace, view_fn


# ---------------------------------------------------------------------------
# Figure 4 / Example 5.1
# ---------------------------------------------------------------------------
def figure4_schemas() -> Dict[str, RelationSchema]:
    """Schemas of the four source relations ``A``, ``B``, ``C``, ``D``."""
    return {
        "A": RelationSchema(
            "A", (Attribute("a1", "int"), Attribute("a2", "int")), key=("a1",)
        ),
        "B": RelationSchema(
            "B", (Attribute("b1", "int"), Attribute("b2", "int")), key=("b1",)
        ),
        "C": RelationSchema(
            "C", (Attribute("c1", "int"), Attribute("c2", "int")), key=("c1",)
        ),
        "D": RelationSchema(
            "D", (Attribute("d1", "int"), Attribute("d2", "int")), key=("d1",)
        ),
    }


def figure4_sources(
    a_rows: int = 60,
    b_rows: int = 40,
    cd_rows: int = 40,
    seed: int = 11,
) -> Dict[str, SourceDatabase]:
    """Four in-memory sources with data exercising both exports.

    ``C``/``D`` rows are built so their equi-join produces ``(a1, b1)``
    pairs overlapping ``π_{a1,b1} E`` — the difference node ``G`` then has
    something to subtract.
    """
    rng = random.Random(seed)
    schemas = figure4_schemas()
    a_values = [(i, rng.randrange(20)) for i in range(a_rows)]
    b_values = [(i, rng.randrange(3, 12)) for i in range(b_rows)]
    # c2 carries candidate a1 values, d2 candidate b1 values; c1 = d1 links them.
    c_values = [(i, rng.randrange(a_rows)) for i in range(cd_rows)]
    d_values = [(i, rng.randrange(b_rows)) for i in range(cd_rows)]
    return {
        "dbA": MemorySource("dbA", [schemas["A"]], initial={"A": a_values}),
        "dbB": MemorySource("dbB", [schemas["B"]], initial={"B": b_values}),
        "dbC": MemorySource("dbC", [schemas["C"]], initial={"C": c_values}),
        "dbD": MemorySource("dbD", [schemas["D"]], initial={"D": d_values}),
    }


def figure4_vdp() -> VDP:
    """The Figure 4 VDP: hybrid join export ``E``, difference export ``G``."""
    schemas = figure4_schemas()
    return build_vdp(
        source_schemas=schemas,
        source_of={"A": "dbA", "B": "dbB", "C": "dbC", "D": "dbD"},
        views={
            "A_p": "A",
            "B_p": "B",
            "C_p": "C",
            "D_p": "D",
            "E": "project[a1, a2, b1](A_p join[a1 ^ 2 + a2 < b2 ^ 2] B_p)",
            "F": "rename[c2 = a1, d2 = b1](project[c2, d2](C_p join[c1 = d1] D_p))",
            "G": "project[a1, b1](E) minus F",
        },
        exports=["E", "G"],
    )


def figure4_mediator(
    annotation: str = "paper",
    sources: Optional[Mapping[str, SourceDatabase]] = None,
    seed: int = 11,
    eca_enabled: bool = True,
    key_based_enabled: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[SquirrelMediator, Dict[str, SourceDatabase]]:
    """A deployed Figure-4 mediator.

    ``annotation`` is ``"paper"`` (Example 5.1's suggestion: ``B'`` and
    ``F`` virtual, ``E`` hybrid ``[a1^m, a2^v, b1^m]``, the rest
    materialized), ``"all_m"``, or ``"all_v"`` (exports cannot store
    nothing under ``all_v`` — every node is virtual and every query polls).
    """
    overrides: Dict[str, str]
    default = "m"
    if annotation == "paper":
        overrides = {
            "B_p": "[b1^v, b2^v]",
            "E": "[a1^m, a2^v, b1^m]",
            "F": "[a1^v, b1^v]",
        }
    elif annotation == "all_m":
        overrides = {}
    elif annotation == "all_v":
        overrides = {}
        default = "v"
    else:
        raise ValueError(f"unknown annotation {annotation!r}")
    sources = dict(sources) if sources else figure4_sources(seed=seed)
    annotated = annotate(figure4_vdp(), overrides, default=default)
    mediator = SquirrelMediator(
        annotated,
        sources,
        eca_enabled=eca_enabled,
        key_based_enabled=key_based_enabled,
        tracer=tracer,
    )
    mediator.initialize()
    return mediator, sources
