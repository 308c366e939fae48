"""Canned traced scenarios: one call → a populated tracer.

The CLI's ``repro trace`` subcommand and the trace integration tests both
need the same thing — a deployed mediator with tracing (and provenance)
enabled, driven through a representative workload that exercises every
span family: view initialization, a materialized-only query, a
virtual-attribute query (VDP walk, polls, temp construction, cache
verdicts), source updates flowing through an update transaction (rule
firings with delta sizes, cache invalidation), and a post-update re-query.

Each scenario is deterministic: fixed seeds, fixed update rows, and — for
workloads over the fault-injecting simulator — the simulated clock, so two
runs produce identical traces (modulo wall-clock timestamps for the
in-process scenarios; record structure and attributes are identical).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.obs.tracer import Tracer

__all__ = ["SCENARIOS", "run_scenario", "scenario_names"]


def _run_figure1(example: str, tracer: Tracer):
    from repro.deltas import Delta
    from repro.relalg import row
    from repro.workloads.scenarios import figure1_mediator

    mediator, sources = figure1_mediator(example, tracer=tracer)
    # Materialized-only probe: under ex21 everything is materialized; under
    # ex22/ex23 the stored projection of T still answers narrow queries.
    mediator.query_relation("T", attrs=["r1", "s1"])
    # Full-width query: touches virtual attributes under ex22/ex23.
    mediator.query_relation("T")
    # Two source transactions (one per source) → one update transaction
    # carrying two origins, then a re-query over the refreshed view.
    d_r = Delta()
    d_r.insert("R", row(r1=9001, r2=5, r3=77, r4=100))
    sources["db1"].execute(d_r)
    d_s = Delta()
    d_s.insert("S", row(s1=5, s2=888, s3=10))
    sources["db2"].execute(d_s)
    mediator.refresh()
    mediator.query_relation("T")
    return mediator


def _run_union(tracer: Tracer):
    from repro.deltas import Delta
    from repro.relalg import row
    from repro.workloads.scenarios import union_mediator

    mediator, sources = union_mediator(
        overrides={"east_p": "[o^v, c^v, a^v]"}, tracer=tracer
    )
    mediator.query_relation("all_orders")
    delta = Delta()
    delta.insert("orders_east", row(oid=9000, cust=3, amount=500))
    sources["east"].execute(delta)
    mediator.refresh()
    mediator.query_relation("all_orders")
    return mediator


def _run_figure4(tracer: Tracer):
    from repro.deltas import Delta
    from repro.relalg import row
    from repro.workloads.scenarios import figure4_mediator

    mediator, sources = figure4_mediator("paper", tracer=tracer)
    mediator.query_relation("G")
    mediator.query_relation("E")
    delta = Delta()
    delta.insert("A", row(a1=9000, a2=1))
    sources["dbA"].execute(delta)
    mediator.refresh()
    mediator.query_relation("E")
    return mediator


def _run_faults(tracer: Tracer):
    """The Figure-1 environment over faulty channels: drops, duplicates,
    retransmissions, and an outage window all land in the trace."""
    import random

    from repro.core import annotate
    from repro.faults import ChannelFaults, FaultPlan, OutageWindow
    from repro.runtime.driver import SimulatedEnvironment
    from repro.sim import EnvironmentDelays
    from repro.workloads import (
        FIGURE1_ANNOTATIONS,
        UpdateStream,
        choice_of,
        figure1_sources,
        figure1_vdp,
        uniform_int,
    )

    plan = FaultPlan(
        seed=5,
        channels={
            "db1": ChannelFaults(
                drop_rate=0.3,
                duplicate_rate=0.3,
                outages=(OutageWindow(30.0, 40.0),),
            )
        },
        fault_free_after_attempt=2,
    )
    env = SimulatedEnvironment(
        annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"]),
        figure1_sources(r_rows=40, s_rows=20, seed=7),
        EnvironmentDelays.uniform(
            ["db1", "db2"], ann_delay=0.5, comm_delay=1.0, u_hold_delay_med=5.0
        ),
        fault_plan=plan,
        record_updates=False,
        tracer=tracer,
    )
    stream = UpdateStream(
        env.sources["db1"],
        "R",
        policies={
            "r2": uniform_int(0, 20),
            "r3": uniform_int(0, 100),
            "r4": choice_of([100, 200]),
        },
        rng=random.Random(3),
    )
    for t in (2.0, 12.0, 22.0, 32.0, 47.0):
        env.schedule_action(t, stream.step, "workload step")
    env.schedule_query(55.0, record=False)
    env.run_until(80.0)
    return env.mediator


SCENARIOS: Dict[str, Tuple[str, Callable[[Tracer], object]]] = {
    "ex21": (
        "Figure 1 under Example 2.1 (fully materialized support)",
        lambda tracer: _run_figure1("ex21", tracer),
    ),
    "ex22": (
        "Figure 1 under Example 2.2 (virtual auxiliary R')",
        lambda tracer: _run_figure1("ex22", tracer),
    ),
    "ex23": (
        "Figure 1 under Example 2.3 (hybrid T, key-based construction)",
        lambda tracer: _run_figure1("ex23", tracer),
    ),
    "union": (
        "Union-shaped VDP with one virtual branch",
        _run_union,
    ),
    "fig4": (
        "Figure 4 / Example 5.1 (difference node, arithmetic join)",
        _run_figure4,
    ),
    "faults": (
        "Figure 1 over faulty channels (drops, duplicates, outage)",
        _run_faults,
    ),
}


def scenario_names():
    """The canned scenario names, sorted."""
    return sorted(SCENARIOS)


def run_scenario(name: str, tracer: Tracer):
    """Drive one canned scenario against ``tracer``; returns the mediator."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        )
    return SCENARIOS[name][1](tracer)
