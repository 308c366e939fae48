"""Chaos property test: maintenance converges under randomized faults.

The headline invariant of the fault subsystem: run a random VDP (every
Section 5.1 node shape, random legal annotations) inside the simulated
environment with a randomized :class:`FaultPlan` — messages dropped,
duplicated, delayed and reordered at up to 10% each — let the reliability
layer repair the damage, drain, and demand that **every materialized node
equals a from-scratch recomputation** from current source states.

All time flows through the discrete-event clock (zero wall-clock sleeps);
fault schedules are pure functions of the plan seed, so every failing
example replays exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Annotation, AnnotatedVDP, build_vdp
from repro.correctness import assert_materialized_correct, assert_view_correct
from repro.errors import AnnotationError
from repro.faults import ChannelFaults, FaultPlan
from repro.relalg import make_schema
from repro.sim import EnvironmentDelays
from repro.runtime import SimulatedEnvironment
from repro.sources import MemorySource

X = make_schema("X", ["x1", "x2", "x3"], key=["x1"])
Y = make_schema("Y", ["y1", "y2"], key=["y1"])

JOIN_ATTR_POOL = ["x1", "x2", "x3", "y1", "y2"]

FAULTS_END = 12.0     # rate-based faults stop here (convergence horizon)
LAST_OP = 10.0        # workload fits inside the faulty window
DRAIN_UNTIL = 40.0    # generous room for capped-backoff retransmits


@st.composite
def vdp_specs(draw):
    shape = draw(st.sampled_from(["join", "union", "difference"]))
    threshold = draw(st.integers(min_value=1, max_value=9))
    views = {
        "Xp": f"select[x3 < {threshold}](X)",
        "Yp": "Y",
    }
    if shape == "join":
        attrs = sorted(
            draw(st.sets(st.sampled_from(JOIN_ATTR_POOL), min_size=1, max_size=5))
        )
        views["V"] = f"project[{', '.join(attrs)}](Xp join[x2 = y1] Yp)"
    elif shape == "union":
        views["V"] = (
            "project[x1, x2](Xp) union project[x1, x2](rename[y1 = x1, y2 = x2](Yp))"
        )
    else:
        views["V"] = (
            "project[x2](Xp) minus project[x2](rename[y1 = x2](project[y1](Yp)))"
        )
    return shape, views


@st.composite
def annotations_for(draw, annotated_nodes, vdp):
    marks = {}
    for name in annotated_nodes:
        node = vdp.node(name)
        attrs = node.schema.attribute_names
        choice = draw(st.sampled_from(["m", "v", "hybrid"]))
        if choice == "m" or (choice == "hybrid" and len(attrs) < 2):
            marks[name] = Annotation.all_materialized(attrs)
        elif choice == "v":
            marks[name] = Annotation.all_virtual(attrs)
        else:
            split = draw(st.integers(min_value=1, max_value=len(attrs) - 1))
            marks[name] = Annotation.of(
                {a: ("m" if i < split else "v") for i, a in enumerate(attrs)}
            )
    return marks


@st.composite
def fault_plans(draw):
    """Randomized per-channel fault rates, each capped at 10%."""
    rate = st.floats(min_value=0.0, max_value=0.10)

    def channel():
        return ChannelFaults(
            drop_rate=draw(rate),
            duplicate_rate=draw(rate),
            delay_rate=draw(rate),
            reorder_rate=draw(rate),
            delay_range=(0.0, draw(st.floats(min_value=0.1, max_value=3.0))),
            max_duplicates=draw(st.integers(min_value=1, max_value=3)),
        )

    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        channels={"sx": channel(), "sy": channel()},
        active_until=FAULTS_END,
    )


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["ix", "dx", "iy", "dy"]),
        st.integers(min_value=0, max_value=9_999),
        st.floats(min_value=0.5, max_value=LAST_OP),
    ),
    max_size=12,
)


@given(st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_chaos_convergence_to_recompute(data):
    shape, views = data.draw(vdp_specs())
    vdp = build_vdp(
        source_schemas={"X": X, "Y": Y},
        source_of={"X": "sx", "Y": "sy"},
        views=views,
        exports=["V"],
    )
    marks = data.draw(annotations_for(vdp.non_leaves(), vdp))
    try:
        annotated = AnnotatedVDP(vdp, marks)
    except AnnotationError:
        return  # e.g. hybrid on a set node: not a legal configuration

    rng = random.Random(7)
    sx = MemorySource(
        "sx",
        [X],
        initial={"X": [(i, rng.randrange(10), rng.randrange(10)) for i in range(12)]},
    )
    sy = MemorySource(
        "sy", [Y], initial={"Y": [(i, rng.randrange(10)) for i in range(8)]}
    )
    delays = EnvironmentDelays.uniform(
        ["sx", "sy"], ann_delay=0.3, comm_delay=0.2, u_hold_delay_med=1.0
    )
    env = SimulatedEnvironment(
        annotated,
        {"sx": sx, "sy": sy},
        delays,
        fault_plan=data.draw(fault_plans()),
        record_updates=False,
    )

    counter = [1000]

    def make_op(op, arg):
        def run():
            counter[0] += 1
            if op == "ix":
                sx.insert("X", x1=counter[0], x2=arg % 10, x3=arg % 13)
            elif op == "iy":
                sy.insert("Y", y1=counter[0], y2=arg % 10)
            else:
                source, relation = (sx, "X") if op == "dx" else (sy, "Y")
                rows = sorted(
                    source.relation(relation).rows(), key=lambda r: sorted(r.items())
                )
                if rows:
                    source.delete(relation, **dict(rows[arg % len(rows)]))

        return run

    for op, arg, t in data.draw(ops_strategy):
        env.schedule_action(t, make_op(op, arg), f"chaos op {op}")

    env.run_until(DRAIN_UNTIL)
    env.mediator.run_update_transaction()  # belt and braces: final flush

    # Quiescence: nothing in flight, buffered, or unacked anywhere.
    assert env.drained(), env.fault_stats()
    # The strong oracle: every materialized repository equals a fresh
    # rebuild from current source states, multiplicities included...
    assert_materialized_correct(env.mediator)
    # ...and the exports computed through the QP match ground truth too.
    assert_view_correct(env.mediator)


@given(st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_chaos_faults_actually_fire(data):
    """Meta-check: the harness is not vacuously passing — across examples
    with forced 10% rates, faults do occur and get repaired."""
    plan = FaultPlan(
        seed=data.draw(st.integers(min_value=0, max_value=2**16)),
        default=ChannelFaults(
            drop_rate=0.10, duplicate_rate=0.10, delay_rate=0.10,
            reorder_rate=0.10, delay_range=(0.0, 2.0),
        ),
        active_until=FAULTS_END,
    )
    decisions = plan.schedule("sx", 50)
    assert any(d.faulty for d in decisions)
