"""The mediator's constructor says what the paper says — and nothing else.

The paper ablates two mechanisms (Eager-Compensation, §6.3; key-based
construction, Example 2.3).  Five further options once selected strawman
paths; they were measured against the default, lost on every workload and
were deleted (docs/performance.md §5).  This file keeps them deleted: none
of the builders that forward keyword arguments to
:class:`SquirrelMediator` may accept one of the removed names, so none can
come back through a ``**mediator_kwargs`` pass-through either.
"""

import inspect

import pytest

from repro.core import SquirrelMediator, annotate
from repro.core.persistence import restore_mediator, save_mediator
from repro.generator import generate_mediator, make_sources
from repro.runtime import SimulatedEnvironment
from repro.sim import EnvironmentDelays
from repro.workloads import (
    FIGURE1_ANNOTATIONS,
    figure1_mediator,
    figure1_sources,
    figure1_vdp,
    figure4_mediator,
)

REMOVED = (
    "indexing_enabled",
    "smash_enabled",
    "vap_cache_enabled",
    "parallel_polls",
    "profiling_enabled",
)

SPEC = """
source db { relation R(k: int key, v: int) }
export V = project[k, v](R)
"""


def test_constructor_has_exactly_the_papers_options():
    params = list(inspect.signature(SquirrelMediator.__init__).parameters)
    assert params == [
        "self",
        "annotated",
        "sources",
        "links",
        "eca_enabled",
        "key_based_enabled",
        "tracer",
    ]


def test_removed_options_are_type_errors_everywhere(tmp_path):
    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    mediator, sources = figure1_mediator("ex21")
    path = str(tmp_path / "mediator.snapshot")
    save_mediator(mediator, path)
    delays = EnvironmentDelays.uniform(["db1", "db2"], u_hold_delay_med=1.0)
    # Each keyword-forwarding builder, closed over otherwise valid
    # arguments — so a TypeError can only be about the extra keyword.
    builders = [
        lambda **kw: SquirrelMediator(annotated, sources, **kw),
        figure1_mediator,
        figure4_mediator,
        lambda **kw: generate_mediator(SPEC, make_sources(SPEC), **kw),
        lambda **kw: restore_mediator(annotated, sources, path, **kw),
        lambda **kw: SimulatedEnvironment(annotated, figure1_sources(), delays, **kw),
    ]
    for build in builders:
        build()  # the builder itself works...
        for name in REMOVED:
            with pytest.raises(
                TypeError, match=f"unexpected keyword argument '{name}'"
            ):
                build(**{name: True})  # ...and refuses the strawman
