"""Regression: a thread-affine source stays out of the VAP's poll fan-out.

``DirectLink.supports_parallel_poll`` used to be ``True`` for every source,
so a cold poll round over a :class:`SQLiteSource` plus any second source
ran the SQLite poll on a worker thread and raised
``sqlite3.ProgrammingError`` under the default flags.
"""

from repro.core import SquirrelMediator, annotate
from repro.core.links import DirectLink
from repro.correctness import assert_view_correct, recompute_all
from repro.sources import MemorySource, SQLiteSource
from repro.workloads import FIGURE1_ANNOTATIONS, figure1_schemas, figure1_vdp


def figure1_sources_r_on_sqlite():
    schemas = figure1_schemas()
    r = [(i, i % 7, i * 3 % 100, 100) for i in range(40)]
    s = [(i, i * 5 % 100, i % 50) for i in range(7)]
    return {
        "db1": SQLiteSource("db1", [schemas["R"]], initial={"R": r}),
        "db2": MemorySource("db2", [schemas["S"]], initial={"S": s}),
    }


def hybrid_figure1():
    """Example 2.3's hybrid ``T`` with ``R`` on SQLite and ``S`` in memory."""
    sources = figure1_sources_r_on_sqlite()
    mediator = SquirrelMediator(
        annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex23"]), sources
    )
    mediator.initialize()
    return mediator, sources


def test_parallel_poll_flag_follows_source_thread_affinity():
    sources = figure1_sources_r_on_sqlite()
    try:
        assert not DirectLink(sources["db1"]).supports_parallel_poll
        assert DirectLink(sources["db2"]).supports_parallel_poll
    finally:
        sources["db1"].close()


def test_full_width_query_polls_sqlite_and_memory_sources_together():
    mediator, sources = hybrid_figure1()
    try:
        # Full-width T needs r3 (db1) and s2 (db2): one cold two-source round.
        answer = mediator.query("T")
        assert answer == recompute_all(mediator.vdp, mediator.sources)["T"]
        assert not answer.is_empty()
        assert mediator.links["db1"].poll_count == 1
        assert mediator.links["db2"].poll_count == 1
        assert mediator.vap.stats.parallel_poll_batches == 0

        # With the temp cache warm, the oracle re-reads full-width T with
        # the cache bypassed: a second cold two-source round.
        assert mediator.vap.cache.entry_count()
        assert_view_correct(mediator)

        sources["db1"].insert("R", r1=1_000, r2=3, r3=9, r4=100)
        mediator.refresh()
        assert_view_correct(mediator)
    finally:
        sources["db1"].close()
