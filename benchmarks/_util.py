"""Shared helpers for the benchmark suite.

Each benchmark regenerates one paper artifact (figure, example, theorem, or
prose claim — see DESIGN.md's experiment index).  Results are printed AND
persisted under ``benchmarks/results/`` so EXPERIMENTS.md tables can be
refreshed from the files after a run.

The persisted copies are meant to be committed, so they must be
reproducible run-to-run: benchmarks draw randomness through
:func:`seeded_rng` (one fixed base seed), and :func:`report` masks
wall-clock columns — deterministic counters are the durable record;
timings vary by machine and are printed to stderr only.
"""

from __future__ import annotations

import pathlib
import random
import re
import sys
import time
from typing import Any, Callable, List, Optional, Sequence

from repro.bench import render_table, shape_line

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: One fixed seed for the whole suite.  Benchmarks derive their RNGs from it
#: (``seeded_rng(offset)``) so the committed ``results/*.txt`` files — and
#: the ``BENCH_*.json`` counter baselines — never churn between runs.
BENCH_SEED = 2063


def seeded_rng(offset: int = 0) -> random.Random:
    """A fresh RNG at the fixed suite-wide seed (plus a per-use offset)."""
    return random.Random(BENCH_SEED + offset)


#: Column names matching this are wall-clock-derived: real values are
#: printed, but the persisted copy shows ``~`` so committed files are
#: stable.  Matches "wall ms", "query ms", "ms/update", "speedup (wall)"…
_VOLATILE_COLUMN = re.compile(r"(^|[^a-z])ms([^a-z]|$)|wall|sec\b", re.IGNORECASE)


def _mask_volatile(
    columns: Sequence[str], rows: Sequence[Sequence[Any]], volatile: Sequence[str]
) -> Optional[List[List[Any]]]:
    masked_idx = {
        i
        for i, col in enumerate(columns)
        if _VOLATILE_COLUMN.search(str(col)) or col in volatile
    }
    if not masked_idx:
        return None
    return [
        [("~" if i in masked_idx else v) for i, v in enumerate(row)] for row in rows
    ]


def report(
    experiment: str,
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    shapes: Sequence[str] = (),
    note: Optional[str] = None,
    volatile: Sequence[str] = (),
    persisted_shapes: Optional[Sequence[str]] = None,
) -> str:
    """Render and print one experiment's table; persist a stable copy.

    The printed table carries live values.  In the persisted
    ``results/<experiment>.txt`` every timing column (auto-detected by
    name, plus any listed in ``volatile`` — e.g. ratios *of* timings) is
    masked with ``~`` so the committed file only changes when the
    deterministic counters or shape verdicts do.  A shape line quoting a
    measurement is persisted as its ``persisted_shapes`` counterpart (the
    verdict kept, the numbers masked).
    """
    text = render_table(title, columns, rows, note=note)
    for line in shapes:
        text += line + "\n"
    masked_rows = _mask_volatile(columns, rows, volatile)
    if persisted_shapes is not None:
        shapes = persisted_shapes
    if masked_rows is None and persisted_shapes is None:
        persisted = text
    else:
        stable_note = (
            (note + "; " if note else "")
            + "~ = wall-clock value, masked in the committed copy (run the "
            + "benchmark for live timings)"
        )
        persisted = render_table(title, columns, masked_rows or rows, note=stable_note)
        for line in shapes:
            persisted += line + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(persisted)
    print("\n" + text, file=sys.stderr)
    return text


def time_callable(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` in seconds (coarse, for table columns;
    the pytest-benchmark fixture provides the precise timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
