"""Benchmark-owned spans around the calls into each layer.

The traced pass wraps, on the live instances only, the public entry points
the workloads drive or that sit on a layer boundary.  A span is
``[name, start, end, parent, count]``; spans live in one in-memory list and
are written out once, after the clock has stopped.  The repo's own
``Tracer`` stays off: reconciling its inside spans with these outside
numbers is a later issue.

A span's *self time* is its duration minus the part of that interval its
child spans cover, so the self times of one operation's spans partition the
operation's wall time: whatever no wrapped call covers lands in the
operation's own root span and is reported as ``bench.unattributed_share``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["ROOT", "SpanRecorder", "layer_of", "self_times"]

#: Name of the synthetic per-operation root span.
ROOT = "bench.op"

NAME, START, END, PARENT, COUNT = range(5)


def layer_of(span_name: str) -> str:
    """``core.iup.txn`` -> ``core.iup``: a span's layer is its module."""
    return span_name.rsplit(".", 1)[0]


class SpanRecorder:
    """A span stack over wrapped bound methods of live objects."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._main = threading.get_ident()

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        counter: Optional[Callable[[], int]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper (instance only).

        ``counter`` is read at both span boundaries and the difference kept
        in the span, so a count is measured where the work happens.
        """
        setattr(obj, attr, self.traced(getattr(obj, attr), name, counter))

    def traced(
        self, fn: Callable, name: str, counter: Optional[Callable[[], int]] = None
    ) -> Callable:
        spans, stack, main = self.spans, self._stack, self._main

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, 0]
            spans.append(span)
            # The VAP polls independent sources from worker threads; those
            # spans hang under the main thread's open span and, being
            # leaves, never touch the stack.
            on_main = threading.get_ident() == main
            if on_main:
                stack.append(span)
            before = counter() if counter else 0
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                if counter:
                    span[COUNT] = counter() - before
                if on_main:
                    stack.pop()

        return wrapper

    def dump(self) -> List[list]:
        """Spans as JSON-ready rows, parents as indexes (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [s[NAME], s[START], s[END], index[id(s[PARENT])] if s[PARENT] else -1, s[COUNT]]
            for s in self.spans
        ]


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of intervals (parallel polls overlap)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(
    spans: Sequence[list],
    ops: Sequence[Tuple[float, float]],
    scaled: Callable[[float, float], float],
) -> Tuple[Dict[str, List[float]], Dict[str, List[int]]]:
    """Per span name: self times (seconds) and boundary counts.

    ``scaled(start, seconds)`` is the machine-speed correction applied to
    every self time (see ``calibration``).

    ``ops`` are the driver loop's own ``(start, end)`` intervals,
    sequential and disjoint.  Each becomes a ``bench.op`` root that adopts
    the parentless spans starting inside it, so the root's self time is
    exactly the part of the operation no wrapped call accounts for.
    Parentless spans outside every operation (oracle checks) are dropped
    together with their subtrees.
    """
    roots = [[ROOT, start, end, None, 0] for start, end in ops]
    starts = [start for start, _ in ops]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    kept = {id(root) for root in roots}
    timed: List[list] = list(roots)
    for span in spans:  # append order puts every parent before its children
        parent = span[PARENT]
        if parent is None:
            at = bisect_right(starts, span[START]) - 1
            if at < 0 or span[START] >= roots[at][END]:
                continue
            parent = roots[at]
        elif id(parent) not in kept:
            continue
        kept.add(id(span))
        timed.append(span)
        children[id(parent)].append((span[START], span[END]))
    selfs: Dict[str, List[float]] = defaultdict(list)
    counts: Dict[str, List[int]] = defaultdict(list)
    for span in timed:
        own = span[END] - span[START] - _covered(children.get(id(span), ()))
        selfs[span[NAME]].append(scaled(span[START], own))
        counts[span[NAME]].append(span[COUNT])
    return selfs, counts
