"""Machine-speed correction for a sandbox whose CPU changes speed under it.

Measured while this benchmark was written (pure-Python spin loop, process
CPU time equal to wall time, so not pre-emption): the two-core sandbox runs
in one of three speed modes about 1 : 1.15 : 1.5 apart, flips between them
every 1–8 s at some hours, and sits in a single one for many minutes at
others.  Identical runs of one workload read 12.2 ms per transaction in the
first hour and 15.5–20 ms in the third.  Plain medians of 15 s runs spread
17–24 % over ten seeds and drifted more than that between sessions — beyond
any bound a regression gate may use.  More work per run does not average a
drift away, and a floor over repeats jumps whenever the rare fast mode shows.

So the driver loops time a fixed interpreter-bound kernel between operations,
and every measured duration is scaled by ``REFERENCE_S / kernel time around
that moment``.  The kernel slows and speeds with the workloads (the ratio of
one to the other stayed within ±3 % across the mode changes that moved both
by 20–50 %), because the system under test is interpreter-bound Python too.
A reported time therefore reads: wall-clock time of the operation, at the
CPU speed at which the kernel takes ``REFERENCE_S``.  ``bench.machine_speed``
reports the factor that was applied, so the unscaled wall time is one
division away, and the record keeps it per repeat.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

__all__ = ["REFERENCE_S", "Calibration"]

#: The kernel's duration on the sandbox's middle speed mode.
REFERENCE_S = 40e-6
_KERNEL = range(1000)
#: Speed is estimated per window of this many seconds (plus its neighbours).
_WINDOW_S = 0.25


class Calibration:
    """Kernel timings taken between operations, and the factor they imply."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._by_window: Dict[int, List[float]] = {}
        self._speed: Dict[int, float] = {}

    def sample(self) -> None:
        t0 = perf_counter()
        x = 0
        for i in _KERNEL:
            x += i * i
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def burst(self, n: int = 25) -> None:
        """Several samples at once, around a one-off such as set-up."""
        for _ in range(n):
            self.sample()

    def speed_at(self, when: float) -> float:
        """Reference ÷ median kernel time in the windows around ``when``;
        above 1 when the machine was faster than the reference."""
        if not self._by_window:  # first use: sampling is over
            grouped = defaultdict(list)
            for at, seconds in self.samples:
                grouped[int(at / _WINDOW_S)].append(seconds)
            self._by_window = grouped
        window = int(when / _WINDOW_S)
        if window not in self._speed:
            near = [s for w in (window - 1, window, window + 1) for s in self._by_window.get(w, ())]
            # No sample within three windows: an operation longer than that
            # (a recovery) — fall back on the whole repeat.
            near = near or [seconds for _, seconds in self.samples]
            self._speed[window] = REFERENCE_S / statistics.median(near)
        return self._speed[window]

    def scaled(self, start: float, duration: float) -> float:
        """``duration`` measured from ``start``, at the reference speed."""
        return duration * self.speed_at(start)

    def median_speed(self) -> float:
        return REFERENCE_S / statistics.median(seconds for _, seconds in self.samples)
