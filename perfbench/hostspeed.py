"""Host speed, sampled while the benchmark runs, to express times in
reference seconds.

The benchmark runs on small shared hosts whose speed changes for seconds to
minutes at a time: the same work item can take 1.9 times as long in a slow
period, and a 30 s run may fall wholly into one. So besides raw wall time the
benchmark reports reference seconds: raw seconds scaled by how much slower a
fixed calibration loop ran, in the same interval, than its reference time.

The loop is plain Python and shares no code with ndilab, so a change to the
program cannot move it. While a work item runs, ``SpeedProbe`` times the loop
from a SIGALRM handler every ``PERIOD_S`` of wall time; the handler runs in
the main thread between bytecodes, so no thread is started, and it touches
no program state. Its own time (under 1 % of the item) is subtracted.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# Mean loop time inside the handler during fast periods on the reference
# host (2-vCPU Intel Xeon VM, Python 3.11).
REFERENCE_LOOP_S = 250e-6


def time_loop() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total, table = 0.0, {}
    for j in range(2500):
        total += j * 0.5
        table[j & 63] = total
    return time.perf_counter() - start


def scale_from(samples: list[float]) -> float:
    """Factor from raw to reference seconds for the given loop times."""
    return REFERENCE_LOOP_S / statistics.mean(samples)


class SpeedProbe:
    """Times the calibration loop periodically inside a ``with`` block."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def factor(self, wall_s: float) -> float:
        """Factor from the block's raw seconds to reference seconds of the
        work alone: removes the probe's own time, then rescales."""
        busy = sum(self.samples)
        return (1.0 - busy / wall_s) * scale_from(self.samples or [time_loop()])
