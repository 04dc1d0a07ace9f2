"""Host-speed calibration for shared machines.

On a shared host the same simulation can take 0.07 s or 0.18 s a minute
apart: neighbours change how fast this CPU runs, and CPU time moves with
wall time, so neither can tell a slow program from a slow host.  A fixed
pure-Python loop timed between units moves the same way (it exercises the
same interpreter paths: dict stores, integer arithmetic, calls), so

    calibrated seconds = measured seconds x REFERENCE_SAMPLE_S / mean sample

expresses a duration at one fixed reference speed: the speed at which one
calibration sample takes ``REFERENCE_SAMPLE_S``.  A change to the program
moves calibrated seconds; a change in the neighbours' load mostly does not.
The loop's own time is excluded from the measured durations.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Duration of one calibration sample at the reference speed.
REFERENCE_SAMPLE_S = 0.005


def _calibration_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for index in range(20_000):
        table[index & 255] = index
        total += len(str(index)) + table[index & 255] % 7
    return total


class HostSpeed:
    """Calibration samples taken since the last :meth:`reset`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def reset(self) -> None:
        self.samples = []
        self.spent = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            _calibration_loop()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def calibrated(self, seconds: float) -> float:
        """``seconds`` measured over the sampled span, at reference speed."""
        return seconds * REFERENCE_SAMPLE_S / statistics.fmean(self.samples)
