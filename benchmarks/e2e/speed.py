"""Machine-speed probe: timings reported at a fixed nominal speed.

On the shared 2-vCPU VM the bounds were measured on, the machine runs
whole spells, from a second to minutes long, about 1.7x slower than
usual, and the spells slow Python bytecode and small numpy reductions
alike.  No number of replays inside a 20-second run filters a spell
that covers the run.

So the benchmark times a fixed piece of its own work, the probe,
between service calls, and scales each call's wall time by
``NOMINAL_S / probe time around the call``.  A change to the code under
test moves the scaled time; a change in the machine's speed moves the
call and the probe together and cancels.  The probe never calls into
the code under test.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe seconds on that VM at its usual (fast-spell) speed; scaled
#: timings read as if the machine ran at that speed throughout.
NOMINAL_S = 3.1e-4
#: Seconds of service calls between two probe samples.
EVERY_S = 0.05

_ARRAY = np.arange(64.0)


def probe() -> float:
    """Seconds of a fixed Python-plus-small-numpy workload, best of 3."""
    best = float("inf")
    for __ in range(3):
        start = perf_counter()
        total = 0.0
        for i in range(150):
            total += float((_ARRAY * i).sum())
            box = {"i": i}
            total += box["i"]
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` of wall time at nominal speed, given the probe on
    either side of it."""
    return seconds * NOMINAL_S * 2.0 / (probe_before + probe_after)


class SpeedTrack:
    """Probe samples taken between the calls of one timed loop."""

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._seconds: list[float] = []
        self._last = float("-inf")

    def sample(self, index: int) -> None:
        """Probe now, before call ``index``."""
        self._starts.append(index)
        self._seconds.append(probe())
        self._last = perf_counter()

    def maybe_sample(self, index: int) -> None:
        """Probe before call ``index`` if :data:`EVERY_S` has passed."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample(index)

    def around(self, calls: int) -> np.ndarray:
        """Per call, the mean of the samples on either side of it.

        Needs a sample before call 0 and one after the last call.
        """
        starts = np.asarray(self._starts)
        seconds = np.asarray(self._seconds)
        before = np.searchsorted(starts, np.arange(calls), side="right") - 1
        after = np.minimum(before + 1, len(seconds) - 1)
        return (seconds[before] + seconds[after]) / 2.0
