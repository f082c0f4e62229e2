"""The host's speed, sampled by timing a fixed reference loop.

On a VM that shares its host, the speed drifts by a third and more over
minutes, which no statistic over a 25-second run removes.  So the loop
is timed between units of measured work, outside their timing, and each
unit's host time is scaled by ``REF_S`` over the mean of the two samples
around it: the time the unit would have taken at the reference speed.
A unit is one repetition, except in the registry, whose 12-second passes
are sampled around each experiment.  A program change that slows the
program slows its units and not the loop, so it still shows in full.
"""

from __future__ import annotations

from time import perf_counter

#: Seconds one pass of the reference loop takes at the reference speed,
#: about its median on the 2-vCPU VM where the bounds were set.
REF_S = 0.025


class _Rec:
    __slots__ = ("b", "c")

    def __init__(self, i: int) -> None:
        self.b = i * 0.5
        self.c = [float(i)]


class Speedometer:
    """Times the reference loop.  The loop mixes what the workloads do:
    attribute reads over small objects scattered in memory, dict updates
    and a numpy sort.  Its data is about 4 MB, allocated before anything
    is timed."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.recs = [_Rec(int(i)) for i in rng.permutation(20_000)]
        self.arr = rng.random(100_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the loop once; return (and keep) its host seconds."""
        import numpy as np

        t = perf_counter()
        acc = 0.0
        for _ in range(10):
            for r in self.recs:
                acc += r.b + r.c[0]
        d: dict[int, int] = {}
        for i in range(150_000):
            k = i % 1021
            d[k] = d.get(k, 0) + i
        for _ in range(5):
            np.sort(self.arr)
        elapsed = perf_counter() - t
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from host seconds to seconds at the reference speed for
        work done between two samples."""
        return REF_S / ((before + after) / 2)
