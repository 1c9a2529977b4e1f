"""Host-speed probe for timings taken on a shared machine.

On a 2-core VM shared with other tenants, the same Python code runs at one
of two speeds, about 1.5x apart, switching every few seconds; a run of a
few seconds catches an arbitrary mix of the two, and no median or minimum
inside the run removes that. So each timed window runs this fixed loop,
which uses no attk2 code, every `INTERVAL_NS` between its rounds (around
each request, for CLI requests), and times are scaled by how fast the loop
ran over the same window (just before and after the request):

    normalised time = measured time × REF_NS / mean probe time

The mean of probes spaced evenly in time follows the window's mix of slow
and fast stretches. The factor cancels the host's speed, not the
program's: a slower attk2 stays slower. The loop does what the store's
code does most, string-keyed dict lookups, on a table that fits in the
caches: on the host above, its speed tracked the workload's closely, while
a loop over a 30 MB table changed only half as much as the workload did.
"""

from __future__ import annotations

import statistics
import time
from array import array

REF_NS = 1_000_000  # a normalised time reads as if the probe had taken 1 ms
INTERVAL_NS = 100_000_000  # probe spacing inside a timed window
_KEYS = [f"key{i:04d}" for i in range(512)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_STEPS = 12_000


class Probe:
    """Collects probe timings; `factor()` turns measured times into
    normalised ones."""

    def __init__(self):
        self.samples = array("q")

    def sample(self, times: int = 1):
        """Run the probe loop `times` times, recording how long each took."""
        clock = time.perf_counter_ns
        keys, table = _KEYS, _TABLE
        for _ in range(times):
            acc = 0
            t0 = clock()
            for i in range(_STEPS):
                acc += table[keys[i & 511]]
            self.samples.append(clock() - t0)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples) / 1e6

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """REF_NS over the mean time of probes lo..hi (all by default):
        multiply a measured time by it."""
        return REF_NS / statistics.fmean(self.samples[lo:hi])
