"""Machine speed, from a fixed reference kernel that is not medlink code.

The 2-vCPU host the benchmark was built on moves between speed states
up to 1.8x apart that last from seconds to minutes, often longer than
one run: the same op takes 1.6 s in one state and 2.4 s in the next,
with no change of code, and CPU time moves with wall time. No statistic
over one run can hide a change of state between runs, but a fixed
kernel timed between ops slows down with them. ``SpeedProbe`` times
that kernel (the median of ``REPEATS`` timings) before a timed stage
when ``EVERY_S`` seconds have passed since it last did, never inside a
stage, and scales the stage's time by ``REF_NS`` over the mean of the
samples just before and just after it. Scaled times read as
milliseconds at the reference speed (``REF_NS`` is a round figure near
the kernel's time on that host). A change in the measured code moves
them by the same share as it moves wall time; a change of machine state
moves them much less.

The kernel mixes, in about equal time, the two kinds of work medlink
does, which the speed states slow by different amounts: interpreter
work on dicts and small integers, which tracks the core's clock (as in
the Huffman decoder, the tokenizer and the MAC loops), and numpy passes
over a float array larger than the per-core caches, which track memory
and shared-cache speed (as in the wavelet transform and quantizer of a
2000x2000 image). The passes write into a preallocated buffer, so the
kernel allocates nothing. Scaling 2000x2000 round trips by the
interpreter part alone left their times spread more (coefficient of
variation 0.10) than scaling by the mix (0.06).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 1.5
REF_NS = 20_000_000
REPEATS = 3
LOOPS = 25_000
ELEMENTS = 1 << 21


class SpeedProbe:
    def __init__(self):
        self._a = np.random.default_rng(0).random(ELEMENTS)
        self._b = np.empty_like(self._a)
        self.samples: list[int] = []  # kernel nanoseconds, in order taken
        self._last = -float("inf")
        self._kernel()  # warm the buffers and the bytecode

    def _kernel(self) -> float:
        table: dict[int, int] = {}
        acc = 0
        for i in range(LOOPS):
            key = i & 1023
            acc += table.get(key, 0) + (i * 7 >> 3)
            table[key] = acc & 0xFFFF
        a, b = self._a, self._b
        np.multiply(a, 0.5, out=b)
        np.add(b, a, out=b)
        return acc + float(b.sum())

    def sample(self) -> int:
        """Median of ``REPEATS`` timings of the kernel, which a single
        preemption does not move; the index of the new sample."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            self._kernel()
            times.append(time.perf_counter_ns() - start)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Index of the latest sample, taken anew when ``EVERY_S`` passed."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for an op that ran after sample ``index`` and before the
        next one (the last sample, when there is no next)."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return 2 * REF_NS / (self.samples[index] + after)

    def median_scale(self, first: int = 0) -> float:
        """Factor for work spread over the samples from ``first`` on."""
        return REF_NS / statistics.median(self.samples[first:])
