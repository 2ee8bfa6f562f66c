"""Host speed, sampled with a fixed pure-Python kernel between sessions.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes: identical sessions take
0.37 s in one run and 0.56 s in the next, with CPU time equal to wall
time.  A session's own figures cannot tell that drift from a change to
the program, so every time the benchmark reports is scaled to a
*nominal host*: between sessions, outside their timing, it times
:func:`kernel`, and a session's wall time ``w`` is reported as
``w * nominal / measured``, where ``measured`` is the median of the
kernel samples taken just before and just after it and of the
:data:`WINDOW` samples on either side of those: single samples catch
the host in momentary states, while the drift moves over seconds.

The kernel calls no code of the program, so a change to the program
moves a scaled time exactly as much as the raw one; only the host's
drift cancels.  Raw times are kept next to the scaled ones in the run
record.  The kernel is interpreter-bound like the simulator (closure
calls, list and dict traffic, 64-bit masking) and has a small, fixed
memory footprint, so the program's heap does not slow it.
"""

from __future__ import annotations

import statistics
import time

#: seconds per kernel iteration on the nominal host (CPython 3.11 on a
#: 2-vCPU Intel Xeon VM at its fast state)
NOMINAL_S_PER_ITERATION = 0.5e-6

#: neighbouring samples on each side of a bracket that its median takes in
WINDOW = 2


def kernel(iterations: int) -> int:
    """Fixed interpreter-bound work; the result only defeats dead-code
    elimination."""
    regs = [0] * 32
    mem: dict[int, int] = {}

    def step(i, regs=regs, mem=mem):
        a = regs[i & 31]
        b = (a * 2654435761 + i) & 0xFFFFFFFFFFFFFFFF
        regs[(i + 5) & 31] = b
        if b & 3 == 1:
            mem[b & 4095] = a
        else:
            regs[1] ^= mem.get(a & 4095, 0)
        return b

    acc = 0
    for i in range(iterations):
        acc ^= step(i)
    return acc


class HostMeter:
    """Kernel samples of one run and the scale factors they give.

    ``scale(a, b)`` is the factor for work done between samples *a* and
    *b* (indices into :attr:`samples`): nominal kernel time over the
    median of the samples from ``a - WINDOW`` to ``b + WINDOW``.  Ask
    for it once those samples are taken, after the loop.  A factor
    below 1 means the host was slower than nominal.
    """

    def __init__(self, iterations: int):
        self.iterations = iterations
        self.nominal = iterations * NOMINAL_S_PER_ITERATION
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = time.perf_counter()
        kernel(self.iterations)
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        near = self.samples[max(0, before - WINDOW):after + WINDOW + 1]
        return self.nominal / statistics.median(near)

    def median_scale(self) -> float:
        """Nominal over the median sample: the run's typical factor."""
        return self.nominal / statistics.median(self.samples)
