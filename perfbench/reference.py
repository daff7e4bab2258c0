"""A fixed CPU kernel that puts timings from a shared host on one scale.

On the shared 2-vCPU VMs this benchmark was built on, each vCPU switches
between speeds about 1.8x apart, for a fraction of a second up to tens of
seconds at a time.  A median over one run cannot average out a slow spell
as long as the run, so runs of the same code differed by more than the
benchmark's bounds.

So every timed interval is bracketed by two runs of this kernel on the same
CPU (``run.py`` pins the benchmark and its children to one), and reported as
``rescale(interval, before, after)``: the interval times ``REFERENCE_S``
over the kernel's mean time around it.  A timing is thus given in seconds
of a CPU on which the kernel takes ``REFERENCE_S``.  The kernel is the
benchmark's own code, so a change to slicemon moves the rescaled timings
exactly as much as the raw ones.
"""

from __future__ import annotations

import time

#: The kernel's time on the scale timings are reported in: about its time
#: on a 2.1 GHz vCPU of the baseline's VM in its fast state.
REFERENCE_S = 0.015


def kernel_s() -> float:
    """Run the kernel once and return its wall time in seconds.

    The kernel does what slicemon's inner loops do most: format short
    strings, build tuples, and update and sort a dict.
    """
    started = time.perf_counter()
    table: dict[tuple[str, int], int] = {}
    for n in range(12000):
        key = ("k%d" % (n % 997), n & 7)
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return time.perf_counter() - started


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` on the reporting scale, given the kernel's times around it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
