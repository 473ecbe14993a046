"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared virtual CPUs whose speed swings by up to
1.75x in phases of seconds to minutes, with nothing else running in the
machine: the same run of calls takes 115 ms or 200 ms per call depending on
when it starts.  Such swings slow every CPU-bound piece of code alike, so
each timing is scaled by a fixed reference loop run on the same CPU right
before and right after it:

    scaled = measured * NOMINAL_NS / (mean time of the two reference loops)

A scaled time reads as the time at the host speed at which the loop takes
``NOMINAL_NS``; a change of host speed in between moves the timing and the
loop together and cancels.  A change to vardim moves only the timing.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The loop's median time on the machine the figures were first taken on (a
# 2-vCPU Intel Xeon virtual machine at 2.1 GHz, in its slower phases), so
# that scaled and wall-clock times read alike there.  Only a unit: it
# never changes.
NOMINAL_NS = 3_000_000

# The loop's ingredients: interpreter work on small tuples, lists and a
# dict, and small numpy products, the mix vardim's calls are made of.  A
# pure integer loop tracked the calls' speed about half as well.
_ITEMS = list(range(64))
_TABLE = {i: i for i in range(256)}
_MATRIX = np.linspace(-1.0, 1.0, 90).reshape(10, 9)
_VECTOR = np.ones(9)


def reference_ns() -> int:
    """Time of one fixed reference loop, in ns."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(800):
        row = tuple(_ITEMS[i % 16:i % 16 + 12])
        acc += sum(row) + _TABLE.get(i & 255, 0) + len([x for x in row
                                                        if x & 1])
    for _ in range(250):
        acc += float(np.max(np.abs(_MATRIX @ _VECTOR)))
    return time.perf_counter_ns() - t0


def scaled(ns: float, before_ns: int, after_ns: int) -> float:
    """``ns`` at the nominal host speed, given the reference loop's times
    right before and right after it."""
    return ns * NOMINAL_NS / ((before_ns + after_ns) / 2)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that a timing and
    its reference loops run where each other ran."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
