"""A fixed reference computation that measures the host's current speed.

A virtual machine that shares its host's cores with other machines runs at
a drifting speed: on a 2-vCPU Xeon VM, identical blocks of verify points
ran at 190 to 350 points/s within one minute, and whole 30-55 s runs
differed by 15-20%.  The drift slows every kind of code alike, so run.py
times this kernel right after every point and also reports each point's
cost in units of the kernel's time ("ref").  That ratio cancels the drift,
yet moves one for one with the program's own speed, because the kernel
never calls the program.

The kernel mixes what a point does: a Python loop of float arithmetic and
``math.lgamma`` calls, and small numpy array expressions.  It allocates no
container objects, so garbage collection caused by the program does not
run inside it.
"""

import math
from time import perf_counter_ns

import numpy as np

_X = np.linspace(0.1, 3.0, 64)


def reference_ns() -> int:
    """Run the reference kernel once (about 0.1 ms here) and return its time in ns."""
    start = perf_counter_ns()
    s = 0.0
    for i in range(1, 400):
        s += math.lgamma(i * 0.37 + 0.1) / (i + 0.5)
    for _ in range(12):
        s += float((np.exp(-_X) * np.sinh(_X) + _X ** 0.7).sum())
    if not s > 0.0:
        raise AssertionError("reference kernel result changed")
    return perf_counter_ns() - start
