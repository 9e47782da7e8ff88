"""Fixed CPU yardstick that every timed operation is scaled by.

The machine this benchmark runs on changes speed by tens of percent within
minutes (other tenants share its cores), and CPU time tracks wall time, so
neither clock alone gives a steady figure.  Each timed operation is
therefore bracketed by runs of the loop below, and its time is reported as

    t_scaled = t_raw * NOMINAL_S / (mean of the two bracketing yardstick times)

i.e. in seconds of a machine on which the yardstick takes exactly
``NOMINAL_S``.  The loop mixes the two kinds of work the program spends its
time on: numpy calls on small arrays (per-call overhead, as in the series
kernel and the Sturm row loop) and plain interpreted arithmetic.  It calls
no starkspec code, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Yardstick time, in seconds, of the nominal machine.  A fixed constant, so
#: that scaled figures stay comparable across commits; it is close to the
#: yardstick's median on the 2-core x86-64 container the benchmark was built
#: on (Python 3.11.7, numpy 2.4.6), where medians of 300 to 2000 runs read
#: 9.1 to 10.2 ms.
NOMINAL_S = 0.0100

_SMALL = 24
_LARGE = 1024
_NUMPY_STEPS = 400
_PYTHON_STEPS = 18000


def yardstick_work() -> float:
    """One yardstick run; returns a value so the work cannot be skipped."""
    a = np.linspace(0.5, 1.5, _SMALL)
    b = np.linspace(-1.0, 1.0, _LARGE)
    acc = 0.0
    for i in range(_NUMPY_STEPS):
        c = a * 1.0001 - 0.25 * a * a
        a = np.where(np.abs(c) > 1.0, 0.5 * c, c) + 0.75
        b = b * 0.999 + 0.001 * np.sqrt(np.abs(b) + i)
        acc += float(a[i % _SMALL])
    x = 0.1
    for i in range(_PYTHON_STEPS):
        x = (x * 1.000001 + i * 1e-9) % 7.0
    return acc + x + float(b[0])


def yardstick_s() -> float:
    """Wall time of one yardstick run, in seconds."""
    t0 = time.perf_counter()
    yardstick_work()
    return time.perf_counter() - t0
