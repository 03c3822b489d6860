"""Host-speed calibration for the timed rounds.

The benchmark runs on a guest that shares its cores with other tenants, and
the guest's speed drifts: every operation of a workload can run 20-45% slower
for seconds to minutes at a time, its fastest call included.  A fixed
calibration kernel, timed after every operation, tracks that speed.
``run.py`` scales a run's times by ``REFERENCE_S`` over the run's median
kernel time, so the end-to-end times it reports are those of a host on which
the kernel takes ``REFERENCE_S``.  The unscaled figures go to the run
record.  A single kernel time varies by 10-20% from one call to the next, as
the operations do; the median of the hundreds a run takes varies far less.

The host's slow spells do not slow every kind of code alike, so the kernel
does, in about equal shares of time, the three kinds of work the library
does: small numpy calls with Python arithmetic between them (the simulator
loops), plain interpreter arithmetic (the constants pass) and a vector
recurrence over an 8192-long array (the series coefficients).  It touches no
``gwtheta`` code, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on the reference host (a 2-vCPU Xeon guest at
# 2.1 GHz, Python 3.11, numpy 2.4); scaled times equal raw times there
REFERENCE_S = 0.015

_X = np.linspace(0.0, 1.0, 8192)


def kernel() -> float:
    rng = np.random.default_rng(7)
    acc = 0.0
    for i in range(1500):
        a = rng.random(2)
        acc += float(a.sum()) * 0.5 + (i % 7)
    k = 0
    for i in range(55000):
        k += i * i % 7
    y = _X.copy()
    for j in range(1, 700):
        y[j:] += _X[:-j] * (1.0 / j)
    return acc + k + float(y[-1])


def timed_kernel() -> float:
    """Wall time of one kernel call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
