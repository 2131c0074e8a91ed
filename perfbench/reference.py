"""A fixed reference loop that gauges how fast the machine runs right now.

On a shared host the same interpreter-bound work slows by up to 2x for
seconds to minutes at a time, with CPU time growing as much as wall time,
so neither the median nor the fastest of a run's passes repeats from one
run to the next.  The package's small-array numpy work slows in step with
this loop: over windows of about seven seconds the ratio of a
``solver.run`` call to the loop stayed within about 5% while each alone
varied 2x.  So each timed call is bracketed by the loop, and its time is
scaled to the speed at which the loop takes ``QUIET_S``.

The loop is part of the benchmark, never of the package, so a change to
the package moves the scaled times and nothing moves the loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The loop's median time on a quiet 2-vCPU Sapphire Rapids KVM guest
# (numpy 2.4 with OpenBLAS, Python 3.11): scaled times read as seconds there.
QUIET_S = 0.0066
REPEATS = 3
_X = np.random.default_rng(0).uniform(size=(30, 4))


def _loop() -> float:
    t0 = time.perf_counter()
    x = _X
    for _ in range(1000):
        x = np.maximum(x * 0.5 + 0.1, _X.max(axis=1)[:, None] * 0.0)
    return time.perf_counter() - t0


def reference_s() -> float:
    """Median time of ``REPEATS`` runs of the loop."""
    return statistics.median(_loop() for _ in range(REPEATS))


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the loop took ``reference``, at quiet speed."""
    return seconds * QUIET_S / reference
