"""Fixed reference computation that tracks the machine's current speed.

The package's run time on a shared machine drifts by tens of percent
over minutes, as other tenants come and go.  The loop here does the same
kinds of work as the package (interpreter-bound bookkeeping around small
numpy arrays, a priority queue, and large vectorised array passes) but
depends on none of its code, so a change to the package cannot move it.
Times measured next to it are divided by it to cancel the drift.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_X = np.linspace(0.05, 0.95, 15)
_W = np.polynomial.legendre.leggauss(15)[1]


def _small_arrays(n: int) -> float:
    """Adaptive-quadrature-like bookkeeping: small arrays, floats and a heap."""
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for k in range(n):
        y = np.exp(-_X * (1.0 + (k % 7))) * np.sqrt(_X)
        val = float(_W @ y)
        acc += val
        heapq.heappush(heap, (-abs(val - acc * 1e-3), k))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def _large_arrays(n: int) -> float:
    """Block-sampling-like passes over arrays of a few thousand rows."""
    rng = np.random.Generator(np.random.Philox(12345))
    acc = 0.0
    for _ in range(n):
        z = rng.standard_normal((4096, 5))
        r = np.linalg.norm(z, axis=1)
        acc += float(np.einsum("ij,ij->i", z, z).sum() / r.sum())
    return acc


def calibration_s() -> float:
    """Wall time of the reference loop, about 0.08 s on a 2-core Xeon."""
    t0 = time.perf_counter()
    _small_arrays(6000)
    _large_arrays(60)
    return time.perf_counter() - t0
