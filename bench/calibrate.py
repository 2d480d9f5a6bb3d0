"""Host speed: a fixed CPU kernel, timed between the cells of a run.

The benchmark shares a few cores of a host whose speed moves by 15-50%
from minute to minute with the load of other guests. A run times this
kernel right after every cell, for ``SHARE`` of the cell's time and at
least ``MIN_REPEATS`` times, and scales the cell's time by
``REFERENCE_S`` / (the kernel's median time there): seconds at the speed
the host had when ``REFERENCE_S`` was measured. Set-up time is scaled the
same way by the kernel's time right after it. The kernel uses none of the
program's code, so a change to the program moves the scaled timings as
much as the raw ones.

The kernel mixes the kinds of work the workloads do: a Python sort with a
key function (greedy matching, the tie-break's bookkeeping), small dense
LAP solves (exact matching), and dense products and an eigensolve (the
spectral and score layers).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

SHARE = 0.04  # of each cell's time spent timing the kernel after it
MIN_REPEATS = 3
REFERENCE_S = 0.0031  # a median kernel time on the 2-vCPU VM of bench/README.md; only ratios to it matter


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20160213)
        self._keys = rng.random(3000).tolist()
        self._lap = rng.random((40, 40))
        self._dense = rng.random((300, 300))
        self._vector = rng.random(300)
        sym = rng.random((60, 60))
        self._sym = sym + sym.T
        for _ in range(3):  # warm-up: first-call costs of the libraries
            self.kernel()

    def kernel(self) -> None:
        keys = self._keys
        sorted(range(len(keys)), key=lambda t: (-keys[t], t))
        for _ in range(4):
            linear_sum_assignment(self._lap, maximize=True)
        for _ in range(10):
            self._dense @ self._vector
        np.linalg.eigh(self._sym)

    def scaled(self, seconds: float) -> float:
        """``seconds`` just measured, at the reference speed: times the kernel for SHARE of them."""
        times: list[float] = []
        end = time.perf_counter() + SHARE * seconds
        while len(times) < MIN_REPEATS or time.perf_counter() < end:
            t = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t)
        return seconds * REFERENCE_S / statistics.median(times)
