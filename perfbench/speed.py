"""Machine speed, sampled while the benchmark runs.

On a shared host the same single-threaded code runs up to ~1.8x slower
for seconds to minutes at a time (a busy sibling hyperthread; no steal
time shows). Timing the program alone then mostly measures the host. So
the timed phases sample fixed calibration loops about every INTERVAL_S
seconds, and every timed span is also reported rescaled to reference
speed: raw seconds / the machine's slowdown (`calibrate`), averaged over
the samples at both ends of the span. Calibration time itself is
excluded from every measured span.

The host does not slow all code alike: under contention, interpreter-bound
code slows more than reductions over mid-sized tensors. The program has
both kinds of hot path (per-frame emission calls on desk and frontend;
the order-2 E-step and viterbi2 on phrase), so the calibration times one
loop of each kind and takes the mean of their slowdowns.
"""

from __future__ import annotations

import time

import numpy as np

INTERVAL_S = 0.5

_RNG = np.random.default_rng(1)
_A = _RNG.standard_normal((5, 5))
_V = _RNG.standard_normal(5)
_T3 = _RNG.random((24, 24, 24))
_M = _RNG.random((24, 24))


def _python_loop():
    """Tiny numpy calls driven from Python."""
    v = _V
    acc = 0.0
    for _ in range(600):
        v = np.tanh(_A @ v)
        acc += float(np.log(np.sum(np.exp(v))))
    return acc


def _array_loop():
    """Broadcasts and reductions over (24, 24, 24) tensors."""
    a = _M
    for _ in range(40):
        c = a[:, :, None] + _T3
        a = 0.5 * np.max(c, axis=0) + 1e-3 * np.einsum("ij,ijk->jk", a, _T3)
    return a


# Each loop with roughly its time at full speed on a 2-vCPU Intel Xeon VM.
# Dividing by these weights both loops alike in the mean slowdown.
KERNELS = ((_python_loop, 0.0026), (_array_loop, 0.0013))


def calibrate() -> float:
    """How slow the machine is now, 1 = reference speed: the mean over the
    loops of their time (best of three) over their reference time."""
    slowdown = 0.0
    for fn, reference_s in KERNELS:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        slowdown += best / reference_s
    return slowdown / len(KERNELS)


class SpeedProbe:
    """Splits a timed phase into segments at calibration samples.

    ``tick`` after each operation samples when INTERVAL_S has passed and
    closes the current segment; ``segment`` is the index operations in it
    get. ``close`` ends the phase. Then ``raw_s`` and ``scaled_s`` are the
    phase's measured and rescaled durations, and ``factors[i]`` rescales
    segment i.
    """

    def __init__(self):
        self._c = calibrate()
        self._mark = time.perf_counter()
        self.segment = 0
        self.factors: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._mark < INTERVAL_S:
            return
        c = calibrate()
        factor = 1.0 / (0.5 * (self._c + c))
        self.raw_s += now - self._mark
        self.scaled_s += (now - self._mark) * factor
        self.factors.append(factor)
        self.segment += 1
        self._c = c
        self._mark = time.perf_counter()

    def close(self) -> None:
        self.tick(force=True)
