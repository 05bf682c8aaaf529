"""Machine-speed calibration for the end-to-end timings.

The shared machines this benchmark was tuned on change speed by up to ~1.6x
in phases lasting seconds to minutes; a plain interpreter loop slows by the
same factor.  Raw wall times of separate runs therefore differ by more than
any useful regression bound.  Each timed command is bracketed by a fixed
kernel: the midpoint-exponential propagation of one Gaussian pulse, written
here once and never changed.  It makes the same kind of numpy calls as
pulselab's integrator but runs none of pulselab's code, so a change to the
program does not move it.  A command's wall time is multiplied by
``REFERENCE_S / kernel time``: the result is in seconds of a machine on which
the kernel takes ``REFERENCE_S``.  A workload that computes on several cores
is calibrated on as many at once, and the slowest core sets the scale.
"""
from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

# kernel name -> (steps, repetitions per timing)
KERNELS: Dict[str, Tuple[int, int]] = {
    "small": (4000, 40),  # cache-resident arrays, like 4000-step sweeps
    "large": (131_072, 1),  # beyond L2, like certificate-grade points
}
# Typical kernel time per timing (a fixed constant, not re-measured).
REFERENCE_S: Dict[str, float] = {"small": 0.0125, "large": 0.010}
SAMPLES = 4


def _propagate_gaussian(steps: int) -> complex:
    h = 12.0 / steps
    t = -6.0 + (np.arange(steps) + 0.5) * h
    w = np.sqrt(np.pi) * np.exp(-t * t) * (1.0 + 0.1 * np.tanh(t)) + 0j
    d = 0.3 + 0.1 * t
    th = 0.5 * h * np.sqrt(np.abs(w) ** 2 + d * d)
    s = 0.5 * h * np.sinc(th / np.pi)
    a = np.cos(th) + 1j * d * s
    b = -1j * w * s
    while a.size > 1:
        m = (a.size // 2) * 2
        a1, b1, a2, b2 = a[0:m:2], b[0:m:2], a[1:m:2], b[1:m:2]
        na = a2 * a1 - b2 * np.conj(b1)
        nb = a2 * b1 + b2 * np.conj(a1)
        if a.size % 2:
            na = np.concatenate([na, a[-1:]])
            nb = np.concatenate([nb, b[-1:]])
        a, b = na, nb
    return complex(b[0])


def kernel_s(kernel: str) -> float:
    """Median wall time of ``SAMPLES`` timings of ``kernel``."""
    steps, reps = KERNELS[kernel]
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            _propagate_gaussian(steps)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def speed_scale(kernel: str) -> float:
    """Factor that converts wall seconds measured now into reference seconds."""
    return REFERENCE_S[kernel] / kernel_s(kernel)


@contextmanager
def calibrator(kernel: str, cores: int) -> Iterator[Callable[[], float]]:
    """Yield a function timing ``kernel`` on ``cores`` cores at once (the slowest).

    The other cores are timed in spawned helper processes, started here and
    joined on exit.
    """
    if cores <= 1:
        yield lambda: kernel_s(kernel)
        return
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(cores - 1, mp_context=ctx) as helpers:
        for f in [helpers.submit(kernel_s, kernel) for _ in range(cores - 1)]:
            f.result()  # start the helpers before the first timing

        def slowest() -> float:
            futures = [helpers.submit(kernel_s, kernel) for _ in range(cores - 1)]
            own = kernel_s(kernel)
            return max([own] + [f.result() for f in futures])

        yield slowest
