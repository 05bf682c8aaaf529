"""Propagator integration for one waveform or a pulse sequence.

The stepper samples the Hamiltonian at the midpoint of each uniform
sub-interval and applies the exact unitary exponential of that traceless 2x2
matrix, so every step is exactly unitary and the only global unitarity drift
is floating-point rounding.  The scheme is globally second order in the step
size; ``convergence_check`` provides the step-halving certificate.

One loop walks every window in blocks of at most ``_BLOCK`` steps, so that a
block's arrays stay in cache; each block's product is its step pairs,
reduced.  A window of one block goes through the same loop, with no thread.
For more blocks, the calling thread samples each block's controls in time order
(``rabi`` then ``detuning``, at the same midpoints as one pass over the
window) and hands the block to worker threads, which form and reduce its step
pairs while the next block is sampled.  The block products are then reduced
in time order.  A call uses at most one thread per block and per CPU, and
none in a pool worker process, whose pool already uses the cores: there the
blocks run in turn.  Its threads end before it returns.  A blocked product
differs from a one-pass one by rounding only, at the ulp level: numpy rounds
some complex products differently by array size, so even a tree kept across
blocks would not be bitwise.  Every result is bitwise the same for any
thread count.

A block whose drive is real and whose detuning samples are all zero, at any
drive phase, is one rotation (:func:`_rotation`): its steps commute, so their
exact product is the rotation by Theta = (h/2) * sum(W), a = cos(Theta) and
b = -i*exp(i*phase)*sin(Theta), the midpoint scheme's own value with fewer
roundings.  A Theta whose square overflows gives a NaN pair, as the step
pairs do where |W|^2 overflows.  Every other block takes the general step
pairs and reduce.

A one-block window takes its midpoints from a cache of the 8 most recent
one-block grids, keyed by the window start, the step and the step range, so
all the points of a sweep that share a pulse window share one grid.  Each grid
is read-only and at most 256 KiB (2 MiB in all); a control must not write into
its time argument.  Longer windows build each block's grid afresh.
"""
from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (
    CKPropagator,
    InvalidParameter,
    PulseSequence,
    Waveform,
    compose,
    phase_shifted,
    renormalized,
    unitarity_defect,
    _sample,
)

__all__ = [
    "NonConvergent",
    "UnitarityViolation",
    "IntegratorConfig",
    "DEFAULT_CONFIG",
    "MAX_STEPS_PER_PULSE",
    "propagate",
    "propagate_sequence",
    "convergence_check",
]

# Step count giving a step-halved error below 1e-8 for every technique shipped
# here (the shaped pulse is the stiffest at 4.4e-9).  Plot-grade sweeps are
# fine with far fewer steps; see the committed run configs.
DEFAULT_STEPS_PER_PULSE = 250_000

# Largest step count per pulse, checked before anything is sampled: 16x the
# default.  Executor.map submits every block before it returns, so a long
# window holds the sampled controls of every block not yet reduced, about 16
# bytes a step for a real drive and 24 for STA's complex one: 64-96 MB here,
# and twice that for the certificate's run at twice the steps.
MAX_STEPS_PER_PULSE = 4_000_000

# Steps per block of a long window.  Above every committed config's 4000, so
# that plot-grade runs are one block.
_BLOCK = 32768

_EPS = np.finfo(float).eps


class NonConvergent(RuntimeError):
    """Step-halving error estimate exceeded the requested tolerance."""


class UnitarityViolation(RuntimeError):
    """Norm of the CK pair drifted beyond the configured tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Resolution and unitarity policy of :func:`propagate`; ``renormalize``
    and ``convergence_tol`` are read by :func:`propagate_sequence` alone.

    Certifying one waveform triples its cost: the base run plus one at twice
    the steps.  n pulses sharing a ``shape_tag`` cost (n + 2) * N steps.
    """

    steps_per_pulse: int = DEFAULT_STEPS_PER_PULSE
    unitarity_tol: float = 1e-10
    renormalize: bool = True
    convergence_tol: float | None = None

    def __post_init__(self) -> None:
        if not 100 <= self.steps_per_pulse <= MAX_STEPS_PER_PULSE:
            raise InvalidParameter(
                f"steps_per_pulse must be in [100, {MAX_STEPS_PER_PULSE}], got {self.steps_per_pulse}"
            )
        if not self.unitarity_tol > 0:
            raise InvalidParameter("unitarity_tol must be positive")
        if self.convergence_tol is not None and not self.convergence_tol > 0:
            raise InvalidParameter("convergence_tol must be positive when set")


DEFAULT_CONFIG = IntegratorConfig()


def _midpoints(t0: float, h: float, start: int, stop: int) -> np.ndarray:
    tm = np.arange(start + 0.5, stop)
    tm *= h
    tm += t0
    return tm


@functools.lru_cache(maxsize=8)
def _shared_midpoints(t0: float, h: float, start: int, stop: int) -> np.ndarray:
    """The midpoints of a one-block window, built once, read-only and shared by its propagations."""
    tm = _midpoints(t0, h, start, stop)
    tm.flags.writeable = False
    return tm


def _controls(w: Waveform, h: float, start: int, stop: int, shared: bool = False) -> List[np.ndarray]:
    """``rabi`` then ``detuning`` at the midpoints of steps ``start`` to ``stop - 1``.

    ``shared`` takes the midpoints from the cache of one-block grids.
    """
    tm = (_shared_midpoints if shared else _midpoints)(w.window[0], h, start, stop)
    return _sample(tm, w.rabi, w.detuning)


def _pairs(w: Waveform, h: float, rabi: np.ndarray, detuning: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step CK pairs of the exact exponential at the sampled controls.

    With lam = sqrt(|W|^2 + D^2), th = h*lam/2 and s = sin(th)/lam, the pair
    is a = cos(th) + i*D*s and b = -i*W*s; ``s`` is 0.5*h*np.sinc(th/pi),
    finite at lam = 0, in np.sinc's own operations.  Both are written
    component by component, in the floating-point operations numpy's complex
    arithmetic performs on them, so they are bitwise that arithmetic up to
    the sign of an exact zero.  The controls are finite
    (:func:`pulselab.core._sample` judged them), but a drive whose square
    overflows gives a NaN pair, which :func:`propagate` reports as a
    unitarity violation.
    """
    # A real drive at phase 0 stays real: times exp(0j) = 1 + 0j it is W + 0j,
    # bit for bit.  A complex one is always multiplied, since (x + iy)(1 + 0i)
    # has the real part x - 0y, which is +0.0 for x = -0.0 and y < 0.
    if w.phase or np.iscomplexobj(rabi):
        W = np.asarray(rabi, dtype=complex) * np.exp(1j * w.phase)
    else:
        W = np.asarray(rabi, dtype=float)
    D = np.asarray(detuning, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        th = np.abs(W)  # numpy's complex abs (np.hypot is not bitwise the same), |W| when W is real
        th *= th
        th += D * D
        np.sqrt(th, out=th)
        th *= 0.5 * h
        y = th / np.pi
        y *= np.pi
        y[y == 0] = _EPS
        s = np.sin(y)
        s /= y
        s *= 0.5 * h
        a, b = np.empty(W.shape, complex), np.empty(W.shape, complex)
        np.cos(th, out=a.real)
        np.multiply(D, s, out=a.imag)
        np.multiply(W.imag, s, out=b.real)
        np.negative(W.real, out=b.imag)
        b.imag *= s
    return a, b


@np.errstate(over="ignore", invalid="ignore")
def _reduce(a: np.ndarray, b: np.ndarray) -> CKPropagator:
    """Pairwise product of the per-step propagators, kept in time order.

    An odd factor at the end of a level is carried up unchanged.  Pairs that
    are far from unitary (a drive whose square underflows against a huge
    step) can overflow here; :func:`propagate` reports that product.
    """
    while a.size > 1:
        m = (a.size // 2) * 2
        a1, b1, a2, b2 = a[0:m:2], b[0:m:2], a[1:m:2], b[1:m:2]
        na, nb = a2 * a1 - b2 * np.conj(b1), a2 * b1 + b2 * np.conj(a1)
        if a.size % 2:
            na = np.concatenate([na, a[-1:]])
            nb = np.concatenate([nb, b[-1:]])
        a, b = na, nb
    return CKPropagator(complex(a[0]), complex(b[0]))


def _rotation(w: Waveform, h: float, rabi: np.ndarray) -> CKPropagator:
    """The product of a block with a real drive and zero detuning: one rotation (see the module docstring)."""
    with np.errstate(over="ignore", invalid="ignore"):
        theta = 0.5 * h * float(np.sum(rabi))
    if not math.isfinite(theta * theta):  # as the step pairs where |W|^2 overflows
        return CKPropagator(complex(math.nan, math.nan), complex(math.nan, math.nan))
    return phase_shifted(CKPropagator(complex(math.cos(theta), 0.0), complex(0.0, -math.sin(theta))), w.phase)


def _propagate_raw(w: Waveform, steps: int) -> CKPropagator:
    t0, t1 = w.window
    h = (t1 - t0) / steps
    starts = range(0, steps, _BLOCK)
    one = len(starts) == 1
    controls = (_controls(w, h, j, min(j + _BLOCK, steps), one) for j in starts)

    def product(c: List[np.ndarray]) -> CKPropagator:
        rabi, detuning = c
        # cheapest test first; the first sample settles most detuned blocks
        # without the full scan
        if not np.iscomplexobj(rabi) and not detuning[0] and not detuning.any():
            return _rotation(w, h, rabi)
        return _reduce(*_pairs(w, h, rabi, detuning))

    if one or multiprocessing.parent_process() is not None:
        products = list(map(product, controls))
    else:
        # Executor.map submits every block before it returns, so all sampling
        # stays on this thread, in time order
        with ThreadPoolExecutor(min(len(starts), os.cpu_count() or 1)) as threads:
            products = list(threads.map(product, controls))
    if one:  # one block is its own product, bitwise
        return products[0]
    return _reduce(np.array([u.a for u in products]), np.array([u.b for u in products]))


def propagate(w: Waveform, cfg: IntegratorConfig = DEFAULT_CONFIG) -> CKPropagator:
    """One waveform's CK pair, unitarity-checked; it reads ``cfg.steps_per_pulse`` and ``cfg.unitarity_tol`` alone."""
    u = _propagate_raw(w, cfg.steps_per_pulse)
    defect = unitarity_defect(u)
    if not defect <= cfg.unitarity_tol:  # a NaN defect fails too
        raise UnitarityViolation(f"unitarity defect {defect:.3e} exceeds tolerance {cfg.unitarity_tol:.3e}")
    return u


def propagate_sequence(seq: PulseSequence, cfg: IntegratorConfig = DEFAULT_CONFIG) -> CKPropagator:
    """Propagator of a sequence: per-pulse propagation composed in time order.

    Each pulse carries its own constant drive phase, which imprints on the
    off-diagonal CK parameter, so this equals a monolithic propagation over
    back-to-back windows.  ``cfg.renormalize`` rescales each pulse and the total.

    The certificate is the sum of the pulses' step-halving estimates (errors
    of unitary factors add); :class:`NonConvergent` is raised as soon as it
    exceeds ``cfg.convergence_tol``.  The first estimate of a ``shape_tag``
    counts for each of its pulses, equal up to a time translation and phase.
    """
    estimates = {}  # shape_tag -> estimate of its first pulse (None: of the current untagged one)
    summed = 0.0
    total = None
    for k, w in enumerate(seq.pulses, start=1):
        raw = propagate(w, cfg)
        u = renormalized(raw) if cfg.renormalize else raw
        if cfg.convergence_tol is not None:
            if w.shape_tag is None or w.shape_tag not in estimates:
                estimates[w.shape_tag] = convergence_check(w, cfg, coarse=raw)
            summed += estimates[w.shape_tag]
            if not summed <= cfg.convergence_tol:  # a NaN estimate fails too
                raise NonConvergent(
                    f"step-halving estimate summed through pulse {k}: {summed:.3e} exceeds {cfg.convergence_tol:.3e}"
                )
        total = u if total is None else compose(u, total)
    if cfg.renormalize:
        total = renormalized(total)
    return total


def convergence_check(
    w: Waveform, cfg: IntegratorConfig = DEFAULT_CONFIG, *, coarse: CKPropagator | None = None
) -> float:
    """Max elementwise CK difference between runs at steps and 2x steps.

    Estimates the global error of one waveform at the configured resolution;
    halving the step shrinks it about 4x for smooth waveforms with a genuine
    second-order term.  ``coarse`` is the caller's own :func:`propagate` of
    ``w`` at ``cfg.steps_per_pulse``, which is then not computed again.
    """
    u1 = _propagate_raw(w, cfg.steps_per_pulse) if coarse is None else coarse
    u2 = _propagate_raw(w, 2 * cfg.steps_per_pulse)
    return max(abs(u1.a - u2.a), abs(u1.b - u2.b))
