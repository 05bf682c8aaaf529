"""Propagator integration for one waveform or a pulse sequence.

The stepper samples the Hamiltonian at the midpoint of each uniform
sub-interval and applies the exact unitary exponential of that traceless 2x2
matrix, so every step is exactly unitary and the only global unitarity drift
is floating-point rounding.  The scheme is globally second order in the step
size; ``convergence_check`` provides the step-halving certificate.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .core import (
    CKPropagator,
    InvalidParameter,
    InvalidWaveform,
    PulseSequence,
    Waveform,
    compose,
    renormalized,
    unitarity_defect,
    _sample,
)

__all__ = [
    "NonConvergent",
    "UnitarityViolation",
    "IntegratorConfig",
    "DEFAULT_CONFIG",
    "propagate",
    "propagate_sequence",
    "convergence_check",
]

# Step count giving a step-halved error below 1e-8 for every technique shipped
# here (the shaped pulse is the stiffest at 4.4e-9).  Plot-grade sweeps are
# fine with far fewer steps; see the committed run configs.
DEFAULT_STEPS_PER_PULSE = 250_000


class NonConvergent(RuntimeError):
    """Step-halving error estimate exceeded the requested tolerance."""


class UnitarityViolation(RuntimeError):
    """Norm of the CK pair drifted beyond the configured tolerance."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Resolution and unitarity policy for :func:`propagate`.

    ``convergence_tol``, when set, makes every call self-verify by step
    halving and raise :class:`NonConvergent` on failure.  Certifying one
    waveform triples its cost: the base run plus one at twice the steps.
    :func:`propagate_sequence` certifies each distinct shape once, so n pulses
    sharing a ``shape_tag`` cost (n + 2) * N steps instead of 3 * n * N.
    """

    steps_per_pulse: int = DEFAULT_STEPS_PER_PULSE
    unitarity_tol: float = 1e-10
    renormalize: bool = True
    convergence_tol: float | None = None

    def __post_init__(self) -> None:
        if self.steps_per_pulse < 100:
            raise InvalidParameter(f"steps_per_pulse must be >= 100, got {self.steps_per_pulse}")
        if not self.unitarity_tol > 0:
            raise InvalidParameter("unitarity_tol must be positive")
        if self.convergence_tol is not None and not self.convergence_tol > 0:
            raise InvalidParameter("convergence_tol must be positive when set")


DEFAULT_CONFIG = IntegratorConfig()


def _step_pairs(w: Waveform, steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step CK pairs for the midpoint-sampled exact exponential."""
    t0, t1 = w.window
    h = (t1 - t0) / steps
    tm = t0 + (np.arange(steps) + 0.5) * h
    W = np.asarray(_sample(w.rabi, tm), dtype=complex) * np.exp(1j * w.phase)
    D = np.asarray(_sample(w.detuning, tm), dtype=float)
    if not (np.all(np.isfinite(W.real)) and np.all(np.isfinite(W.imag)) and np.all(np.isfinite(D))):
        raise InvalidWaveform("controls returned NaN/Inf inside the pulse window")
    lam = np.sqrt(np.abs(W) ** 2 + D * D)
    th = 0.5 * h * lam
    s = 0.5 * h * np.sinc(th / np.pi)  # sin(th)/lam, finite at lam = 0
    a = np.cos(th) + 1j * D * s
    b = -1j * W * s
    return a, b


def _reduce(a: np.ndarray, b: np.ndarray) -> CKPropagator:
    """Pairwise product of the per-step propagators, kept in time order."""
    while a.size > 1:
        m = (a.size // 2) * 2
        a1, b1 = a[0:m:2], b[0:m:2]
        a2, b2 = a[1:m:2], b[1:m:2]
        na = a2 * a1 - b2 * np.conj(b1)
        nb = a2 * b1 + b2 * np.conj(a1)
        if a.size % 2:
            na = np.concatenate([na, a[-1:]])
            nb = np.concatenate([nb, b[-1:]])
        a, b = na, nb
    return CKPropagator(complex(a[0]), complex(b[0]))


def _propagate_raw(w: Waveform, steps: int) -> CKPropagator:
    return _reduce(*_step_pairs(w, steps))


def propagate(w: Waveform, cfg: IntegratorConfig = DEFAULT_CONFIG) -> CKPropagator:
    """Propagator of one waveform over its window, as a CK pair."""
    raw = u = _propagate_raw(w, cfg.steps_per_pulse)
    defect = unitarity_defect(u)
    if not defect <= cfg.unitarity_tol:  # a NaN defect fails too
        raise UnitarityViolation(
            f"unitarity defect {defect:.3e} exceeds tolerance {cfg.unitarity_tol:.3e}"
        )
    if cfg.renormalize:
        u = renormalized(u)
    if cfg.convergence_tol is not None:
        est = convergence_check(w, cfg, coarse=raw)
        if not est <= cfg.convergence_tol:
            raise NonConvergent(
                f"step-halving estimate {est:.3e} exceeds tolerance {cfg.convergence_tol:.3e}"
            )
    return u


def propagate_sequence(seq: PulseSequence, cfg: IntegratorConfig = DEFAULT_CONFIG) -> CKPropagator:
    """Propagator of a sequence: per-pulse propagation composed in time order.

    Each pulse carries its own constant drive phase, which imprints on the
    off-diagonal CK parameter, so this equals a monolithic propagation over
    back-to-back windows.

    With ``cfg.convergence_tol`` set, only the first pulse of each
    ``shape_tag`` runs the step-halving check; its estimate stands for the
    later pulses of that tag, which are equal up to a time translation and
    their drive phase.  Untagged pulses are each certified.
    """
    uncertified = cfg if cfg.convergence_tol is None else replace(cfg, convergence_tol=None)
    certified = set()
    total = None
    for w in seq.pulses:
        u = propagate(w, uncertified if w.shape_tag in certified else cfg)
        if w.shape_tag is not None:
            certified.add(w.shape_tag)
        total = u if total is None else compose(u, total)
    if cfg.renormalize:
        total = renormalized(total)
    return total


def convergence_check(
    w: Waveform, cfg: IntegratorConfig = DEFAULT_CONFIG, *, coarse: CKPropagator | None = None
) -> float:
    """Max elementwise CK difference between runs at steps and 2x steps.

    Estimates the global error at the configured resolution; halving the step
    shrinks it about 4x for smooth waveforms with a genuine second-order term.
    ``coarse`` is the caller's own un-renormalised run of ``w`` at
    ``cfg.steps_per_pulse``, which is then not computed again.
    """
    u1 = _propagate_raw(w, cfg.steps_per_pulse) if coarse is None else coarse
    u2 = _propagate_raw(w, 2 * cfg.steps_per_pulse)
    return max(abs(u1.a - u2.a), abs(u1.b - u2.b))
