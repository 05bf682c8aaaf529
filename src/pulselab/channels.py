"""Experimental error channels applied to a technique before propagation.

:func:`apply_errors` is the one place they act: it builds every pulse
sequence from the nominal shapes of :mod:`pulselab.protocols`.

Channels and their action on every constituent pulse (t_k is the pulse
center, T' the rescaled width):

* ``alpha``            envelope scale, Omega -> alpha * Omega
* ``duration_factor``  pulse width, T -> duration_factor * T (envelope, chirp
  slope and the shaped-pulse schedule all follow the new width)
* ``delta``            static detuning, Delta -> Delta + delta
* ``eta``              residual chirp, Delta -> Delta + eta * (t - t_k)
* ``sigma``            shape distortion, Omega -> Omega * (1 + sigma*tanh((t - t_k)/T'));
  the antisymmetric factor leaves each symmetric pulse's area unchanged
* ``phase_offsets``    additive offsets on the per-pulse drive phases

Counterdiabatic exception: the shortcut term keeps the shape synthesized from
the frozen nominal triple.  ``alpha`` scales the total complex envelope (the
shared delivery chain), which can be flipped with ``sta_alpha_scales_shortcut``;
``sigma`` distorts the main field only, since the shortcut is a separately
shaped field whose transfer is then nearly (not exactly) preserved.

``centering="global"`` switches sigma and eta from per-pulse centering to
absolute time, for sensitivity studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import InvalidParameter, PulseSequence, Waveform, _finite
from .protocols import ProtocolSpec, nominal_pulses

__all__ = ["LengthMismatch", "ErrorVector", "apply_errors"]

CENTERINGS = ("per_pulse", "global")


class LengthMismatch(ValueError):
    """phase_offsets length does not match the sequence's pulse count."""


@dataclass(frozen=True)
class ErrorVector:
    """Magnitudes of the six error channels; defaults are the error-free case."""

    alpha: float = 1.0
    duration_factor: float = 1.0
    delta: float = 0.0
    eta: float = 0.0
    sigma: float = 0.0
    phase_offsets: Tuple[float, ...] = ()
    centering: str = "per_pulse"
    sta_alpha_scales_shortcut: bool = True

    def __post_init__(self) -> None:
        if not (_finite(self.alpha) and self.alpha >= 0):
            raise InvalidParameter(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (_finite(self.duration_factor) and self.duration_factor > 0):
            raise InvalidParameter(f"duration_factor must be positive and finite, got {self.duration_factor}")
        if not -1.0 < self.sigma < 1.0:
            raise InvalidParameter(f"sigma must lie in (-1, 1), got {self.sigma}")
        for name in ("delta", "eta"):
            if not _finite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")
        if self.centering not in CENTERINGS:
            raise InvalidParameter(f"centering must be one of {CENTERINGS}, got {self.centering!r}")
        if not all(map(_finite, self.phase_offsets)):
            raise InvalidParameter("phase_offsets must be finite")
        object.__setattr__(self, "phase_offsets", tuple(map(float, self.phase_offsets)))


def apply_errors(
    spec: ProtocolSpec, err: ErrorVector = ErrorVector(), shapes: Callable[..., tuple] | None = None
) -> PulseSequence:
    """Build the sequence of ``spec`` with the error channels of ``err`` applied.

    This is the one place the channels act: every pulse of
    :func:`pulselab.protocols.nominal_pulses` gets its controls from the
    channel arithmetic on top of its nominal parts.  The default vector
    reproduces the nominal build exactly (identical control values at every
    time sample).  ``shapes`` replaces :func:`~pulselab.protocols.nominal_pulses`
    with a function of the same ``(spec, duration_factor, centering)``, such
    as a sweep's cache of its kept shapes; it changes no value.
    """
    if err.phase_offsets and len(err.phase_offsets) != spec.pulse_count:
        raise LengthMismatch(
            f"{len(err.phase_offsets)} phase offsets for a {spec.pulse_count}-pulse sequence"
        )
    alpha, sigma, delta, eta = err.alpha, err.sigma, err.delta, err.eta
    sta = spec.kind == "STA"
    scales_shortcut = err.sta_alpha_scales_shortcut
    # STA scales its main field by alpha only together with the shortcut, SP
    # has no omega0, the others scale omega0 times a Gaussian
    gain = spec.omega0 if sta else alpha if spec.kind == "SP" else alpha * spec.omega0
    offsets = err.phase_offsets or (0.0,) * spec.pulse_count
    # A channel at its nominal zero is skipped: x * (1 + 0 * tanh) is x, and
    # x + 0 * (t - t_k) is x unless x is -0.0, which only delta = -0.0 makes.
    distorted = sigma != 0
    chirped = eta != 0 or (delta == 0 and np.signbit(delta))
    pulses = []
    for (sample, ce, phase, window, tag), offset in zip(
        (shapes or nominal_pulses)(spec, err.duration_factor, err.centering), offsets
    ):
        def rabi(t, sample=sample):
            t = np.asarray(t, dtype=float)
            field = gain * sample(t, "envelope")
            if distorted:
                field *= 1.0 + sigma * sample(t, "tanh")
            if not sta:
                return field
            if scales_shortcut:
                return alpha * (field + sample(t, "shortcut"))
            return alpha * field + sample(t, "shortcut")

        def detuning(t, sample=sample, ce=ce):
            t = np.asarray(t, dtype=float)
            out = sample(t, "detuning") + delta
            if chirped:
                out += eta * (t - ce)
            return out

        pulses.append(Waveform(rabi, detuning, phase + offset, window, tag))
    return PulseSequence(tuple(pulses))
