"""Experimental error channels applied to a technique before propagation.

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
from typing import Tuple

import numpy as np

from .core import InvalidParameter, PulseSequence, pulse_area
from .protocols import ProtocolSpec, ShapeMemo, build_sequence

__all__ = ["LengthMismatch", "ErrorVector", "apply_errors", "area_preservation_check"]

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
        if not self.alpha >= 0:
            raise InvalidParameter(f"alpha must be >= 0, got {self.alpha}")
        if not self.duration_factor > 0:
            raise InvalidParameter(f"duration_factor must be positive, got {self.duration_factor}")
        if not -1.0 < self.sigma < 1.0:
            raise InvalidParameter(f"sigma must lie in (-1, 1), got {self.sigma}")
        for name in ("delta", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidParameter(f"{name} must be finite")
        if self.centering not in CENTERINGS:
            raise InvalidParameter(f"centering must be one of {CENTERINGS}, got {self.centering!r}")
        object.__setattr__(self, "phase_offsets", tuple(float(p) for p in self.phase_offsets))


def apply_errors(
    spec: ProtocolSpec, err: ErrorVector = ErrorVector(), shapes: ShapeMemo | None = None
) -> PulseSequence:
    """Build the sequence of ``spec`` with the error channels of ``err`` applied.

    The default vector reproduces the nominal build exactly (identical control
    values at every time sample).  ``shapes`` is the open memo of a sweep, see
    :class:`pulselab.protocols.ShapeMemo`; it changes no value.
    """
    if err.phase_offsets and len(err.phase_offsets) != spec.pulse_count:
        raise LengthMismatch(
            f"{len(err.phase_offsets)} phase offsets for a {spec.pulse_count}-pulse sequence"
        )
    return build_sequence(
        spec,
        alpha=err.alpha,
        duration_factor=err.duration_factor,
        delta=err.delta,
        eta=err.eta,
        sigma=err.sigma,
        phase_offsets=err.phase_offsets,
        centering=err.centering,
        sta_alpha_scales_shortcut=err.sta_alpha_scales_shortcut,
        shapes=shapes,
    )


def area_preservation_check(spec: ProtocolSpec, sigma: float) -> float:
    """Relative change of the total envelope area under the shape distortion.

    The tanh factor is odd about each pulse center, so for the real, symmetric
    envelopes used here the area change is zero up to quadrature error.
    """
    if spec.kind == "STA":
        raise InvalidParameter("area preservation is defined for real-envelope techniques")
    base = apply_errors(spec, ErrorVector())
    distorted = apply_errors(spec, ErrorVector(sigma=sigma))
    a0 = sum(pulse_area(p.rabi, p.window) for p in base.pulses)
    a1 = sum(pulse_area(p.rabi, p.window) for p in distorted.pulses)
    return abs(a1 - a0) / a0
