"""SU(2) propagator algebra and waveform primitives for a driven two-state system.

Conventions used throughout the package: the time unit is the pulse width T,
Rabi frequencies and detunings are angular frequencies in rad/time, and a
propagator is stored as its Cayley-Klein pair (a, b) with

    U = [[a, b], [-conj(b), conj(a)]],    |a|^2 + |b|^2 = 1.

The transition probability between the two bare states is P = |b|^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, List, Tuple

import numpy as np

__all__ = [
    "InvalidParameter",
    "InvalidWaveform",
    "CKPropagator",
    "IDENTITY",
    "Waveform",
    "PulseSequence",
    "transition_probability",
    "compose",
    "phase_shifted",
    "unitarity_defect",
    "renormalized",
    "pulse_area",
    "sequence_area",
]

# Simpson intervals of every area quadrature.
AREA_STEPS = 8192


class InvalidParameter(ValueError):
    """Raised when a physical parameter violates its documented constraint."""


class InvalidWaveform(ValueError):
    """Raised when control functions produce NaN/Inf inside their window, or
    a window is too wide for the area quadrature."""


@dataclass(frozen=True)
class CKPropagator:
    """An SU(2) propagator as the Cayley-Klein pair (a, b)."""

    a: complex
    b: complex


IDENTITY = CKPropagator(1.0 + 0.0j, 0.0 + 0.0j)


def transition_probability(u: CKPropagator) -> float:
    """Return P = |b|^2, the population transferred between the bare states."""
    return abs(u.b) ** 2


def unitarity_defect(u: CKPropagator) -> float:
    """Return | |a|^2 + |b|^2 - 1 |."""
    return abs(abs(u.a) ** 2 + abs(u.b) ** 2 - 1.0)


def renormalized(u: CKPropagator) -> CKPropagator:
    """Rescale the pair to unit norm."""
    n = np.sqrt(abs(u.a) ** 2 + abs(u.b) ** 2)
    if n == 0.0 or not np.isfinite(n):
        raise InvalidParameter("cannot renormalize a zero or non-finite CK pair")
    return CKPropagator(u.a / n, u.b / n)


def compose(second: CKPropagator, first: CKPropagator) -> CKPropagator:
    """Matrix product second @ first in CK form (first acts first in time)."""
    a = second.a * first.a - second.b * np.conj(first.b)
    b = second.a * first.b + second.b * np.conj(first.a)
    return CKPropagator(complex(a), complex(b))


def phase_shifted(u: CKPropagator, phi: float) -> CKPropagator:
    """Imprint a constant drive phase phi: (a, b) -> (a, b * exp(i*phi))."""
    return CKPropagator(u.a, u.b * np.exp(1j * phi))


@dataclass(frozen=True)
class Waveform:
    """One pulse: complex Rabi envelope, real detuning, constant drive phase.

    ``rabi`` and ``detuning`` must accept a numpy array of times and return an
    array (a scalar return is broadcast).  Outside ``window`` both controls are
    treated as zero.  A complex ``rabi`` value W(t) enters the Hamiltonian as
    the upper off-diagonal element W(t) * exp(i*phase); real-envelope drives
    are the special case of zero imaginary part.  Controls may overflow
    quietly; a NaN or infinite sample raises :class:`InvalidWaveform` where it
    is sampled.

    Pulses of one sequence that carry the same non-None ``shape_tag`` are
    equal up to a time translation and their drive phase, so
    :func:`pulselab.integrator.propagate_sequence` certifies that shape once.
    """

    rabi: Callable[[np.ndarray], np.ndarray]
    detuning: Callable[[np.ndarray], np.ndarray]
    phase: float = 0.0
    window: Tuple[float, float] = (-6.0, 6.0)
    shape_tag: Hashable | None = None

    def __post_init__(self) -> None:
        t0, t1 = self.window
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise InvalidParameter("waveform window must be finite")
        if not t0 < t1:
            raise InvalidParameter(f"waveform window must satisfy t_start < t_end, got {self.window}")


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered, non-overlapping pulses making up one control sequence."""

    pulses: Tuple[Waveform, ...]

    def __post_init__(self) -> None:
        if not self.pulses:
            raise InvalidParameter("a pulse sequence needs at least one pulse")
        object.__setattr__(self, "pulses", tuple(self.pulses))
        for k in range(len(self.pulses) - 1):
            end = self.pulses[k].window[1]
            start = self.pulses[k + 1].window[0]
            if start < end - 1e-12 * max(1.0, abs(end)):
                raise InvalidParameter(
                    f"pulses {k} and {k + 1} overlap: window end {end} > next start {start}"
                )

    def __len__(self) -> int:
        return len(self.pulses)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _sample(t: np.ndarray, *fns: Callable[[np.ndarray], np.ndarray]) -> List[np.ndarray]:
    """Each ``fn(t)`` in turn, broadcast to the shape of ``t``: the one place a sampled control is judged.

    Every control is sampled here: by the integrator, the area quadrature,
    the adiabaticity margin and the shaped-pulse check of a protocol spec.
    The functions run with numpy's overflow, invalid and divide warnings off,
    so an extreme parameter prints nothing, and a NaN or infinite sample
    raises :class:`InvalidWaveform`, which the CLI reports as a numerical
    failure.  A call sets the error state once for all its functions (as a
    decorator, the cheaper form): entering it costs about a microsecond, on
    the hot path of every propagation.
    """
    samples = []
    for fn in fns:
        out = np.asarray(fn(t))
        if not np.isfinite(out).all():
            raise InvalidWaveform("controls returned NaN/Inf inside the pulse window")
        samples.append(out if out.shape == t.shape else np.broadcast_to(out, t.shape))
    return samples


def _divide(a, b: np.ndarray) -> np.ndarray:
    return np.divide(a, b, out=np.zeros_like(b), where=b != 0)


def _simpson(y: np.ndarray, t: np.ndarray) -> float:
    """Composite Simpson quadrature of samples ``y`` at times ``t``.

    ``t`` must hold an even number of intervals.  The expression is
    ``scipy.integrate.simpson``'s (its ``_basic_simpson``) term for term, so
    the result is bitwise scipy's without importing ``scipy.integrate``.
    """
    h = np.diff(t)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide(h0, h1)
    tmp = hsum / 6.0 * (
        y[:-2:2] * (2.0 - _divide(1.0, h0divh1))
        + y[1::2] * (hsum * _divide(hsum, hprod))
        + y[2::2] * (2.0 - h0divh1)
    )
    return float(np.sum(tmp))


def pulse_area(rabi: Callable[[np.ndarray], np.ndarray], window: Tuple[float, float]) -> float:
    """Integral of |rabi(t)| over the window by composite Simpson quadrature.

    Relative error is far below 1e-6 for the smooth envelopes used here.  For
    a complex envelope the integrand is the modulus, so the counterdiabatic
    term alone integrates to its own area.
    """
    t0, t1 = window
    if not t0 < t1:
        raise InvalidParameter(f"empty integration window {window}")
    h = (t1 - t0) / AREA_STEPS
    if not h * h < np.inf:  # the quadrature multiplies step widths
        raise InvalidWaveform(f"window {window} is too wide for the area quadrature")
    t = np.linspace(t0, t1, AREA_STEPS + 1)
    return _simpson(np.abs(_sample(t, rabi)[0]), t)


def sequence_area(seq: PulseSequence) -> float:
    """Total |envelope| area of a sequence (sum over constituent pulses)."""
    return sum(pulse_area(p.rabi, p.window) for p in seq.pulses)
