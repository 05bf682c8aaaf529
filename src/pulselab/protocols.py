"""Nominal physics of the six coherent-control techniques.

This module knows each technique's error-free pulse shapes;
:func:`pulselab.channels.apply_errors` applies the error channels on top
and builds every pulse sequence.

Techniques and their canonical parameters (in units of the pulse width T):

=====  =============================  ==========================================
kind   drive                          canonical parameters
=====  =============================  ==========================================
RE     resonant Gaussian              omega0 = sqrt(pi)/T
AF     Gaussian + linear chirp        omega0 = 5*sqrt(pi)/T, beta = 4/T
STA    AF drive + counterdiabatic     omega0 = sqrt(pi)/T, beta = 4/T
SP     shaped envelope and detuning   A7 coefficients (-3.46, -1.365, -0.5)
CAP    3 chirped pulses, phases       omega0 = sqrt(pi)/T, beta = 1/T
UCP    5 resonant pulses, phases      omega0 = sqrt(pi)/T
=====  =============================  ==========================================

Every pulse lives on a window of +-6T around its own center (the Gaussian
tail there is exp(-36), below double-precision resolution).  Composite
sequences use back-to-back windows with zero gap, each constituent chirp
re-centered on its own pulse.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
from scipy.special import erf

from .core import InvalidParameter, Waveform

__all__ = [
    "SingularControl",
    "ProtocolSpec",
    "PROTOCOL_KINDS",
    "CAP_PHASES",
    "UCP_PHASES",
    "A7_COEFFS",
    "WINDOW_HALF_WIDTH",
    "nominal_spec",
    "nominal_pulses",
    "mixing_angle_rate",
    "adiabaticity_margin",
]

SQRT_PI = float(np.sqrt(np.pi))

PROTOCOL_KINDS = ("RE", "AF", "STA", "SP", "CAP", "UCP")
CAP_PHASES: Tuple[float, ...] = (0.0, 2.0 * np.pi / 3.0, 0.0)
UCP_PHASES: Tuple[float, ...] = (0.0, 5.0 * np.pi / 6.0, np.pi / 3.0, 5.0 * np.pi / 6.0, 0.0)
A7_COEFFS: Tuple[float, ...] = (-3.46, -1.365, -0.5)

# Pulse support half-width in units of the (possibly rescaled) pulse width.
WINDOW_HALF_WIDTH = 6.0

_CHIRPED = {"AF", "STA", "CAP"}
_COMPOSITE = {"CAP": CAP_PHASES, "UCP": UCP_PHASES}


class SingularControl(ValueError):
    """Raised when shaped-pulse coefficients yield non-finite controls."""


@dataclass(frozen=True)
class ProtocolSpec:
    """One technique plus its physical parameters.

    ``sta_nominal`` is the frozen (omega0, beta, T) triple used to synthesize
    the counterdiabatic term; it defaults to the live values and is never
    touched by error channels.
    """

    kind: str
    omega0: float
    T: float
    beta: float = 0.0
    phases: Tuple[float, ...] = ()
    sp_coeffs: Tuple[float, ...] = A7_COEFFS
    sta_nominal: Tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROTOCOL_KINDS:
            raise InvalidParameter(f"unknown protocol kind {self.kind!r}; expected one of {PROTOCOL_KINDS}")
        if not 0 < self.omega0 < np.inf:
            raise InvalidParameter(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0 < self.T < np.inf:
            raise InvalidParameter(f"T must be positive and finite, got {self.T}")
        if not np.isfinite(self.beta):
            raise InvalidParameter("beta must be finite")
        if self.kind not in _CHIRPED and self.beta != 0.0:
            raise InvalidParameter(f"beta is not a parameter of the {self.kind} technique")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if not all(np.isfinite(self.phases)):
            raise InvalidParameter("phases must be finite")
        object.__setattr__(self, "sp_coeffs", tuple(float(c) for c in self.sp_coeffs))
        if self.kind != "SP" and self.sp_coeffs != A7_COEFFS:
            raise InvalidParameter(f"sp_coeffs is not a parameter of the {self.kind} technique")
        if self.kind in _COMPOSITE:
            if not self.phases:
                object.__setattr__(self, "phases", _COMPOSITE[self.kind])
        elif self.phases:
            raise InvalidParameter(f"{self.kind} is a single-pulse technique and takes no phase list")
        if self.kind == "STA":
            frozen = self.sta_nominal or (self.omega0, self.beta, self.T)
            frozen = tuple(float(x) for x in frozen)
            if len(frozen) != 3 or not all(np.isfinite(frozen)):
                raise InvalidParameter("sta_nominal must be a finite (omega0, beta, T) triple")
            object.__setattr__(self, "sta_nominal", frozen)
        elif self.sta_nominal is not None:
            raise InvalidParameter("sta_nominal applies to the STA technique only")
        if self.kind == "SP" and not all(np.isfinite(self.sp_coeffs)):
            raise InvalidParameter("sp_coeffs must be finite")

    @property
    def pulse_count(self) -> int:
        return len(self.phases) if self.phases else 1


def nominal_spec(kind: str, T: float = 1.0) -> ProtocolSpec:
    """Canonical error-free parameters of one technique."""
    if kind == "RE":
        return ProtocolSpec("RE", SQRT_PI / T, T)
    if kind == "AF":
        return ProtocolSpec("AF", 5.0 * SQRT_PI / T, T, beta=4.0 / T)
    if kind == "STA":
        return ProtocolSpec("STA", SQRT_PI / T, T, beta=4.0 / T)
    if kind == "SP":
        return ProtocolSpec("SP", SQRT_PI / T, T)
    if kind == "CAP":
        return ProtocolSpec("CAP", SQRT_PI / T, T, beta=1.0 / T)
    if kind == "UCP":
        return ProtocolSpec("UCP", SQRT_PI / T, T)
    raise InvalidParameter(f"unknown protocol kind {kind!r}")


def mixing_angle_rate(t: np.ndarray, omega0: float, beta: float, T: float) -> np.ndarray:
    """d(theta)/dt for the Gaussian + linear-chirp drive, in closed form.

    theta is half the polar angle atan2(Omega, Delta); its rate is the
    nonadiabatic coupling.  Integrated over all time this equals -pi/2, so
    the counterdiabatic term 2*theta_dot carries an area of exactly pi.

    Written with the exponential split between the two denominator terms so
    the tails underflow to -0.0 instead of overflowing to nan at very large
    |t|/T (wide windows over a frozen narrow shortcut).
    """
    t = np.asarray(t, dtype=float)
    x = (t / T) ** 2
    num = -omega0 * (beta / T) * (2.0 * t * t + T * T)
    with np.errstate(over="ignore"):  # exp overflow far in the tail is the 0 limit
        den = 2.0 * (beta * beta * t * t * np.exp(x) + omega0 * omega0 * T * T * np.exp(-x))
        return num / den


def _sp_shape_functions(
    T: float, coeffs: Sequence[float]
) -> Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """Shaped-pulse envelope and detuning with removable 0/0 forms evaluated.

    The construction schedules theta(t) = (pi/2)*(erf(t/T) + 1) and an
    auxiliary angle gamma with d(gamma)/d(theta) = g(theta)
    = 2 + sum_n 2 n C_n cos(2 n theta).  All published ratios containing
    theta_dot are reduced in theta (theta_dot > 0 cancels), which yields

        Omega(t) = theta_dot * sqrt(1 + sin(theta)^2 g^2)
        Delta(t) = -theta_dot * (cos g + sin g') / (1 + sin^2 g^2)
                   - theta_dot * g * cos(theta)

    with g' = dg/d(theta).  Both controls are finite and smooth on the closed
    window, including the edges theta -> 0, pi.
    """
    cs = np.asarray(coeffs, dtype=float)
    ns = np.arange(1, len(cs) + 1, dtype=float)

    def theta(t: np.ndarray) -> np.ndarray:
        return np.clip(0.5 * np.pi * (erf(t / T) + 1.0), 0.0, np.pi)

    def theta_dot(t: np.ndarray) -> np.ndarray:
        return (SQRT_PI / T) * np.exp(-((t / T) ** 2))

    def g(th: np.ndarray) -> np.ndarray:
        if cs.size == 0:
            return np.full_like(th, 2.0)
        return 2.0 + np.sum(
            2.0 * ns[:, None] * cs[:, None] * np.cos(2.0 * np.outer(ns, th)), axis=0
        )

    def g_prime(th: np.ndarray) -> np.ndarray:
        if cs.size == 0:
            return np.zeros_like(th)
        return np.sum(
            -4.0 * ns[:, None] ** 2 * cs[:, None] * np.sin(2.0 * np.outer(ns, th)), axis=0
        )

    # The control not yet asked for, with a copy of the times it was sampled
    # at: held from the first control's call until the second one takes it.
    held: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def controls(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        th = theta(t)
        gg = g(th)
        sin_th, cos_th = np.sin(th), np.cos(th)
        x = sin_th * gg
        q = 1.0 + x * x
        td = theta_dot(t)
        phi_dot = -td * (cos_th * gg + sin_th * g_prime(th)) / q
        return td * np.sqrt(q), phi_dot - td * gg * cos_th

    def sampled(name: str, other: str) -> Callable[[np.ndarray], np.ndarray]:
        def control(t: np.ndarray) -> np.ndarray:
            t = np.atleast_1d(np.asarray(t, dtype=float))
            mine = held.pop(name, None)
            if mine is not None and np.array_equal(mine[0].view(np.uint64), t.view(np.uint64)):
                return mine[1]
            held.clear()
            env, det = controls(t)
            out, rest = (env, det) if name == "envelope" else (det, env)
            held[other] = (t.copy(), rest)
            return out

        return control

    return sampled("envelope", "detuning"), sampled("detuning", "envelope")


@functools.lru_cache(maxsize=64)
def _sp_controls(T_live: float, coeffs: Tuple[float, ...]) -> Tuple[Callable, Callable]:
    """Shaped-pulse envelope and detuning of width ``T_live``, checked finite.

    Built and validated once per shape; a :class:`SingularControl` is raised
    again on every call, since exceptions are not cached.
    """
    envelope, detuning = _sp_shape_functions(T_live, coeffs)
    half = WINDOW_HALF_WIDTH * T_live
    t = np.linspace(-half, half, 2001)
    with np.errstate(all="ignore"):
        finite = np.all(np.isfinite(envelope(t))) and np.all(np.isfinite(detuning(t)))
    if not finite:
        raise SingularControl(
            "shaped-pulse controls are not finite on the window; check the coefficient list"
        )
    return envelope, detuning


def _nominal_parts(
    spec: ProtocolSpec, T_live: float, c: float, ce: float, sp: Tuple[Callable, Callable] | None
) -> Dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Error-free parts of one pulse's controls, each a function of time.

    ``envelope`` and ``detuning`` are the nominal shape of a pulse centered on
    ``c``; ``tanh`` is the shape-distortion profile around ``ce``; STA adds
    its frozen counterdiabatic ``shortcut`` (already times 1j).
    """
    parts: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "tanh": lambda t: np.tanh((t - ce) / T_live)
    }
    if spec.kind == "SP":
        sp_env, sp_det = sp
        parts["envelope"] = lambda t: sp_env(t - c)
        parts["detuning"] = lambda t: sp_det(t - c)
        return parts
    b = spec.beta if spec.kind in _CHIRPED else 0.0
    parts["envelope"] = lambda t: np.exp(-(((t - c) / T_live) ** 2))
    parts["detuning"] = lambda t: b * (t - c) / T_live
    if spec.kind == "STA":
        om_a, beta_a, T_a = spec.sta_nominal
        parts["shortcut"] = lambda t: 1j * (2.0 * mixing_angle_rate(t - c, om_a, beta_a, T_a))
    return parts


def _sampler(
    parts: Dict[str, Callable[[np.ndarray], np.ndarray]], keep: bool
) -> Callable[[np.ndarray, str], np.ndarray]:
    """``sample(t, name)``: one part at ``t``; with ``keep``, each part once per time array.

    A kept part is held per time-array shape, together with a copy of the
    times it was sampled at, and is reused only for a bitwise-equal time
    array.  Without ``keep`` callers use the result inline, so that numpy can
    reuse the fresh array for the arithmetic on top.
    """
    if not keep:
        return lambda t, name: parts[name](t)
    held: Dict[tuple, Tuple[np.ndarray, Dict[str, np.ndarray]]] = {}

    def sample(t: np.ndarray, name: str) -> np.ndarray:
        slot = held.get(t.shape)
        if slot is None or not np.array_equal(slot[0].view(np.uint64), t.view(np.uint64)):
            slot = held[t.shape] = (t.copy(), {})
        if name not in slot[1]:
            slot[1][name] = parts[name](t)
        return slot[1][name]

    return sample


def nominal_pulses(
    spec: ProtocolSpec,
    duration_factor: float = 1.0,
    centering: str = "per_pulse",
    keep: bool = False,
) -> Tuple[tuple, ...]:
    """Each pulse's nominal physics, in time order, for the error model.

    Per pulse: ``sample(t, name)`` for its nominal parts (see
    :func:`_nominal_parts`), the center ``t_k`` of its sigma and eta terms
    (0 under global centering), its drive phase, its window and its shape
    tag.  :func:`pulselab.channels.apply_errors` applies the error channels
    on top.  ``duration_factor`` and ``centering`` are the two channels that
    change the nominal shape itself, so the pulses built for one
    ``(spec, duration_factor, centering)`` serve every alpha, delta, eta and
    sigma.

    With ``keep`` each pulse keeps the parts it samples, per time array (see
    :func:`_sampler`), so reusing the result samples every shape once; the
    values are bitwise the same as without it.  The pulses of a
    per-pulse-centred composite share one fresh ``shape_tag``: each is the
    same shape translated in time, with its own drive phase.  Single pulses
    and global centering stay untagged.
    """
    n = spec.pulse_count
    T_live = duration_factor * spec.T
    half = WINDOW_HALF_WIDTH * T_live
    tag = object() if n > 1 and centering != "global" else None

    sp = _sp_controls(T_live, spec.sp_coeffs) if spec.kind == "SP" else None
    pulses = []
    for k in range(n):
        center = half * (2 * k + 1 - n)
        c_err = 0.0 if centering == "global" else center
        parts = _nominal_parts(spec, T_live, center, c_err, sp)
        pulses.append((
            _sampler(parts, keep),
            c_err,
            spec.phases[k] if spec.phases else 0.0,
            (center - half, center + half),
            tag,
        ))
    return tuple(pulses)


def adiabaticity_margin(w: Waveform, samples: int = 8193) -> float:
    """Minimum over the window of eigenvalue gap minus nonadiabatic coupling.

    Positive and large means the drive stays adiabatic.  Defined for real
    envelopes; the counterdiabatic technique is diagnosed on its main field.
    """
    t = np.linspace(w.window[0], w.window[1], samples)
    om = np.asarray(w.rabi(t))
    if np.iscomplexobj(om) and np.max(np.abs(om.imag)) > 0.0:
        raise InvalidParameter("adiabaticity margin is defined for real envelopes")
    om = om.real.astype(float)
    de = np.asarray(w.detuning(t), dtype=float)
    theta = 0.5 * np.arctan2(om, de)
    theta_dot = np.gradient(theta, t)
    gap = np.sqrt(om * om + de * de)
    return float(np.min(gap - np.abs(theta_dot)))
