"""Nominal physics of the six coherent-control techniques.

This module knows each technique's error-free pulse shapes;
:func:`pulselab.channels.apply_errors` applies the error channels on top
and builds every pulse sequence.

The table ``TECHNIQUES`` names the six techniques and holds their canonical
parameters.

Every pulse lives on a window of +-6T around its own center (the Gaussian
tail there is exp(-36), below double-precision resolution).  Composite
sequences use back-to-back windows with zero gap, each constituent chirp
re-centered on its own pulse.
"""
from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Dict, FrozenSet, Iterator, NamedTuple, Sequence, Tuple

import numpy as np

from .core import InvalidParameter, InvalidWaveform, Waveform, _sample

__all__ = [
    "ProtocolSpec",
    "Technique",
    "TECHNIQUES",
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

CAP_PHASES: Tuple[float, ...] = (0.0, 2.0 * np.pi / 3.0, 0.0)
UCP_PHASES: Tuple[float, ...] = (0.0, 5.0 * np.pi / 6.0, np.pi / 3.0, 5.0 * np.pi / 6.0, 0.0)
A7_COEFFS: Tuple[float, ...] = (-3.46, -1.365, -0.5)

# Pulse support half-width in units of the (possibly rescaled) pulse width.
WINDOW_HALF_WIDTH = 6.0


class Technique(NamedTuple):
    """Canonical omega0 and beta in units of 1/T, phases, and the other
    :class:`ProtocolSpec` fields besides ``T`` that the technique takes."""

    omega0_T: float
    beta_T: float
    phases: Tuple[float, ...]
    takes: FrozenSet[str]


TECHNIQUES: Dict[str, Technique] = {
    "RE": Technique(SQRT_PI, 0.0, (), frozenset({"omega0"})),  # resonant Gaussian
    "AF": Technique(5.0 * SQRT_PI, 4.0, (), frozenset({"omega0", "beta"})),  # Gaussian + linear chirp
    "STA": Technique(SQRT_PI, 4.0, (), frozenset({"omega0", "beta", "sta_nominal"})),  # AF + counterdiabatic
    "SP": Technique(SQRT_PI, 0.0, (), frozenset({"sp_coeffs"})),  # shaped pulse; its schedule sets omega0
    "CAP": Technique(SQRT_PI, 1.0, CAP_PHASES, frozenset({"omega0", "beta", "phases"})),  # 3 chirped pulses
    "UCP": Technique(SQRT_PI, 0.0, UCP_PHASES, frozenset({"omega0", "phases"})),  # 5 resonant pulses
}
PROTOCOL_KINDS = tuple(TECHNIQUES)


@dataclass(frozen=True)
class ProtocolSpec:
    """One technique plus its physical parameters.

    A field that :data:`TECHNIQUES` does not list for ``kind`` must keep its
    default, and ``omega0`` its canonical ``omega0_T / T``; empty ``phases``
    take the technique's canonical list.
    ``sta_nominal`` is the frozen (omega0, beta, T) triple used to synthesize
    the counterdiabatic term; it defaults to the live values and is never
    touched by error channels.

    An SP coefficient list is checked here, once: its controls are sampled at
    2001 points over the window at ``T`` (through :func:`pulselab.core._sample`),
    and a non-finite sample raises :class:`~pulselab.core.InvalidWaveform`
    that names the coefficient list.  Only ``g * sin(theta)`` can overflow,
    so the check holds for every width the duration channel gives the pulse.
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
        # the largest float, not inf, bounds them: a Python int passes 0 < x < inf at any size
        if not 0 < self.omega0 <= sys.float_info.max:
            raise InvalidParameter(f"omega0 must be positive and finite, got {self.omega0}")
        if not 0 < self.T <= sys.float_info.max:
            raise InvalidParameter(f"T must be positive and finite, got {self.T}")
        if not np.isfinite(self.beta):
            raise InvalidParameter("beta must be finite")
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        if not all(np.isfinite(self.phases)):
            raise InvalidParameter("phases must be finite")
        object.__setattr__(self, "sp_coeffs", tuple(float(c) for c in self.sp_coeffs))
        tech = TECHNIQUES[self.kind]
        for f in fields(self):
            if f.default is not MISSING and f.name not in tech.takes and getattr(self, f.name) != f.default:
                raise InvalidParameter(f"{f.name} is not a parameter of the {self.kind} technique")
        if "omega0" not in tech.takes and self.omega0 != tech.omega0_T / self.T:
            raise InvalidParameter(f"omega0 is not a parameter of the {self.kind} technique")
        if not self.phases:
            object.__setattr__(self, "phases", tech.phases)
        if self.kind == "STA":
            frozen = self.sta_nominal or (self.omega0, self.beta, self.T)
            frozen = tuple(float(x) for x in frozen)
            # the frozen triple is held to the rules of the live omega0, beta and T above
            om_a, beta_a, T_a = frozen if len(frozen) == 3 else (np.nan,) * 3
            if not (0 < om_a < np.inf and np.isfinite(beta_a) and 0 < T_a < np.inf):
                raise InvalidParameter(
                    f"sta_nominal must be a finite (omega0, beta, T) triple, omega0 and T positive; got {frozen}"
                )
            object.__setattr__(self, "sta_nominal", frozen)
        if self.kind == "SP":
            if not all(np.isfinite(self.sp_coeffs)):
                raise InvalidParameter("sp_coeffs must be finite")
            t = np.linspace(-WINDOW_HALF_WIDTH * self.T, WINDOW_HALF_WIDTH * self.T, 2001)
            try:
                _sample(t, *_sp_shape_functions(self.T, self.sp_coeffs))
            except InvalidWaveform:
                raise InvalidWaveform(
                    "shaped-pulse controls are not finite on the window; check the coefficient list"
                ) from None

    @property
    def pulse_count(self) -> int:
        return len(self.phases) if self.phases else 1


def nominal_spec(kind: str, T: float = 1.0) -> ProtocolSpec:
    """Canonical error-free parameters of one technique."""
    if kind not in TECHNIQUES:
        raise InvalidParameter(f"unknown protocol kind {kind!r}")
    tech = TECHNIQUES[kind]
    return ProtocolSpec(kind, tech.omega0_T / T, T, beta=tech.beta_T / T)


# cephes ndtr.c (Moshier, Methods and Programs for Mathematical Functions,
# 1989): erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8; U and Q are monic.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)


def _horner(x: np.ndarray, coeffs: Sequence[float], monic: bool = False) -> np.ndarray:
    """cephes ``polevl`` (``p1evl`` with ``monic``: a leading 1 not listed), in its operation order."""
    y = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, bitwise ``scipy.special.erf`` (cephes ``erf``) for finite and infinite x.

    cephes returns exactly 1 for x >= 8, which is also its value at 8, so
    |x| is clamped there, and the sign is copied back (erf(-0.0) is -0.0).
    The exponential is libm's ``exp``, which numpy's complex ``exp`` calls:
    its vectorised real ``exp`` differs from libm's in the last bit on some
    arguments, which moves about 1 sample in 1500 of the shaped pulse by an
    ulp.  NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x), 8.0)
    out = np.empty_like(a)
    small = a <= 1.0
    s = a[small]
    z = s * s
    out[small] = s * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)
    large = ~small
    s = a[large]
    e = np.exp(-s * s + 0j).real
    out[large] = 1.0 - e * _horner(s, _ERFC_P) / _horner(s, _ERFC_Q, monic=True)
    return np.copysign(out, x)


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
    # exp overflow far in the tail is the 0 limit; at extreme widths the products
    # overflow to inf and nan, which the integrator reports as a numerical failure
    with np.errstate(over="ignore", invalid="ignore"):
        x = (t / T) ** 2
        num = -omega0 * (beta / T) * (2.0 * t * t + T * T)
        den = 2.0 * (beta * beta * t * t * np.exp(x) + omega0 * omega0 * T * T * np.exp(-x))
        return num / den


def _harmonics(sin_th: np.ndarray, cos_th: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """cos(2 n theta) and sin(2 n theta) for n = 1, 2, ..., from sin(theta) and cos(theta).

    The double angle is cos(2 theta) = 1 - 2 sin(theta)^2 and
    sin(2 theta) = 2 sin(theta) cos(theta); each further harmonic adds it by
    the angle-addition formulas, so the rounding error grows about linearly
    in n.  A harmonic is computed only when it is asked for.
    """
    cos_2, sin_2 = 1.0 - 2.0 * sin_th * sin_th, 2.0 * sin_th * cos_th
    cos_2n, sin_2n = cos_2, sin_2
    while True:
        yield cos_2n, sin_2n
        cos_2n, sin_2n = cos_2n * cos_2 - sin_2n * sin_2, sin_2n * cos_2 + cos_2n * sin_2


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
    window, including the edges theta -> 0, pi.  The harmonics cos(2 n theta)
    and sin(2 n theta) come from sin(theta) and cos(theta) by angle addition
    (see :func:`_harmonics`), so a sample takes one sin and one cos whatever
    the number of coefficients; an empty list gives g = 2 and g' = 0.
    """

    # The control not yet asked for, with a copy of the times it was sampled
    # at: held from the first control's call until the second one takes it.
    held: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def controls(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        th = np.clip(0.5 * np.pi * (erf(t / T) + 1.0), 0.0, np.pi)
        sin_th, cos_th = np.sin(th), np.cos(th)
        gg, gp = np.full_like(th, 2.0), np.zeros_like(th)
        for n, (c, (cos_2n, sin_2n)) in enumerate(zip(coeffs, _harmonics(sin_th, cos_th)), 1):
            gg += (2.0 * n * c) * cos_2n
            gp -= (4.0 * n * n * c) * sin_2n
        x = sin_th * gg
        q = 1.0 + x * x
        td = (SQRT_PI / T) * np.exp(-((t / T) ** 2))
        phi_dot = -td * (cos_th * gg + sin_th * gp) / q
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
    b = spec.beta if "beta" in TECHNIQUES[spec.kind].takes else 0.0
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

    A kept part is held per time-array shape and first time, so that each
    block of a long propagation (see :mod:`pulselab.integrator`) keeps its
    own, together with the bytes of the times it was sampled at, and is
    reused only for a bitwise-equal time array.  Without ``keep`` callers use
    the result inline, so that numpy can reuse the fresh array for the
    arithmetic on top.
    """
    if not keep:
        return lambda t, name: parts[name](t)
    held: Dict[tuple, Tuple[bytes, Dict[str, np.ndarray]]] = {}

    def sample(t: np.ndarray, name: str) -> np.ndarray:
        bits = t.tobytes()
        key = (t.shape, bits[:8])
        slot = held.get(key)
        if slot is None or slot[0] != bits:
            slot = held[key] = (bits, {})
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
    and global centering stay untagged.  The shaped pulse's schedule is built
    afresh for each call (its coefficients were checked when the spec was
    made), so it lives and dies with the pulses returned here.
    """
    n = spec.pulse_count
    T_live = duration_factor * spec.T
    half = WINDOW_HALF_WIDTH * T_live
    tag = object() if n > 1 and centering != "global" else None

    sp = _sp_shape_functions(T_live, spec.sp_coeffs) if spec.kind == "SP" else None
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


def adiabaticity_margin(w: Waveform) -> float:
    """Minimum over 8193 window samples of eigenvalue gap minus nonadiabatic coupling.

    Positive and large means the drive stays adiabatic.  Defined for real
    envelopes; the counterdiabatic technique is diagnosed on its main field.
    A window so narrow that its sample spacing underflows gives NaN, without a
    warning.
    """
    t = np.linspace(w.window[0], w.window[1], 8193)
    om, de = _sample(t, w.rabi, w.detuning)
    if np.iscomplexobj(om) and np.max(np.abs(om.imag)) > 0.0:
        raise InvalidParameter("adiabaticity margin is defined for real envelopes")
    om = om.real.astype(float)
    de = np.asarray(de, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = 0.5 * np.arctan2(om, de)
        theta_dot = np.gradient(theta, t)
        gap = np.sqrt(om * om + de * de)
        return float(np.min(gap - np.abs(theta_dot)))
