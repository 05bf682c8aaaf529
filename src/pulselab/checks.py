"""Fast oracle and invariant suite behind the ``check`` CLI subcommand.

Every check compares the integrator or the builders against an independent
reference: closed-form resonant and detuned Rabi formulas, quadrature
identities of the counterdiabatic term, the shaped-pulse area, the area
left unchanged by the shape distortion, and the step-halving convergence
certificate.  Runs in a few seconds.  :func:`run_checks` yields each
result as its check finishes and prints nothing: the CLI writes the lines.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

import numpy as np

from .channels import ErrorVector, apply_errors
from .core import (
    CKPropagator,
    PulseSequence,
    Waveform,
    _simpson,
    compose,
    pulse_area,
    sequence_area,
    transition_probability,
    unitarity_defect,
)
from .integrator import IntegratorConfig, convergence_check, propagate_sequence
from .protocols import SQRT_PI, ProtocolSpec, mixing_angle_rate, nominal_spec

__all__ = ["CheckResult", "run_checks", "AF_NOMINAL_P"]

# Converged nominal transfer of the chirped Gaussian at omega0 = 5*sqrt(pi)/T,
# beta = 4/T, cross-verified against an independent adaptive RK integration.
AF_NOMINAL_P = 0.9843475027

_FAST = IntegratorConfig(steps_per_pulse=4000)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _rect(omega: float, delta: float, tau: float) -> PulseSequence:
    """One rectangular pulse, as a sequence: :func:`propagate_sequence` applies ``_FAST``'s renormalisation."""
    return PulseSequence((Waveform(lambda t: omega + 0.0 * t, lambda t: delta + 0.0 * t, window=(0.0, tau)),))


def _check_resonant_area_law() -> CheckResult:
    worst = 0.0
    for area in (np.pi / 2, np.pi, 2 * np.pi, 5 * np.pi):
        seq = apply_errors(ProtocolSpec("RE", area / SQRT_PI, 1.0))
        p = transition_probability(propagate_sequence(seq, _FAST))
        worst = max(worst, abs(p - np.sin(area / 2) ** 2))
        p = transition_probability(propagate_sequence(_rect(area / 3.0, 0.0, 3.0), _FAST))
        worst = max(worst, abs(p - np.sin(area / 2) ** 2))
    return CheckResult("resonant_area_law", worst < 1e-8, f"max |P - sin^2(A/2)| = {worst:.2e}")


def _check_detuned_rabi() -> CheckResult:
    worst = 0.0
    tau = np.pi
    for omega in np.linspace(0.2, 2.0, 5):
        for delta in np.linspace(-2.0, 2.0, 5):
            p = transition_probability(propagate_sequence(_rect(omega, delta, tau), _FAST))
            lam = np.hypot(omega, delta)
            ref = (omega / lam) ** 2 * np.sin(lam * tau / 2) ** 2
            worst = max(worst, abs(p - ref))
    return CheckResult("detuned_rabi_oracle", worst < 1e-8, f"max |P - analytic| = {worst:.2e}")


def _check_convergence_order() -> CheckResult:
    w = apply_errors(ProtocolSpec("AF", SQRT_PI, 1.0, beta=4.0)).pulses[0]
    e1 = convergence_check(w, IntegratorConfig(steps_per_pulse=1000))
    e2 = convergence_check(w, IntegratorConfig(steps_per_pulse=2000))
    ratio = e1 / e2
    return CheckResult("second_order_convergence", 3.5 <= ratio <= 4.5, f"halving ratio = {ratio:.3f}")


def _check_shortcut_identities() -> CheckResult:
    t = np.linspace(-6.0, 6.0, 200001)
    total = _simpson(mixing_angle_rate(t, SQRT_PI, 4.0, 1.0), t)
    d1 = abs(total + np.pi / 2)
    area = pulse_area(lambda t: 2.0 * mixing_angle_rate(t, SQRT_PI, 4.0, 1.0), (-6.0, 6.0))
    d2 = abs(area - np.pi)
    ok = d1 < 1e-6 and d2 < 1e-6
    return CheckResult("shortcut_identities", ok, f"|int - (-pi/2)| = {d1:.2e}, |area - pi| = {d2:.2e}")


def _check_sp_area() -> CheckResult:
    area = sequence_area(apply_errors(nominal_spec("SP")))
    rel = abs(area - 3.86 * np.pi) / (3.86 * np.pi)
    return CheckResult("shaped_pulse_area", rel < 0.01, f"area = {area / np.pi:.4f} pi, rel dev = {rel:.2e}")


def _check_area_preservation() -> CheckResult:
    # the tanh distortion is odd about each pulse center, so it leaves the
    # area of every real, symmetric envelope unchanged
    worst = 0.0
    for kind in ("RE", "SP", "UCP"):
        spec = nominal_spec(kind)
        a0 = sequence_area(apply_errors(spec))
        for sigma in (0.5, 0.9):
            a1 = sequence_area(apply_errors(spec, ErrorVector(sigma=sigma)))
            worst = max(worst, abs(a1 - a0) / a0)
    return CheckResult("shape_error_area_preservation", worst < 1e-8, f"max relative area change = {worst:.2e}")


def _check_nominal_transfer() -> CheckResult:
    details = []
    ok = True
    for kind, bound in (("RE", 1e-6), ("STA", 1e-6), ("UCP", 1e-6), ("CAP", 1e-6), ("SP", 1e-4)):
        p = transition_probability(propagate_sequence(apply_errors(nominal_spec(kind)), _FAST))
        ok = ok and (1.0 - p) <= bound
        details.append(f"{kind} 1-P={1 - p:.1e}")
    p_af = transition_probability(propagate_sequence(apply_errors(nominal_spec("AF")), _FAST))
    ok = ok and abs(p_af - AF_NOMINAL_P) < 2e-6
    details.append(f"AF P={p_af:.7f} (ref {AF_NOMINAL_P})")
    return CheckResult("nominal_transfer", ok, ", ".join(details))


def _check_unitarity_algebra() -> CheckResult:
    rng = np.random.default_rng(12345)
    worst = 0.0
    u = CKPropagator(1.0, 0.0)
    for _ in range(200):
        psi, chi, phi = rng.uniform(0, 2 * np.pi, 3)
        v = CKPropagator(np.cos(psi) * np.exp(1j * chi), np.sin(psi) * np.exp(1j * phi))
        u = compose(v, u)
        worst = max(worst, unitarity_defect(u))
    return CheckResult("composition_unitarity", worst < 1e-12, f"max defect over 200 products = {worst:.2e}")


_CHECKS: List[Callable[[], CheckResult]] = [
    _check_resonant_area_law,
    _check_detuned_rabi,
    _check_convergence_order,
    _check_shortcut_identities,
    _check_sp_area,
    _check_area_preservation,
    _check_nominal_transfer,
    _check_unitarity_algebra,
]


def run_checks() -> Iterator[Tuple[CheckResult, float]]:
    """Run the oracle suite, yielding each check's result and wall seconds as it finishes.

    Nothing is imported on first use inside a check, so each time is the
    check's own work.
    """
    for fn in _CHECKS:
        start = time.perf_counter()
        res = fn()
        yield res, time.perf_counter() - start
