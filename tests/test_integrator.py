"""Integrator oracles: closed-form Rabi physics and convergence behavior."""
import ast
import cmath
import functools
import math
import os
import pathlib
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import ck_matrix, solve_ivp_ck
from pulselab import cli, integrator, protocols
from pulselab.channels import ErrorVector, apply_errors
from pulselab.core import (
    CKPropagator,
    InvalidWaveform,
    PulseSequence,
    Waveform,
    _sample,
    compose,
    transition_probability,
    unitarity_defect,
)
from pulselab.integrator import (
    IntegratorConfig,
    NonConvergent,
    UnitarityViolation,
    convergence_check,
    propagate,
    propagate_sequence,
)
from pulselab.protocols import SQRT_PI, TECHNIQUES, ProtocolSpec, nominal_spec
from pulselab.sweep import SweepAxis, sweep1d

# analytic value of the detuned-Rabi oracle at Omega = delta = 1/T, tau = pi*T:
# P = (Omega^2/(Omega^2+delta^2)) * sin^2(sqrt(Omega^2+delta^2)*tau/2)
DETUNED_RABI_REFERENCE = 0.3165638355103539
EPS = np.finfo(float).eps


def rect(omega, delta, tau, phase=0.0):
    return Waveform(
        rabi=lambda t: omega + 0.0 * t,
        detuning=lambda t: delta + 0.0 * t,
        phase=phase,
        window=(0.0, tau),
    )


def gaussian_chirped(omega0, beta, T=1.0):
    return Waveform(
        rabi=lambda t: omega0 * np.exp(-((t / T) ** 2)),
        detuning=lambda t: beta * t / T,
        window=(-6.0 * T, 6.0 * T),
    )


def test_zero_field_gives_identity(fast_cfg):
    w = Waveform(rabi=lambda t: 0.0 * t, detuning=lambda t: 0.0 * t, window=(-1.0, 3.0))
    u = propagate(w, fast_cfg)
    assert u.a == pytest.approx(1.0, abs=1e-14)
    assert u.b == pytest.approx(0.0, abs=1e-14)


def test_rectangular_pi_pulse(fast_cfg):
    u = propagate(rect(np.pi / 2.0, 0.0, 2.0), fast_cfg)
    assert transition_probability(u) == pytest.approx(1.0, abs=1e-8)


def test_detuned_rectangular_oracle(fast_cfg):
    p = transition_probability(propagate(rect(1.0, 1.0, np.pi), fast_cfg))
    formula = 0.5 * np.sin(np.pi / np.sqrt(2.0)) ** 2
    assert p == pytest.approx(formula, abs=1e-10)
    assert p == pytest.approx(DETUNED_RABI_REFERENCE, abs=1e-10)


@pytest.mark.parametrize("omega", [0.4, 1.1, 1.9])
@pytest.mark.parametrize("delta", [-1.5, 0.3, 2.0])
def test_rabi_formula_grid(fast_cfg, omega, delta):
    tau = np.pi
    p = transition_probability(propagate(rect(omega, delta, tau), fast_cfg))
    lam = np.hypot(omega, delta)
    assert p == pytest.approx((omega / lam) ** 2 * np.sin(lam * tau / 2) ** 2, abs=1e-10)


def test_gaussian_pi_pulse(fast_cfg):
    u = propagate(gaussian_chirped(SQRT_PI, 0.0), fast_cfg)
    assert transition_probability(u) == pytest.approx(1.0, abs=1e-6)


def test_cross_check_against_adaptive_rk(mid_cfg):
    # dual route: exponential-midpoint integrator vs scipy DOP853
    w = gaussian_chirped(5 * SQRT_PI, 4.0)
    u = propagate(w, mid_cfg)
    a_ref, b_ref = solve_ivp_ck(w)
    assert abs(u.a - a_ref) < 1e-6
    assert abs(u.b - b_ref) < 1e-6


def test_constant_drive_matches_matrix_exponential(fast_cfg):
    # dual route for one step family: scipy expm of the full Hamiltonian
    from scipy.linalg import expm

    omega, delta, tau, phase = 1.4, -0.8, 2.3, 0.6
    u = propagate(rect(omega, delta, tau, phase=phase), fast_cfg)
    H = 0.5 * np.array(
        [[-delta, omega * np.exp(1j * phase)], [omega * np.exp(-1j * phase), delta]]
    )
    U = expm(-1j * H * tau)
    assert np.max(np.abs(ck_matrix(u) - U)) < 1e-10


def test_phase_commutes_with_propagation(fast_cfg):
    w0 = rect(1.3, 0.7, 2.0, phase=0.0)
    w1 = rect(1.3, 0.7, 2.0, phase=0.9)
    u0, u1 = propagate(w0, fast_cfg), propagate(w1, fast_cfg)
    assert u1.a == pytest.approx(u0.a, abs=1e-12)
    assert u1.b == pytest.approx(u0.b * np.exp(0.9j), abs=1e-12)


def demkov_kunike(omega0, delta0, b):
    """Omega0 sech(t) with detuning Delta0 + B tanh(t) (T = 1), and its closed-form P.

    Demkov & Kunike, Vestn. Leningr. Univ. Fiz. Khim. 16, 39 (1969); the root
    is imaginary for B > Omega0, and B = 0 is Rosen & Zener, Phys. Rev. 40,
    502 (1932).  The window of +-40 leaves sech(40) ~ 8e-18 outside it.
    """
    w = Waveform(
        rabi=lambda t: omega0 / np.cosh(t),
        detuning=lambda t: delta0 + b * np.tanh(t),
        window=(-40.0, 40.0),
    )
    root = np.sqrt(complex(omega0**2 - b**2))
    p = (np.cosh(np.pi * b) - np.cos(np.pi * root).real) / (np.cosh(np.pi * b) + np.cosh(np.pi * delta0))
    return w, p


def test_demkov_kunike_closed_form_at_second_order():
    rng = np.random.default_rng(7)
    pulses = [demkov_kunike(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(40)]
    worst = {}
    for steps in (4000, 20000):
        cfg = IntegratorConfig(steps_per_pulse=steps)
        worst[steps] = max(abs(transition_probability(propagate(w, cfg)) - p) for w, p in pulses)
    assert worst[4000] <= 1e-5
    assert worst[20000] <= 5e-7
    # 5x the steps, 25x less error at second order
    assert worst[4000] >= 20 * worst[20000]


# ------------------------------------------------------------------ sequence


def test_single_pulse_sequence_matches_propagate(fast_cfg):
    seq = apply_errors(nominal_spec("STA"))
    u1 = propagate(seq.pulses[0], fast_cfg)
    u2 = propagate_sequence(seq, fast_cfg)
    assert u1.a == pytest.approx(u2.a, abs=1e-12)
    assert u1.b == pytest.approx(u2.b, abs=1e-12)


def test_five_resonant_pi_pulses(fast_cfg):
    seq = apply_errors(nominal_spec("UCP"))
    zero_phase = type(seq)(tuple(
        Waveform(p.rabi, p.detuning, 0.0, p.window) for p in seq.pulses
    ))
    p = transition_probability(propagate_sequence(zero_phase, fast_cfg))
    assert p == pytest.approx(1.0, abs=1e-8)  # total area 5*pi


def test_u5_nominal_transfer(fast_cfg):
    p = transition_probability(propagate_sequence(apply_errors(nominal_spec("UCP")), fast_cfg))
    assert p >= 1.0 - 1e-6


def test_sequence_equals_monolithic_on_split_window():
    # same step size on both routes; only the composition bracketing differs
    sta = apply_errors(nominal_spec("STA")).pulses[0]
    left = Waveform(sta.rabi, sta.detuning, 0.0, (-6.0, 0.0))
    right = Waveform(sta.rabi, sta.detuning, 0.0, (0.0, 6.0))
    cfg_half = IntegratorConfig(steps_per_pulse=250_000)
    cfg_full = IntegratorConfig(steps_per_pulse=500_000)
    u_seq = propagate_sequence(PulseSequence((left, right)), cfg_half)
    u_mono = propagate(sta, cfg_full)
    assert abs(u_seq.a - u_mono.a) < 1e-9
    assert abs(u_seq.b - u_mono.b) < 1e-9


def test_time_reversal_returns_identity(mid_cfg):
    # inverse evolution: negate both controls and reflect them in time
    for spec in (ProtocolSpec("AF", SQRT_PI, 1.0, beta=4.0), nominal_spec("STA")):
        w = apply_errors(spec).pulses[0]
        rev = Waveform(
            rabi=lambda t, w=w: -np.asarray(w.rabi(-np.asarray(t))),
            detuning=lambda t, w=w: -np.asarray(w.detuning(-np.asarray(t))),
            window=(-w.window[1], -w.window[0]),
        )
        from pulselab.core import compose

        total = compose(propagate(rev, mid_cfg), propagate(w, mid_cfg))
        assert abs(total.a - 1.0) < 1e-8
        assert abs(total.b) < 1e-8


# ---------------------------------------------------------------- convergence


def test_convergence_check_zero_field(fast_cfg):
    w = Waveform(rabi=lambda t: 0.0 * t, detuning=lambda t: 0.0 * t, window=(0.0, 1.0))
    assert convergence_check(w, fast_cfg) == pytest.approx(0.0, abs=1e-15)


def test_second_order_ratio_on_chirped_gaussian():
    w = gaussian_chirped(SQRT_PI, 4.0)
    e1 = convergence_check(w, IntegratorConfig(steps_per_pulse=1000))
    e2 = convergence_check(w, IntegratorConfig(steps_per_pulse=2000))
    assert 3.5 <= e1 / e2 <= 4.5


def test_resonant_gaussian_error_is_tiny(fast_cfg):
    # commuting Hamiltonian: quadrature converges superalgebraically
    w = gaussian_chirped(SQRT_PI, 0.0)
    assert convergence_check(w, fast_cfg) < 1e-9


def test_sp_is_the_stiffest_but_second_order(fast_cfg):
    w = apply_errors(nominal_spec("SP")).pulses[0]
    e1 = convergence_check(w, fast_cfg)
    e2 = convergence_check(w, IntegratorConfig(steps_per_pulse=8000))
    assert e1 < 1e-4
    assert 3.5 <= e1 / e2 <= 4.5


def test_per_step_unitarity(fast_cfg):
    u = propagate(gaussian_chirped(5 * SQRT_PI, 4.0), fast_cfg)  # the product as stepped, never renormalised
    assert unitarity_defect(u) < 1e-12


# -------------------------------------------------------------------- errors


def test_invalid_waveform_raises(fast_cfg):
    w = Waveform(
        rabi=lambda t: np.where(t > 0.5, np.nan, 1.0),
        detuning=lambda t: 0.0 * t,
        window=(0.0, 1.0),
    )
    with pytest.raises(InvalidWaveform):
        propagate(w, fast_cfg)


def test_unitarity_violation_raises():
    cfg = IntegratorConfig(steps_per_pulse=4000, unitarity_tol=1e-18)
    with pytest.raises(UnitarityViolation):
        propagate(gaussian_chirped(5 * SQRT_PI, 4.0), cfg)


def test_nonconvergent_raises():
    # propagate steps and does not certify; the sequence's certificate raises
    w = gaussian_chirped(5 * SQRT_PI, 4.0)
    cfg = IntegratorConfig(steps_per_pulse=4000, convergence_tol=1e-12)
    assert propagate(w, cfg) == propagate(w, replace(cfg, convergence_tol=None))
    est = convergence_check(w, cfg)
    with pytest.raises(NonConvergent, match=f"summed through pulse 1: {est:.3e} exceeds 1.000e-12"):
        propagate_sequence(PulseSequence((w,)), cfg)


def test_nan_propagator_fails_both_tolerance_checks(monkeypatch):
    # an overflowing drive gives a NaN pair, whose defect compares False
    # against any tolerance; it must fail the check, not slip through it
    blown = PulseSequence((gaussian_chirped(1e200, 0.0),))
    for renormalize in (False, True):
        with pytest.raises(UnitarityViolation):
            propagate_sequence(blown, IntegratorConfig(steps_per_pulse=400, renormalize=renormalize))
    monkeypatch.setattr(integrator, "convergence_check", lambda *args, **kwargs: float("nan"))
    cfg = IntegratorConfig(steps_per_pulse=400, convergence_tol=1e-8)
    with pytest.raises(NonConvergent, match="nan exceeds"):
        propagate_sequence(PulseSequence((gaussian_chirped(SQRT_PI, 0.0),)), cfg)


def _record_certificates(monkeypatch):
    """Steps of every raw run and every step-halving estimate, in call order."""
    steps, estimates = [], []
    raw, check = integrator._propagate_raw, integrator.convergence_check

    def counted_raw(w, n):
        steps.append(n)
        return raw(w, n)

    def recorded_check(*args, **kwargs):
        estimates.append(check(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(integrator, "_propagate_raw", counted_raw)
    monkeypatch.setattr(integrator, "convergence_check", recorded_check)
    return steps, estimates


def test_certified_propagate_runs_base_and_doubled_resolution_once(monkeypatch):
    steps, estimates = _record_certificates(monkeypatch)
    cfg = IntegratorConfig(steps_per_pulse=4000, convergence_tol=1e-3)
    # per-pulse centering: one shape, checked on its first pulse only
    seq = apply_errors(nominal_spec("UCP"))
    propagate_sequence(seq, cfg)
    assert steps == [4000, 8000, 4000, 4000, 4000, 4000]
    steps.clear()
    alone = convergence_check(seq.pulses[0], cfg)
    assert steps == [4000, 8000]
    assert estimates == [alone]
    # global centering: every pulse is its own shape
    steps.clear()
    estimates.clear()
    seq = apply_errors(nominal_spec("UCP"), ErrorVector(centering="global"))
    propagate_sequence(seq, cfg)
    assert steps == [4000, 8000] * 5
    steps.clear()
    assert estimates == [convergence_check(w, cfg) for w in seq.pulses]


def _composite_error_vectors(count=12, seed=20140722):
    """Seeded CAP/UCP error vectors over both centerings, with phase offsets."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = ("CAP", "UCP")[i % 2]
        n = nominal_spec(kind).pulse_count
        err = ErrorVector(
            alpha=rng.uniform(0.8, 1.2),
            duration_factor=rng.uniform(0.8, 1.2),
            delta=rng.uniform(-0.5, 0.5),
            eta=rng.uniform(-0.2, 0.2),
            sigma=rng.uniform(-0.3, 0.3),
            phase_offsets=tuple(rng.uniform(-0.3, 0.3, n)),
            centering=("per_pulse", "global")[(i // 2) % 2],
        )
        cases.append((kind, err))
    return cases


@pytest.mark.parametrize("steps", [1000, 4000])
@pytest.mark.parametrize("kind, err", _composite_error_vectors())
def test_shared_certificate_agrees_with_per_pulse_certificates(monkeypatch, kind, err, steps):
    seq = apply_errors(nominal_spec(kind), err)
    plain = IntegratorConfig(steps_per_pulse=steps)
    alone = [convergence_check(w, plain) for w in seq.pulses]
    want = propagate_sequence(seq, plain)
    _, estimates = _record_certificates(monkeypatch)

    got = propagate_sequence(seq, replace(plain, convergence_tol=1.0))
    assert np.array([got.a, got.b]).tobytes() == np.array([want.a, want.b]).tobytes()
    if err.centering == "global":
        assert estimates == alone
        counted = estimates
    else:
        assert len(estimates) == 1
        assert max(abs(estimates[0] - e) for e in alone) <= 1e-14
        counted = estimates * len(seq.pulses)  # the shared estimate counts once per pulse
    summed = sum(counted)
    assert summed == pytest.approx(sum(alone), rel=1e-12, abs=1e-14)

    # NonConvergent iff the sum exceeds the tolerance: the largest pulse's
    # estimate, which a per-pulse rule would pass, fails the sum
    assert max(alone) < summed
    for tol in (max(alone), summed * (1 - 1e-6), summed * (1 + 1e-6)):
        cfg = replace(plain, convergence_tol=tol)
        if summed > tol:
            with pytest.raises(NonConvergent):
                propagate_sequence(seq, cfg)
        else:
            assert propagate_sequence(seq, cfg) == want


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(tuple(TECHNIQUES)),
    alpha=st.floats(0.8, 1.2),
    d=st.floats(0.8, 1.2),
    delta=st.floats(-0.5, 0.5),
    eta=st.floats(-0.2, 0.2),
    sigma=st.floats(-0.3, 0.3),
    offsets=st.lists(st.floats(-0.3, 0.3), min_size=5, max_size=5),
    centering=st.sampled_from(("per_pulse", "global")),
)
@example("UCP", 1.0, 0.859375, 0.0, 0.09375, 0.0, [0.0, 0.0, -0.25, 0.25, 0.0], "global")
def test_whole_sequences_agree_with_dop853_within_their_summed_estimates(
    kind, alpha, d, delta, eta, sigma, offsets, centering
):
    # A pulse errs by about 4/3 of its step-halving estimate.  The errors of unitary factors add in the
    # operator norm, sqrt(|da|^2 + |db|^2) for CK pairs, which the certificate's max(|da|, |db|) can
    # understate by up to sqrt(2): in that max the @example's UCP errs by 1.43 times its summed certificate.
    # So each pulse is held to its certificate, and the sequence to its pulses' estimates summed in the norm.
    def gap(u, v):
        return max(abs(u.a - v.a), abs(u.b - v.b))

    def norm(u, v):
        return float(np.hypot(abs(u.a - v.a), abs(u.b - v.b)))

    spec = nominal_spec(kind)
    err = ErrorVector(alpha, d, delta, eta, sigma, tuple(offsets[: spec.pulse_count]), centering)
    seq, cfg = apply_errors(spec, err), IntegratorConfig(steps_per_pulse=4000)
    fine = replace(cfg, steps_per_pulse=2 * cfg.steps_per_pulse)
    ref, summed = CKPropagator(1.0 + 0j, 0j), 0.0
    for w in seq.pulses:
        exact, coarse = CKPropagator(*solve_ivp_ck(w)), propagate(w, cfg)
        assert gap(coarse, exact) <= 1.4 * convergence_check(w, cfg, coarse=coarse) + 1e-9
        summed += norm(coarse, propagate(w, fine))
        ref = compose(exact, ref)
    assert norm(propagate_sequence(seq, cfg), ref) <= 1.4 * summed + 1e-9


_POLICIES = ("convergence_tol", "renormalize")


def _policy_reads(source):
    """(owner, line, attribute) for each read of a policy attribute in ``source``.

    ``owner`` is the outermost function or class around the read.
    """
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in _POLICIES and isinstance(node.ctx, ast.Load):
                yield owner, node.lineno, node.attr


def test_the_policy_finder_sees_reads_in_nested_functions_and_methods():
    source = (
        "def f(cfg):\n"
        "    def g():\n"
        "        return cfg.renormalize\n"
        "    return cfg.steps_per_pulse\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.convergence_tol\n"
        "x = IntegratorConfig(renormalize=False)\n"
        "y = x.convergence_tol\n"
    )
    assert list(_policy_reads(source)) == [
        ("f", 3, "renormalize"), ("C", 7, "convergence_tol"), ("<module>", 9, "convergence_tol"),
    ]


def test_propagate_sequence_is_the_only_reader_of_the_sequence_policies():
    # a second reader would judge a pulse, not the sequence, or renormalise twice
    found = set()
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "pulselab").glob("*.py")):
        found |= {(path.stem, owner, attr) for owner, _, attr in _policy_reads(path.read_text(encoding="utf-8"))}
    sequence = {("integrator", "propagate_sequence", attr) for attr in _POLICIES}
    assert found <= sequence | {("integrator", "IntegratorConfig", attr) for attr in _POLICIES}, found
    assert sequence <= found


def test_step_pairs_midpoints_and_spacing():
    seen = []
    w = Waveform(
        rabi=lambda t: seen.append(t.copy()) or 0.0 * t,
        detuning=lambda t: 2.0 + 0.0 * t,
        window=(-1.0, 1.0),
    )
    a, b = integrator._pairs(w, 0.5, *integrator._controls(w, 0.5, 0, 4))
    assert seen[0] == pytest.approx([-0.75, -0.25, 0.25, 0.75])
    # spacing h = 0.5: a pure-detuning step is exp(i*h*D/2)
    assert a == pytest.approx(np.full(4, np.exp(0.5j * 0.5 * 2.0)), abs=1e-15)
    assert np.all(b == 0)


def complex_pairs(w, h, rabi, detuning):
    """The step pairs as the complex expressions that ``integrator._pairs`` writes out by component."""
    W = np.asarray(rabi, dtype=complex) * np.exp(1j * w.phase)
    D = np.asarray(detuning, dtype=float)
    lam = np.sqrt(np.abs(W) ** 2 + D * D)
    th = 0.5 * h * lam
    s = 0.5 * h * np.sinc(th / np.pi)
    return np.cos(th) + 1j * D * s, -1j * W * s


def zero_signless(*values):
    """The bytes of ``values`` with -0.0 read as +0.0: the one difference the two may show."""
    return (np.array(values, dtype=complex) + 0.0).tobytes()


@pytest.mark.parametrize("kind", TECHNIQUES)
def test_step_pairs_are_bitwise_the_complex_expressions(kind):
    # UCP and CAP carry drive phases, STA a complex envelope; alpha = delta = 0
    # zeroes every RE step's lam, which takes np.sinc's eps branch
    vectors = (ErrorVector(), ErrorVector(alpha=1.07, delta=0.1, eta=0.05, sigma=0.1), ErrorVector(alpha=0.0))
    for steps in (4000, integrator._BLOCK, 4097):
        for w in (w for err in vectors for w in apply_errors(nominal_spec(kind), err).pulses):
            h = (w.window[1] - w.window[0]) / steps
            controls = integrator._controls(w, h, 0, steps)
            a, b = integrator._pairs(w, h, *controls)
            want_a, want_b = complex_pairs(w, h, *controls)
            assert zero_signless(a) == zero_signless(want_a)
            assert zero_signless(b) == zero_signless(want_b)
            u, want = integrator._reduce(a, b), integrator._reduce(want_a, want_b)
            assert zero_signless(u.a, u.b) == zero_signless(want.a, want.b)


def always_complex_pairs(phase, h, rabi, detuning):
    """The step pairs formed from a complex drive times exp(i phase) at every phase, as ``_pairs`` once was."""
    W = np.asarray(rabi, dtype=complex) * np.exp(1j * phase)
    D = np.asarray(detuning, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        th = np.abs(W)
        th *= th
        th += D * D
        np.sqrt(th, out=th)
        th *= 0.5 * h
        y = th / np.pi
        y *= np.pi
        y[y == 0] = np.finfo(float).eps
        s = np.sin(y)
        s /= y
        s *= 0.5 * h
        a, b = np.empty_like(W), np.empty_like(W)
        np.cos(th, out=a.real)
        np.multiply(D, s, out=a.imag)
        np.multiply(W.imag, s, out=b.real)
        np.negative(W.real, out=b.imag)
        b.imag *= s
    return a, b


def every_term_controls(spec, err):
    """Each pulse's (rabi, detuning) with every channel's term applied, also at sigma = 0 and eta = 0."""
    a, sigma, delta, eta = err.alpha, err.sigma, err.delta, err.eta
    gain = spec.omega0 if spec.kind == "STA" else a if spec.kind == "SP" else a * spec.omega0
    for sample, ce, *_ in protocols.nominal_pulses(spec, err.duration_factor, err.centering):
        def rabi(t, sample=sample):
            field = gain * sample(t, "envelope") * (1.0 + sigma * sample(t, "tanh"))
            if spec.kind != "STA":
                return field
            if err.sta_alpha_scales_shortcut:
                return a * (field + sample(t, "shortcut"))
            return a * field + sample(t, "shortcut")

        yield rabi, lambda t, sample=sample, ce=ce: sample(t, "detuning") + delta + eta * (t - ce)


def every_term_blocks(rabi, detuning, phase, window, steps):
    """Each block's start, controls and always-complex pairs, at the midpoints as ``_controls`` once formed them."""
    t0, t1 = window
    h = (t1 - t0) / steps
    for start in range(0, steps, integrator._BLOCK):
        t = t0 + (np.arange(start, min(start + integrator._BLOCK, steps)) + 0.5) * h
        controls = _sample(t, rabi, detuning)
        yield start, controls, always_complex_pairs(phase, h, *controls)


def assert_bitwise_every_term(w, rabi, detuning, steps):
    """``w``'s controls, pairs and product are bitwise those of ``rabi`` and ``detuning`` in the old arithmetic.

    A window whose blocks collapse to one rotation each (a real drive at zero
    detuning) is held to the rotation oracle instead of the stepped product.
    """
    h = (w.window[1] - w.window[0]) / steps
    products, collapsed = [], []
    for start, want_controls, want_pairs in every_term_blocks(rabi, detuning, w.phase, w.window, steps):
        got_controls = integrator._controls(w, h, start, min(start + integrator._BLOCK, steps))
        got_pairs = integrator._pairs(w, h, *got_controls)
        for got, want in zip((*got_controls, *got_pairs), (*want_controls, *want_pairs)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), start
        products.append(integrator._reduce(*want_pairs))
        collapsed.append(not np.iscomplexobj(want_controls[0]) and not want_controls[1].any())
    if all(collapsed):
        assert_one_rotation(w, steps)
        return
    assert not any(collapsed)
    if len(products) > 1:
        products = [integrator._reduce(np.array([u.a for u in products]), np.array([u.b for u in products]))]
    assert bits(integrator._propagate_raw(w, steps)) == bits(products[0])


def seeded_vectors(kind, seed):
    """Error vectors drawn from ``seed``: sigma and eta each zero and not, phase offsets zero and not."""
    rng = np.random.default_rng(seed)
    n = nominal_spec(kind).pulse_count
    for sigma_on, eta_on in ((False, False), (True, False), (False, True), (True, True)):
        yield ErrorVector(
            alpha=rng.uniform(0.5, 1.5),
            duration_factor=rng.uniform(0.7, 1.3),
            delta=rng.uniform(-1.0, 1.0),
            eta=rng.uniform(-0.5, 0.5) if eta_on else 0.0,
            sigma=rng.uniform(-0.5, 0.5) if sigma_on else 0.0,
            phase_offsets=tuple(rng.uniform(-0.3, 0.3, n)) if sigma_on != eta_on and n > 1 else (),
            centering="global" if eta_on and not sigma_on else "per_pulse",
        )


@pytest.mark.parametrize("kind", TECHNIQUES)
def test_a_propagation_is_bitwise_the_always_complex_every_term_arithmetic(kind):
    spec = nominal_spec(kind)
    cases = [(spec, err, 4000) for err in seeded_vectors(kind, 24)]
    cases += [(spec, err, 2 * integrator._BLOCK + 1000) for err in list(seeded_vectors(kind, 25))[::3]]
    # -0.0 delta with a zero eta keeps the chirp term; exp(-0.0j) is 1 + 0j, as exp(0j) is
    cases.append((spec, ErrorVector(delta=-0.0, eta=-0.0, centering="global"), 4000))
    if spec.pulse_count > 1:
        signed = replace(spec, phases=(-0.0,) * spec.pulse_count)
        cases.append((signed, ErrorVector(alpha=-0.0, phase_offsets=(-0.0,) * spec.pulse_count), 4000))
    for spec, err, steps in cases:
        for w, (rabi, detuning) in zip(apply_errors(spec, err).pulses, every_term_controls(spec, err)):
            assert_bitwise_every_term(w, rabi, detuning, steps)


@pytest.mark.parametrize("phase", (0.0, 0.7))
def test_a_scalar_drive_is_bitwise_the_always_complex_arithmetic(phase):
    w = Waveform(rabi=lambda t: 1.3, detuning=lambda t: -0.4, phase=phase, window=(-1.0, 2.0))
    for steps in (4000, 2 * integrator._BLOCK + 1000):
        assert_bitwise_every_term(w, w.rabi, w.detuning, steps)


# ------------------------------------------------------------ resonant blocks


def assert_one_rotation(w, steps):
    """``w``'s product is the rotation by Theta = (h/2) * fsum(W) over its window, within a few ulp of Theta.

    Its unitarity defect is at most a few ulp.  A one-block window is its
    rotation, whose a.imag is +0.0, and at phase 0 so is b.real.
    """
    h = (w.window[1] - w.window[0]) / steps
    rabi, detuning = integrator._controls(w, h, 0, steps)
    assert not np.iscomplexobj(rabi) and not detuning.any()
    theta = 0.5 * h * math.fsum(rabi)
    u = integrator._propagate_raw(w, steps)
    tol = 4 * EPS * max(1.0, abs(theta))
    assert abs(u.a - math.cos(theta)) <= tol
    assert abs(u.b - complex(0.0, -math.sin(theta)) * cmath.exp(1j * w.phase)) <= tol
    assert unitarity_defect(u) <= 4 * EPS
    if steps <= integrator._BLOCK:
        zeros = (u.a.imag,) if w.phase else (u.a.imag, u.b.real)
        assert np.array(zeros).tobytes() == bytes(8 * len(zeros))  # +0.0 each


# an even and an odd step count, and a window of three blocks whose rotations
# are formed on threads
@pytest.mark.parametrize("steps", (4000, 4001, 2 * integrator._BLOCK + 1000))
def test_a_resonant_block_is_one_rotation(steps, monkeypatch):
    rotation, threads = integrator._rotation, []
    monkeypatch.setattr(integrator, "_rotation", lambda *args: threads.append(threading.get_ident()) or rotation(*args))
    pulses = (*apply_errors(nominal_spec("RE")).pulses, *apply_errors(nominal_spec("UCP")).pulses)
    for w in pulses:
        assert_one_rotation(w, steps)
    blocks = len(range(0, steps, integrator._BLOCK))
    assert len(threads) == len(pulses) * blocks
    if blocks > 1 and (os.cpu_count() or 1) > 1:
        assert threading.get_ident() not in threads


def test_strong_resonant_drives_are_one_rotation_with_positive_zero_parts():
    # pulse areas up to 4 pi, UCP's phased pulses among them
    for alpha in np.linspace(0.0, 2.0, 9):
        for df in np.linspace(0.1, 2.0, 9):
            for kind in ("RE", "UCP"):
                for w in apply_errors(nominal_spec(kind), ErrorVector(alpha=alpha, duration_factor=df)).pulses:
                    assert_one_rotation(w, 4000)


def test_a_rotation_angle_whose_square_overflows_gives_a_nan_pair():
    # every |W|^2 = 1e300 is finite; Theta = 0.5 * h * 4000 * 1e150 is 5e153 at h = 2.5, 5e154 at h = 25
    w = Waveform(rabi=lambda t: 1e150 + 0.0 * t, detuning=lambda t: 0.0 * t, window=(0.0, 1e4))
    assert unitarity_defect(integrator._propagate_raw(w, 4000)) <= 4 * EPS
    w = replace(w, window=(0.0, 1e5))
    u = integrator._propagate_raw(w, 4000)
    assert all(math.isnan(x) for x in (u.a.real, u.a.imag, u.b.real, u.b.imag))
    with pytest.raises(UnitarityViolation, match="nan"):
        propagate(w, IntegratorConfig(steps_per_pulse=4000))


def test_a_vanishing_drive_over_a_huge_window_overflows_in_the_reduce_unless_it_is_one_rotation():
    # |W|^2 underflows to 0 where the detuning is 0, so those pairs are far from unitary
    w = Waveform(rabi=lambda t: 1e-170 + 0.0 * t, detuning=lambda t: (t > 0) * 1.0, window=(-1e300, 1e300))
    with pytest.raises(UnitarityViolation, match="nan"):
        propagate(w, IntegratorConfig(steps_per_pulse=4000))
    # at zero detuning throughout, the block is the rotation by Theta = 1e130
    assert unitarity_defect(integrator._propagate_raw(replace(w, detuning=lambda t: 0.0 * t), 4000)) <= 4 * EPS


def test_the_rotation_runs_for_real_drives_at_zero_detuning_alone(monkeypatch):
    ran = []
    rotation, pairs = integrator._rotation, integrator._pairs
    monkeypatch.setattr(integrator, "_rotation", lambda *args: ran.append("rotation") or rotation(*args))
    monkeypatch.setattr(integrator, "_pairs", lambda *args: ran.append("pairs") or pairs(*args))

    def kernels(kind, err=ErrorVector()):
        ran.clear()
        for w in apply_errors(nominal_spec(kind), err).pulses:
            integrator._propagate_raw(w, 4000)
        return ran[:]

    assert kernels("RE") == kernels("RE", ErrorVector(alpha=0.0)) == ["rotation"]
    # delta = -0.0 keeps the chirp term (see apply_errors), whose samples are all zeros here
    assert kernels("RE", ErrorVector(delta=-0.0)) == ["rotation"]
    assert kernels("RE", ErrorVector(delta=1e-300)) == kernels("RE", ErrorVector(eta=0.1)) == ["pairs"]
    for kind in ("AF", "STA", "SP", "CAP"):
        assert set(kernels(kind)) == {"pairs"}, kind
    assert kernels("UCP") == ["rotation"] * 5  # at any drive phase


def test_one_block_windows_share_one_read_only_grid_and_longer_ones_build_their_own():
    integrator._shared_midpoints.cache_clear()
    grids = []
    w = apply_errors(nominal_spec("RE")).pulses[0]
    for alpha in (0.5, 1.0, 1.5):  # three points of one shape
        u = apply_errors(nominal_spec("RE"), ErrorVector(alpha=alpha)).pulses[0]
        propagate(replace(u, rabi=lambda t, rabi=u.rabi: grids.append(t) or rabi(t)), IntegratorConfig(steps_per_pulse=4000))
    assert len(grids) == 3 and all(t is grids[0] for t in grids) and not grids[0].flags.writeable
    h = (w.window[1] - w.window[0]) / 4000
    assert grids[0].tobytes() == (w.window[0] + (np.arange(4000) + 0.5) * h).tobytes()
    # a control must not write into its times: the shared grid refuses it
    with pytest.raises(ValueError, match="read-only"):
        integrator._propagate_raw(replace(w, detuning=lambda t: t.__imul__(2.0)), 4000)
    before = integrator._shared_midpoints.cache_info()
    long = []
    integrator._propagate_raw(replace(w, rabi=lambda t: long.append(t) or w.rabi(t)), 2 * integrator._BLOCK + 1000)
    assert integrator._shared_midpoints.cache_info() == before
    assert len(long) == 3 and all(t.flags.writeable for t in long)


def test_tanh_is_sampled_only_off_nominal_sigma_once_per_shape_and_block(monkeypatch):
    sampled = []
    parts_of = protocols._nominal_parts

    def logged_parts(spec, T_live, c, ce, sp):
        parts = parts_of(spec, T_live, c, ce, sp)
        return {name: lambda t, name=name: sampled.append((name, c, t.size, t[0])) or parts[name](t) for name in parts}

    monkeypatch.setattr(protocols, "_nominal_parts", logged_parts)
    spec, cfg = nominal_spec("CAP"), IntegratorConfig(steps_per_pulse=2 * integrator._BLOCK + 1000)
    for sigma, parts in ((0.0, ["envelope", "detuning"]), (0.2, ["envelope", "tanh", "detuning"])):
        sampled.clear()
        shapes = functools.lru_cache(maxsize=1)(functools.partial(protocols.nominal_pulses, keep=True))
        for alpha in (0.9, 1.1):  # two points of one shape: the second reads what the first kept
            propagate_sequence(apply_errors(spec, ErrorVector(alpha=alpha, sigma=sigma), shapes), cfg)
        # each part once per pulse and block, three blocks a pulse
        assert [name for name, *_ in sampled] == parts * spec.pulse_count * 3
        assert len(set(sampled)) == len(sampled)


# ------------------------------------------------------------ long windows

# four blocks, the last one short
LONG_STEPS = 3 * integrator._BLOCK + 1234
LONG_ERRORS = ErrorVector(alpha=1.07, delta=0.1, eta=0.05, sigma=0.1)


def long_pulse(kind="UCP"):
    """A pulse with a drive phase, every error channel on and its own center."""
    return apply_errors(nominal_spec(kind), LONG_ERRORS).pulses[1 if kind in ("CAP", "UCP") else 0]


def bits(u):
    return np.array([u.a, u.b]).tobytes()


def test_blocked_propagation_is_bitwise_on_repeat_and_with_one_thread(monkeypatch):
    w = long_pulse()
    u = integrator._propagate_raw(w, LONG_STEPS)
    assert bits(integrator._propagate_raw(w, LONG_STEPS)) == bits(u)
    monkeypatch.setattr(integrator.os, "cpu_count", lambda: 1)
    assert bits(integrator._propagate_raw(w, LONG_STEPS)) == bits(u)


@pytest.mark.parametrize("kind", ("RE", "AF", "STA", "SP", "CAP", "UCP"))
def test_blocked_propagation_agrees_with_one_pass(kind):
    w = long_pulse(kind)
    blocked = integrator._propagate_raw(w, LONG_STEPS)
    h = (w.window[1] - w.window[0]) / LONG_STEPS
    one_pass = integrator._reduce(*integrator._pairs(w, h, *integrator._controls(w, h, 0, LONG_STEPS)))
    assert max(abs(blocked.a - one_pass.a), abs(blocked.b - one_pass.b)) <= 1e-12


def test_blocked_propagation_samples_on_the_calling_thread_in_time_order():
    w = long_pulse("STA")
    calls = []

    def recorded(name, control):
        def sample(t):
            calls.append((name, threading.get_ident(), t.copy()))
            return control(t)

        return sample

    logged = replace(w, rabi=recorded("rabi", w.rabi), detuning=recorded("detuning", w.detuning))
    before = threading.active_count()
    integrator._propagate_raw(logged, LONG_STEPS)
    assert threading.active_count() == before
    assert {ident for _, ident, _ in calls} == {threading.get_ident()}
    assert [name for name, _, _ in calls] == ["rabi", "detuning"] * 4
    rabi_times = [t for name, _, t in calls if name == "rabi"]
    assert [len(t) for t in rabi_times] == [integrator._BLOCK] * 3 + [1234]
    assert all(np.array_equal(t_rabi, t_det) for (_, _, t_rabi), (_, _, t_det) in zip(calls[::2], calls[1::2]))
    # the midpoints of one pass over the window, bit for bit
    t0, t1 = w.window
    midpoints = t0 + (np.arange(LONG_STEPS) + 0.5) * ((t1 - t0) / LONG_STEPS)
    assert np.concatenate(rabi_times).tobytes() == midpoints.tobytes()


def test_blocked_propagation_uses_at_most_a_thread_per_block_and_cpu(monkeypatch):
    made = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(integrator, "ThreadPoolExecutor", Recorded)
    w = long_pulse()
    want = bits(integrator._propagate_raw(w, LONG_STEPS))
    first = min(4, os.cpu_count() or 1)
    for cpus in (1, 3, 64, None):
        monkeypatch.setattr(integrator.os, "cpu_count", lambda cpus=cpus: cpus)
        assert bits(integrator._propagate_raw(w, LONG_STEPS)) == want
    assert made == [first, 1, 3, 4, 1]
    # one block starts no executor
    integrator._propagate_raw(w, integrator._BLOCK)
    assert len(made) == 5
    # a pool worker process leaves the cores to its pool
    monkeypatch.setattr(integrator.multiprocessing, "parent_process", lambda: object())
    assert bits(integrator._propagate_raw(w, LONG_STEPS)) == want
    assert len(made) == 5


def test_blocked_propagation_raises_a_worker_error_here_and_leaves_no_thread():
    w = long_pulse("RE")
    t_bad = w.window[0] + 0.9 * (w.window[1] - w.window[0])  # inside the last block
    broken = replace(w, rabi=lambda t: np.where(t > t_bad, np.nan, w.rabi(t)))
    before = threading.active_count()
    with pytest.raises(InvalidWaveform):
        integrator._propagate_raw(broken, LONG_STEPS)
    assert threading.active_count() == before


def test_blocked_propagation_is_followed_by_a_clean_pool_sweep(monkeypatch):
    # a forked pool worker that tried to start threads would fail the sweep
    parent = os.getpid()

    class ParentOnly(ThreadPoolExecutor):
        def __init__(self, max_workers):
            if os.getpid() != parent:
                raise AssertionError("a pool worker started threads")
            super().__init__(max_workers)

    monkeypatch.setattr(integrator, "ThreadPoolExecutor", ParentOnly)
    before = threading.active_count()
    integrator._propagate_raw(long_pulse(), LONG_STEPS)
    assert threading.active_count() == before
    cfg = IntegratorConfig(steps_per_pulse=integrator._BLOCK + 100)
    axis = SweepAxis("alpha", 0.9, 1.1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pooled = sweep1d(nominal_spec("RE"), axis, cfg=cfg, workers=2)
    assert pooled.values == sweep1d(nominal_spec("RE"), axis, cfg=cfg).values


@pytest.mark.parametrize("kind", ("SP", "UCP"))
def test_traced_certified_simulate_samples_blocks_in_order_on_the_main_thread(kind, monkeypatch, capsys):
    # the benchmark's traced runs wrap every pulse's controls the same way, and
    # fail when two runs of the same inputs count different calls
    calls = []

    def traced(name, control):
        def sample(t):
            on_main = threading.current_thread() is threading.main_thread()
            calls.append((name, np.size(t), on_main, float(np.ravel(t)[0])))
            return control(t)

        return sample

    def traced_apply_errors(*args, **kwargs):
        seq = apply_errors(*args, **kwargs)
        return type(seq)(
            tuple(replace(w, rabi=traced("rabi", w.rabi), detuning=traced("detuning", w.detuning)) for w in seq.pulses)
        )

    monkeypatch.setattr(cli, "apply_errors", traced_apply_errors)
    steps = 2 * integrator._BLOCK + 1000
    argv = ["simulate", "--protocol", kind, "--alpha=1.07", "--delta=0.1", "--eta=0.05", "--sigma=0.1"]
    argv += [f"--steps-per-pulse={steps}", "--convergence-tol=1e-6"]
    before = threading.active_count()
    runs = []
    for _ in range(2):
        calls.clear()
        assert cli.main(argv) == 0
        runs.append([(name, n) for name, n, _, _ in calls])
        assert all(on_main for _, _, on_main, _ in calls)
    assert threading.active_count() == before
    assert runs[0] == runs[1]
    assert capsys.readouterr().out.count("P = ") == 2

    def blocks(n):
        sizes = [integrator._BLOCK] * (n // integrator._BLOCK) + [n % integrator._BLOCK]
        return [(name, size) for size in sizes for name in ("rabi", "detuning")]

    # the first pulse is certified at twice the steps, and the rest share its shape
    propagations = [steps, 2 * steps] + [steps] * (nominal_spec(kind).pulse_count - 1)
    stepped = [call for n in propagations for call in blocks(n)]
    assert runs[0][: len(stepped)] == stepped
    # each propagation samples its blocks in time order, rabi and detuning from the same first time
    first = 0
    for n in propagations:
        starts = [t for _, _, _, t in calls[first : first + len(blocks(n))]]
        assert starts[0::2] == starts[1::2]
        assert all(a < b for a, b in zip(starts[0::2], starts[2::2]))
        first += len(blocks(n))


def test_integrator_config_invariants():
    from pulselab.core import InvalidParameter

    with pytest.raises(InvalidParameter):
        IntegratorConfig(steps_per_pulse=50)
    with pytest.raises(InvalidParameter):
        IntegratorConfig(steps_per_pulse=1)
    with pytest.raises(InvalidParameter):
        IntegratorConfig(unitarity_tol=0.0)


def test_step_count_is_bounded_before_anything_is_sampled(monkeypatch, capsys):
    from pulselab.cli import main
    from pulselab.core import InvalidParameter

    def no_sampling(*args, **kwargs):
        raise AssertionError("controls were sampled")

    monkeypatch.setattr(integrator, "_controls", no_sampling)
    too_many = integrator.MAX_STEPS_PER_PULSE + 1
    with pytest.raises(InvalidParameter, match=f"steps_per_pulse must be in \\[100, {too_many - 1}\\], got {too_many}"):
        IntegratorConfig(steps_per_pulse=too_many)
    assert main(["simulate", "--protocol", "STA", "--steps-per-pulse", str(too_many)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: steps_per_pulse must be in [100, ")
    # the largest run of this suite, 500 000 steps, fits with room to spare
    assert 8 * 500_000 <= integrator.MAX_STEPS_PER_PULSE


@given(
    st.floats(0.1, 6.0),
    st.floats(-6.0, 6.0),
    st.floats(0.0, 2.0 * np.pi),
)
@settings(max_examples=10, deadline=None)
def test_unitarity_for_random_chirped_gaussians(om_mult, beta, phase):
    w = Waveform(
        rabi=lambda t: om_mult * SQRT_PI * np.exp(-(t**2)),
        detuning=lambda t: beta * t,
        phase=phase,
        window=(-6.0, 6.0),
    )
    u = propagate(w, IntegratorConfig(steps_per_pulse=1000))
    assert unitarity_defect(u) < 1e-10
    assert 0.0 <= min(transition_probability(u), 1.0)
