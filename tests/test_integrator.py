"""Integrator oracles: closed-form Rabi physics and convergence behavior."""
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from conftest import ck_matrix, solve_ivp_ck
from pulselab import cli, integrator
from pulselab.channels import ErrorVector, apply_errors
from pulselab.core import InvalidWaveform, Waveform, transition_probability, unitarity_defect
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
    from pulselab.core import PulseSequence

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
    u = propagate(gaussian_chirped(5 * SQRT_PI, 4.0), IntegratorConfig(steps_per_pulse=4000, renormalize=False))
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
    cfg = IntegratorConfig(steps_per_pulse=4000, convergence_tol=1e-12)
    with pytest.raises(NonConvergent):
        propagate(gaussian_chirped(5 * SQRT_PI, 4.0), cfg)


def test_nan_propagator_fails_both_tolerance_checks(monkeypatch):
    # an overflowing drive gives a NaN pair, whose defect compares False
    # against any tolerance; it must fail the check, not slip through it
    blown = gaussian_chirped(1e200, 0.0)
    for renormalize in (False, True):
        with pytest.raises(UnitarityViolation):
            propagate(blown, IntegratorConfig(steps_per_pulse=400, renormalize=renormalize))
    monkeypatch.setattr(integrator, "convergence_check", lambda *args, **kwargs: float("nan"))
    cfg = IntegratorConfig(steps_per_pulse=400, convergence_tol=1e-8)
    with pytest.raises(NonConvergent):
        propagate(gaussian_chirped(SQRT_PI, 0.0), cfg)


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
    else:
        assert len(estimates) == 1
        assert max(abs(estimates[0] - e) for e in alone) <= 1e-14

    for est in (min(alone), max(alone)):
        for tol in (est * (1 - 1e-6), est * (1 + 1e-6)):
            cfg = replace(plain, convergence_tol=tol)
            if max(alone) > tol:
                with pytest.raises(NonConvergent):
                    propagate_sequence(seq, cfg)
            else:
                propagate_sequence(seq, cfg)


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


from hypothesis import given, settings
import hypothesis.strategies as st


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
    cfg = IntegratorConfig(steps_per_pulse=1000, renormalize=False)
    u = propagate(w, cfg)
    assert unitarity_defect(u) < 1e-10
    assert 0.0 <= min(transition_probability(u), 1.0)
