"""Technique shapes: areas, nominal transfers, counterdiabatic identities."""
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.integrate import simpson

from conftest import solve_ivp_ck
from pulselab.channels import apply_errors
from pulselab.core import InvalidParameter, InvalidWaveform, Waveform, pulse_area, sequence_area, transition_probability
from pulselab.integrator import IntegratorConfig, propagate, propagate_sequence
from pulselab.protocols import (
    A7_COEFFS,
    CAP_PHASES,
    PROTOCOL_KINDS,
    SQRT_PI,
    UCP_PHASES,
    ProtocolSpec,
    adiabaticity_margin,
    mixing_angle_rate,
    nominal_spec,
)

# Converged nominal transfer of the chirped Gaussian at omega0 = 5*sqrt(pi)/T,
# beta = 4/T (window and step independent, cross-checked against DOP853).
AF_NOMINAL_P = 0.9843475027


def test_re_area_and_transfer(fast_cfg):
    seq = apply_errors(nominal_spec("RE"))
    assert sequence_area(seq) == pytest.approx(np.pi, rel=1e-8)
    assert transition_probability(propagate_sequence(seq, fast_cfg)) == pytest.approx(1.0, abs=1e-6)
    half = apply_errors(ProtocolSpec("RE", SQRT_PI / 2.0, 1.0))
    p = transition_probability(propagate_sequence(half, fast_cfg))
    assert p == pytest.approx(np.sin(np.pi / 4) ** 2, abs=1e-8)


def test_builders_reject_nonpositive_parameters():
    with pytest.raises(InvalidParameter):
        ProtocolSpec("RE", -1.0, 1.0)
    with pytest.raises(InvalidParameter):
        ProtocolSpec("AF", 1.0, 0.0, beta=4.0)
    for omega0, T in ((np.inf, 1.0), (np.nan, 1.0), (SQRT_PI, np.inf)):
        with pytest.raises(InvalidParameter):
            ProtocolSpec("RE", omega0, T)
    with pytest.raises(InvalidParameter):
        ProtocolSpec("XX", 1.0, 1.0)
    for frozen in ((0.0, 4.0, 1.0), (SQRT_PI, np.nan, 1.0), (SQRT_PI, 4.0, -1.0), (SQRT_PI, 4.0)):
        with pytest.raises(InvalidParameter, match="sta_nominal"):
            ProtocolSpec("STA", SQRT_PI, 1.0, beta=4.0, sta_nominal=frozen)


def test_af_chirp_free_limit_is_resonant(fast_cfg):
    seq = apply_errors(ProtocolSpec("AF", SQRT_PI / 2.0, 1.0, beta=0.0))
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert p == pytest.approx(np.sin(np.pi / 4) ** 2, abs=1e-8)


def test_af_nominal_satisfies_adiabatic_condition():
    spec = nominal_spec("AF")
    assert spec.omega0 * np.sqrt(2.0) > spec.beta > 2.0 / spec.T


def test_af_nominal_transfer_cross_checked(mid_cfg):
    seq = apply_errors(nominal_spec("AF"))
    p = transition_probability(propagate_sequence(seq, mid_cfg))
    a_ref, b_ref = solve_ivp_ck(seq.pulses[0])
    assert p == pytest.approx(abs(b_ref) ** 2, abs=1e-7)
    assert p == pytest.approx(AF_NOMINAL_P, abs=1e-6)


@pytest.mark.parametrize("builder", [
    lambda: apply_errors(nominal_spec("STA")),
    lambda: apply_errors(nominal_spec("SP")),
], ids=["sta", "sp"])
def test_single_pulse_techniques_against_adaptive_rk(mid_cfg, builder):
    # complex-envelope and shaped drives through the independent oracle
    seq = builder()
    u = propagate_sequence(seq, mid_cfg)
    a_ref, b_ref = solve_ivp_ck(seq.pulses[0])
    assert abs(u.a - a_ref) < 1e-6
    assert abs(u.b - b_ref) < 1e-6


# ------------------------------------------------------------------- shortcut


def test_sta_nominal_transfer(fast_cfg):
    seq = apply_errors(nominal_spec("STA"))
    assert transition_probability(propagate_sequence(seq, fast_cfg)) >= 1.0 - 1e-6


def test_mixing_angle_rate_closed_form_at_zero():
    # theta_dot(0) = -beta / (2 * omega0 * T)
    val = mixing_angle_rate(np.array([0.0]), SQRT_PI, 4.0, 1.0)[0]
    assert val == pytest.approx(-2.0 / SQRT_PI, rel=1e-12)
    assert val == pytest.approx(-1.1283791670955126, rel=1e-12)


def test_mixing_angle_rate_integrates_to_minus_half_pi():
    t = np.linspace(-6.0, 6.0, 200001)
    total = simpson(mixing_angle_rate(t, SQRT_PI, 4.0, 1.0), x=t)
    assert total == pytest.approx(-np.pi / 2.0, abs=1e-6)


def test_shortcut_term_area_is_pi():
    area = pulse_area(lambda t: 2.0 * mixing_angle_rate(t, SQRT_PI, 4.0, 1.0), (-6.0, 6.0))
    assert area == pytest.approx(np.pi, abs=1e-6)


@given(
    st.floats(0.8, 3.0),
    st.floats(0.5, 6.0),
    st.floats(0.5, 2.0),
)
@settings(max_examples=8, deadline=None)
def test_sta_exact_when_frozen_equals_live(om_mult, beta, T):
    seq = apply_errors(ProtocolSpec("STA", om_mult * SQRT_PI / T, T, beta=beta / T))
    cfg = IntegratorConfig(steps_per_pulse=4000)
    assert transition_probability(propagate_sequence(seq, cfg)) >= 1.0 - 1e-6


@given(st.floats(0.8, 3.0), st.floats(0.5, 6.0), st.floats(0.5, 2.0))
@settings(max_examples=15, deadline=None)
def test_shortcut_area_is_pi_for_sampled_triples(om_mult, beta, T):
    area = pulse_area(
        lambda t: 2.0 * mixing_angle_rate(t, om_mult * SQRT_PI / T, beta / T, T),
        (-6.0 * T, 6.0 * T),
    )
    assert area == pytest.approx(np.pi, abs=1e-6)


def test_sta_uses_frozen_triple_for_shortcut_shape():
    frozen = (SQRT_PI, 4.0, 1.0)
    seq = apply_errors(ProtocolSpec("STA", 2.0 * SQRT_PI, 1.3, beta=2.5, sta_nominal=frozen))
    t = np.array([0.0, 0.4])
    got = np.asarray(seq.pulses[0].rabi(t)).imag
    expected = 2.0 * mixing_angle_rate(t, *frozen)
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    # detuning keeps the live chirp
    d = np.asarray(seq.pulses[0].detuning(np.array([1.3])))[0]
    assert d == pytest.approx(2.5 * 1.3 / 1.3, rel=1e-12)


# --------------------------------------------------------------- shaped pulse


def test_sp_area_and_transfer(fast_cfg):
    seq = apply_errors(nominal_spec("SP"))
    assert sequence_area(seq) == pytest.approx(3.86 * np.pi, rel=0.01)
    assert transition_probability(propagate_sequence(seq, fast_cfg)) >= 1.0 - 1e-4


def test_sp_controls_finite_and_continuous_on_closed_window():
    w = apply_errors(nominal_spec("SP")).pulses[0]
    jumps = {}
    for n in (40001, 80001):
        t = np.linspace(-6.0, 6.0, n)
        om = np.asarray(w.rabi(t), dtype=float)
        de = np.asarray(w.detuning(t), dtype=float)
        assert np.all(np.isfinite(om)) and np.all(np.isfinite(de))
        jumps[n] = (np.max(np.abs(np.diff(om))), np.max(np.abs(np.diff(de))))
    # Lipschitz continuity: the largest jump halves when sampling doubles
    for k in (0, 1):
        assert 0.4 < jumps[80001][k] / jumps[40001][k] < 0.6
    t = np.array([-6.0, 6.0])
    assert np.max(np.abs(np.asarray(w.rabi(t)))) < 1e-12


def test_erf_is_scipys_bit_for_bit():
    import warnings

    from scipy.special import erf as scipy_erf

    from pulselab.protocols import erf

    tiny = np.finfo(float).smallest_normal
    special = [0.0, 30.0, np.inf, 5e-324, 1e-310, np.nextafter(tiny, 0.0), tiny]
    for edge in (1.0, 8.0):  # the branch edges, each +-1 ulp
        special += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]
    x = np.array(special)
    rng = np.random.default_rng(20130731)
    samples = [np.concatenate([x, -x])] + [scale * rng.standard_normal(100_000) for scale in (0.5, 2.0, 4.0)]
    # the shaped pulse's schedule: a real vectorised exp moves some of these by an ulp
    samples.append(np.linspace(-6.0, 6.0, 32768))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in samples:
            assert erf(x).view(np.uint64).tobytes() == scipy_erf(x).view(np.uint64).tobytes()
        assert np.signbit(erf(np.array([0.0, -0.0]))).tolist() == [False, True]
        assert np.isnan(erf(np.array([np.nan, -np.nan]))).all()


def _sp_controls_one_at_a_time(T, coeffs):
    """The shaped-pulse formulas as each control evaluated them on its own."""
    from scipy.special import erf

    def schedule(t):
        th = np.clip(0.5 * np.pi * (erf(t / T) + 1.0), 0.0, np.pi)
        sin_th, cos_th = np.sin(th), np.cos(th)
        # cos(2 n th) and sin(2 n th) by angle addition from the double angle
        cos_2, sin_2 = 1.0 - 2.0 * sin_th * sin_th, 2.0 * sin_th * cos_th
        cos_2n, sin_2n = cos_2, sin_2
        g, gp = np.full_like(th, 2.0), np.zeros_like(th)
        for n, c in enumerate(coeffs, 1):
            if n > 1:
                cos_2n, sin_2n = cos_2n * cos_2 - sin_2n * sin_2, sin_2n * cos_2 + cos_2n * sin_2
            g += (2.0 * n * c) * cos_2n
            gp -= (4.0 * n * n * c) * sin_2n
        return sin_th, cos_th, g, gp, (SQRT_PI / T) * np.exp(-((t / T) ** 2))

    def envelope(t):
        sin_th, _, g, _, td = schedule(t)
        x = sin_th * g
        return td * np.sqrt(1.0 + x * x)

    def detuning(t):
        sin_th, cos_th, g, gp, td = schedule(t)
        x = sin_th * g
        phi_dot = -td * (cos_th * g + sin_th * gp) / (1.0 + x * x)
        return phi_dot - td * g * cos_th

    return envelope, detuning


EIGHT_COEFFS = (-3.46, -1.365, -0.5, 0.2, -0.1, 0.05, -0.02, 0.01)


@pytest.mark.parametrize("coeffs", (A7_COEFFS, EIGHT_COEFFS), ids=("A7", "eight"))
def test_sp_harmonics_by_angle_addition_match_the_trig_functions(coeffs):
    from pulselab.protocols import _harmonics, _sp_shape_functions

    th = np.linspace(0.0, np.pi, 10001)
    harmonics = [h for _, h in zip(coeffs, _harmonics(np.sin(th), np.cos(th)))]
    for n, (cos_2n, sin_2n) in enumerate(harmonics, 1):
        assert np.max(np.abs(cos_2n - np.cos(2.0 * n * th))) <= 1e-14 * n
        assert np.max(np.abs(sin_2n - np.sin(2.0 * n * th))) <= 1e-14 * n
    # and the controls are built from exactly these harmonics
    t = np.linspace(-6.0, 6.0, 4001)
    for control, reference in zip(_sp_shape_functions(1.0, coeffs), _sp_controls_one_at_a_time(1.0, coeffs)):
        assert control(t).tobytes() == reference(t).tobytes()


def test_sp_controls_share_one_schedule_per_time_array(monkeypatch):
    from pulselab import protocols

    erf_sizes = []
    erf = protocols.erf
    monkeypatch.setattr(protocols, "erf", lambda x: erf_sizes.append(x.size) or erf(x))
    T = 0.93
    env, det = protocols._sp_shape_functions(T, A7_COEFFS)
    ref_env, ref_det = _sp_controls_one_at_a_time(T, A7_COEFFS)
    for n in (7, 4000, 250_000):
        t = np.linspace(-6.0 * T, 6.0 * T, n) + 0.013
        # either control may be asked for first; the second reuses the schedule
        orders = ((env, det, ref_env, ref_det), (det, env, ref_det, ref_env))
        for first, second, ref_first, ref_second in orders:
            erf_sizes.clear()
            a, b = first(t), second(t.copy())
            assert erf_sizes == [n]
            assert a.tobytes() == ref_first(t).tobytes()
            assert b.tobytes() == ref_second(t).tobytes()
    # a different time array is sampled afresh
    erf_sizes.clear()
    env(t)
    assert det(t[::2]).tobytes() == ref_det(t[::2]).tobytes()
    assert env(t).tobytes() == ref_env(t).tobytes()
    assert erf_sizes == [t.size, t[::2].size, t.size]


def test_sp_controls_hold_nothing_once_both_are_taken():
    import tracemalloc

    from pulselab.protocols import _sp_shape_functions

    env, det = _sp_shape_functions(1.0, A7_COEFFS)
    t = np.linspace(-6.0, 6.0, 100_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for first, second in ((env, det), (det, env)):
            a, b = first(t), second(t)
            del a, b
            assert tracemalloc.get_traced_memory()[0] - base < t.nbytes // 2
    finally:
        tracemalloc.stop()


def test_sp_schedule_lives_and_dies_with_its_sequence():
    import gc
    import tracemalloc

    from pulselab.channels import ErrorVector

    spec = nominal_spec("SP")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for factor in (0.61, 0.83, 0.97, 1.09, 1.37):  # five widths
            w = apply_errors(spec, ErrorVector(duration_factor=factor)).pulses[0]
            pulse_area(w.rabi, w.window)  # the envelope alone: its detuning is held
        del w
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024


def test_sp_zero_coefficients_are_regular():
    from scipy.special import erf

    seq = apply_errors(ProtocolSpec("SP", SQRT_PI, 1.0, sp_coeffs=()))
    t = np.linspace(-6.0, 6.0, 10001)
    rabi, detuning = np.asarray(seq.pulses[0].rabi(t)), np.asarray(seq.pulses[0].detuning(t))
    assert np.all(np.isfinite(rabi)) and np.all(np.isfinite(detuning))
    # g = 2 and g' = 0
    th = np.clip(0.5 * np.pi * (erf(t) + 1.0), 0.0, np.pi)
    td, x = SQRT_PI * np.exp(-(t**2)), 2.0 * np.sin(th)
    assert rabi.tobytes() == (td * np.sqrt(1.0 + x * x)).tobytes()
    assert detuning.tobytes() == (-td * (2.0 * np.cos(th)) / (1.0 + x * x) - td * 2.0 * np.cos(th)).tobytes()


def test_sp_singular_coefficients_raise():
    with pytest.raises(InvalidWaveform, match="not finite"):  # when the spec is made
        ProtocolSpec("SP", SQRT_PI, 1.0, sp_coeffs=(1e200,))


# ----------------------------------------------------------------- composites


def test_cap_canonical_phases_and_area():
    seq = apply_errors(nominal_spec("CAP"))
    assert tuple(p.phase for p in seq.pulses) == CAP_PHASES
    assert sequence_area(seq) == pytest.approx(3 * np.pi, rel=1e-8)


def test_cap_nominal_transfer(fast_cfg):
    p = transition_probability(propagate_sequence(apply_errors(nominal_spec("CAP")), fast_cfg))
    assert p >= 1.0 - 1e-6


def test_cap_chirp_free_zero_phase_limit(fast_cfg):
    # three area-pi pulses, no chirp, no phase structure: total area 3*pi
    spec = ProtocolSpec("CAP", SQRT_PI, 1.0, beta=0.0, phases=(0.0, 0.0, 0.0))
    p = transition_probability(propagate_sequence(apply_errors(spec), fast_cfg))
    assert p == pytest.approx(np.sin(3 * np.pi / 2.0) ** 2, abs=1e-8)


def test_shortcut_rate_underflows_cleanly_far_outside_pulse():
    vals = mixing_angle_rate(np.array([-40.0, 40.0, 150.0]), SQRT_PI, 4.0, 1.0)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) == 0.0


def test_cap_chirp_recentered_per_pulse():
    seq = apply_errors(nominal_spec("CAP"))
    for w in seq.pulses:
        center = 0.5 * (w.window[0] + w.window[1])
        assert np.asarray(w.detuning(np.array([center])))[0] == pytest.approx(0.0, abs=1e-12)


def test_ucp_canonical_phases_and_transfer(fast_cfg):
    seq = apply_errors(nominal_spec("UCP"))
    assert tuple(p.phase for p in seq.pulses) == UCP_PHASES
    assert sequence_area(seq) == pytest.approx(5 * np.pi, rel=1e-8)
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert p >= 1.0 - 1e-6


def test_ucp_full_propagator_phase(fast_cfg):
    # five exact resonant pi pulses compose to b = -i exp(i(f1-f2+f3-f4+f5));
    # pins the sign convention of the generator, not just |b|
    u = propagate_sequence(apply_errors(nominal_spec("UCP")), fast_cfg)
    alternating = sum(s * p for s, p in zip((1, -1, 1, -1, 1), UCP_PHASES))
    expected = -1j * np.exp(1j * alternating)
    assert u.b == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(np.exp(1j * np.pi / 6), abs=1e-12)


def test_resonant_area_law_across_shapes(fast_cfg):
    # the rectangle's support must coincide with its window: an interior
    # discontinuity would degrade midpoint sampling to first order
    area = 1.7
    cases = [
        (lambda t: (area / SQRT_PI) * np.exp(-(t**2)), (-6.0, 6.0)),
        (lambda t: (area / 4.0) + 0.0 * t, (-2.0, 2.0)),
        (lambda t: (area / SQRT_PI) * np.exp(-(t**2)) * (1.0 + 0.6 * np.tanh(t)), (-6.0, 6.0)),
    ]
    for rabi, window in cases:
        w = Waveform(rabi=rabi, detuning=lambda t: 0.0 * t, window=window)
        p = transition_probability(propagate(w, fast_cfg))
        assert p == pytest.approx(np.sin(area / 2.0) ** 2, abs=1e-8)


# ---------------------------------------------------------------- diagnostics


def test_margin_of_constant_resonant_drive():
    w = Waveform(rabi=lambda t: 1.3 + 0.0 * t, detuning=lambda t: 0.0 * t, window=(0.0, 1.0))
    assert adiabaticity_margin(w) == pytest.approx(1.3, abs=1e-6)


def test_margin_positive_for_nominal_af():
    w = apply_errors(nominal_spec("AF")).pulses[0]
    assert adiabaticity_margin(w) > 0.0


def test_margin_rejects_complex_envelope():
    w = apply_errors(nominal_spec("STA")).pulses[0]
    with pytest.raises(InvalidParameter):
        adiabaticity_margin(w)


def test_nominal_specs_and_pulse_counts():
    assert nominal_spec("RE").pulse_count == 1
    assert nominal_spec("CAP").pulse_count == 3
    assert nominal_spec("UCP").pulse_count == 5
    assert nominal_spec("AF").omega0 == pytest.approx(5 * SQRT_PI)
    assert nominal_spec("STA").sta_nominal == (SQRT_PI, 4.0, 1.0)
    with pytest.raises(InvalidParameter):
        ProtocolSpec("RE", SQRT_PI, 1.0, phases=(0.0, 1.0))
    with pytest.raises(InvalidParameter):
        ProtocolSpec("RE", SQRT_PI, 1.0, sta_nominal=(1.0, 1.0, 1.0))
    with pytest.raises(InvalidParameter):
        ProtocolSpec("UCP", SQRT_PI, 1.0, beta=1.0)
    with pytest.raises(InvalidParameter):
        ProtocolSpec("RE", SQRT_PI, 1.0, sp_coeffs=(1.0,))


@pytest.mark.parametrize("T", (1.0, 0.37, 2.5))
def test_nominal_spec_keeps_the_canonical_parameters_bitwise(T):
    # omega0, beta and phases as each technique's own formula gives them
    canonical = {
        "RE": (SQRT_PI / T, 0.0, ()),
        "AF": (5.0 * SQRT_PI / T, 4.0 / T, ()),
        "STA": (SQRT_PI / T, 4.0 / T, ()),
        "SP": (SQRT_PI / T, 0.0, ()),
        "CAP": (SQRT_PI / T, 1.0 / T, CAP_PHASES),
        "UCP": (SQRT_PI / T, 0.0, UCP_PHASES),
    }
    assert PROTOCOL_KINDS == tuple(canonical)
    for kind, (omega0, beta, phases) in canonical.items():
        spec = nominal_spec(kind, T)
        bits = [x.hex() for x in (spec.omega0, spec.T, spec.beta, *spec.phases, *spec.sp_coeffs)]
        assert bits == [x.hex() for x in (omega0, T, beta, *phases, *A7_COEFFS)]
        assert spec.sta_nominal == ((omega0, beta, T) if kind == "STA" else None)
    with pytest.raises(InvalidParameter, match="unknown protocol kind"):
        nominal_spec("XX")
