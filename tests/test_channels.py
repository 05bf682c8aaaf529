"""Error-channel transformations and their invariants."""
import functools
import hashlib

import numpy as np
import pytest

from pulselab.channels import ErrorVector, LengthMismatch, apply_errors
from pulselab.core import InvalidParameter, sequence_area, transition_probability
from pulselab.integrator import propagate_sequence
from pulselab.protocols import PROTOCOL_KINDS, mixing_angle_rate, nominal_pulses, nominal_spec
from pulselab.sweep import SweepAxis, half_width, sweep1d

RE = nominal_spec("RE")
UCP = nominal_spec("UCP")
STA = nominal_spec("STA")
SP = nominal_spec("SP")

# closed-form resonant transfer at alpha = 0.9: sin^2(0.9 * pi / 2)
RE_ALPHA_09 = 0.9755282581475768


def _samples(seq, n=257):
    out = []
    for w in seq.pulses:
        t = np.linspace(w.window[0], w.window[1], n)
        out.append((np.asarray(w.rabi(t), dtype=complex), np.asarray(w.detuning(t), dtype=float)))
    return out


@pytest.mark.parametrize("kind", ["RE", "AF", "STA", "SP", "CAP", "UCP"])
def test_default_vector_reproduces_nominal_bitwise(kind):
    spec = nominal_spec(kind)
    nominal = apply_errors(spec)
    perturbed = apply_errors(spec, ErrorVector())
    for (r0, d0), (r1, d1) in zip(_samples(nominal), _samples(perturbed)):
        assert np.array_equal(r0, r1)
        assert np.array_equal(d0, d1)
    assert [w.phase for w in nominal.pulses] == [w.phase for w in perturbed.pulses]
    assert [w.window for w in nominal.pulses] == [w.window for w in perturbed.pulses]


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.7])
def test_alpha_area_law_for_resonant_pulse(fast_cfg, alpha):
    seq = apply_errors(RE, ErrorVector(alpha=alpha))
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert p == pytest.approx(np.sin(alpha * np.pi / 2.0) ** 2, abs=1e-8)


def test_alpha_09_frozen_value(fast_cfg):
    seq = apply_errors(RE, ErrorVector(alpha=0.9))
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert p == pytest.approx(RE_ALPHA_09, abs=1e-8)


def test_duration_area_law_for_resonant_pulse(fast_cfg):
    seq = apply_errors(RE, ErrorVector(duration_factor=0.8))
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert p == pytest.approx(np.sin(0.8 * np.pi / 2.0) ** 2, abs=1e-8)


def test_shape_error_leaves_resonant_transfer_unchanged(fast_cfg):
    p0 = transition_probability(propagate_sequence(apply_errors(RE), fast_cfg))
    p1 = transition_probability(propagate_sequence(apply_errors(RE, ErrorVector(sigma=0.5)), fast_cfg))
    assert abs(p1 - p0) <= 1e-6


def test_far_detuned_limit(fast_cfg):
    p = transition_probability(propagate_sequence(apply_errors(RE, ErrorVector(delta=20.0)), fast_cfg))
    assert p < 0.05


# --------------------------------------------------------- area preservation


def _area_change(spec, sigma):
    """Relative change of the total envelope area under the shape distortion."""
    a0 = sequence_area(apply_errors(spec))
    return abs(sequence_area(apply_errors(spec, ErrorVector(sigma=sigma))) - a0) / a0


def test_area_preservation_zero_sigma():
    assert _area_change(RE, 0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("sigma", [0.5, 0.9])
def test_tanh_distortion_preserves_gaussian_area(sigma):
    assert _area_change(RE, sigma) <= 1e-8


def test_tanh_distortion_preserves_shaped_pulse_area():
    assert _area_change(SP, 0.5) <= 1e-8


def test_tanh_distortion_preserves_composite_areas():
    assert _area_change(UCP, 0.7) <= 1e-8


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_sigma_lowers_each_envelope_before_its_centre_and_raises_it_after(kind):
    # the mirror identity cannot see sigma's sign: this holds it for every pulse
    spec = nominal_spec(kind)
    clean, distorted = apply_errors(spec), apply_errors(spec, ErrorVector(sigma=0.5))
    for w0, w1 in zip(clean.pulses, distorted.pulses):
        t = 0.5 * (w0.window[0] + w0.window[1]) + np.array([-0.5, 0.5]) * spec.T  # t_k -/+ T/2
        ratio = np.real(w1.rabi(t)) / np.real(w0.rabi(t))
        np.testing.assert_allclose(ratio, 1.0 + 0.5 * np.tanh([-0.5, 0.5]), rtol=1e-12)


# ----------------------------------------------------------- channel algebra


def test_alpha_and_delta_apply_independently():
    both = apply_errors(RE, ErrorVector(alpha=0.8, delta=0.3))
    only_alpha = apply_errors(RE, ErrorVector(alpha=0.8))
    t = np.linspace(-6.0, 6.0, 129)
    np.testing.assert_array_equal(
        np.asarray(both.pulses[0].rabi(t)), np.asarray(only_alpha.pulses[0].rabi(t))
    )
    np.testing.assert_array_equal(
        np.asarray(both.pulses[0].detuning(t)),
        np.asarray(only_alpha.pulses[0].detuning(t)) + 0.3,
    )


def test_eta_centering_matters_for_composites(fast_cfg):
    per_pulse = apply_errors(UCP, ErrorVector(eta=0.5))
    common = apply_errors(UCP, ErrorVector(eta=0.5, centering="global"))
    p1 = transition_probability(propagate_sequence(per_pulse, fast_cfg))
    p2 = transition_probability(propagate_sequence(common, fast_cfg))
    assert abs(p1 - p2) > 1e-6


def test_centering_is_irrelevant_for_a_centered_single_pulse(fast_cfg):
    p1 = transition_probability(
        propagate_sequence(apply_errors(RE, ErrorVector(eta=0.5, sigma=0.3)), fast_cfg)
    )
    p2 = transition_probability(
        propagate_sequence(apply_errors(RE, ErrorVector(eta=0.5, sigma=0.3, centering="global")), fast_cfg)
    )
    assert p1 == pytest.approx(p2, abs=1e-12)


# -------------------------------------------------------------- phase errors


def test_phase_offsets_length_mismatch():
    with pytest.raises(LengthMismatch):
        apply_errors(UCP, ErrorVector(phase_offsets=(0.1, 0.2)))


def test_phase_offset_invisible_for_single_pulse(fast_cfg):
    p0 = transition_probability(propagate_sequence(apply_errors(RE), fast_cfg))
    p1 = transition_probability(
        propagate_sequence(apply_errors(RE, ErrorVector(phase_offsets=(0.7,))), fast_cfg)
    )
    assert p1 == pytest.approx(p0, abs=1e-12)


def test_phase_offset_shrinks_composite_robustness(fast_cfg):
    # composite phases are the control parameters: offsetting them narrows
    # the amplitude-error plateau even though the nominal point stays perfect
    axis = SweepAxis("alpha", 0.5, 1.5, 81)
    base = sweep1d(UCP, axis, ErrorVector(), fast_cfg)
    off = sweep1d(UCP, axis, ErrorVector(phase_offsets=(0.0, 0.3, 0.0, 0.0, 0.0)), fast_cfg)
    hw_base, _, _ = half_width(axis.values(), base.values, 1.0, 0.99)
    hw_off, _, _ = half_width(axis.values(), off.values, 1.0, 0.99)
    assert hw_off < hw_base


# ------------------------------------------------------ counterdiabatic case


def test_sta_shortcut_frozen_under_errors():
    err = ErrorVector(alpha=0.7, duration_factor=1.3, delta=0.5)
    seq = apply_errors(STA, err)
    t = np.array([0.0, 0.3])
    got = np.asarray(seq.pulses[0].rabi(t)).imag
    frozen = 2.0 * mixing_angle_rate(t, *STA.sta_nominal)
    np.testing.assert_allclose(got, 0.7 * frozen, rtol=1e-12)


def test_sta_alpha_switch_spares_shortcut():
    err = ErrorVector(alpha=0.0, sta_alpha_scales_shortcut=False)
    seq = apply_errors(STA, err)
    t = np.array([0.0, 0.3])
    vals = np.asarray(seq.pulses[0].rabi(t))
    np.testing.assert_allclose(vals.imag, 2.0 * mixing_angle_rate(t, *STA.sta_nominal), rtol=1e-12)
    np.testing.assert_allclose(vals.real, 0.0, atol=1e-300)


def test_sta_shape_error_distorts_main_field_only():
    seq = apply_errors(STA, ErrorVector(sigma=0.8))
    base = apply_errors(STA)
    t = np.array([-0.9, 0.4, 1.2])
    distorted = np.asarray(seq.pulses[0].rabi(t))
    clean = np.asarray(base.pulses[0].rabi(t))
    np.testing.assert_array_equal(distorted.imag, clean.imag)
    np.testing.assert_allclose(distorted.real, clean.real * (1.0 + 0.8 * np.tanh(t)), rtol=1e-12)


def test_perturbed_composite_against_adaptive_rk(mid_cfg):
    # whole pipeline (build, perturb, per-pulse physics, phase imprint,
    # composition) against the independent adaptive-RK oracle
    from conftest import solve_ivp_ck
    from pulselab.core import CKPropagator, compose

    err = ErrorVector(alpha=0.85, delta=0.4, sigma=0.3, phase_offsets=(0.0, 0.1, 0.0, -0.1, 0.0))
    seq = apply_errors(UCP, err)
    u = propagate_sequence(seq, mid_cfg)
    ref = None
    for w in seq.pulses:
        a, b = solve_ivp_ck(w)
        step = CKPropagator(a, b)
        ref = step if ref is None else compose(step, ref)
    assert abs(u.a - ref.a) < 1e-6
    assert abs(u.b - ref.b) < 1e-6


def test_residual_chirp_keeps_resonant_transfer_high(fast_cfg):
    # unwanted chirp effectively turns the resonant pulse adiabatic, so the
    # transfer stays high over a sizable range before degrading
    p1 = transition_probability(
        propagate_sequence(apply_errors(RE, ErrorVector(eta=1.0)), fast_cfg)
    )
    p4 = transition_probability(
        propagate_sequence(apply_errors(RE, ErrorVector(eta=4.0)), fast_cfg)
    )
    assert 0.985 <= p1 <= 0.995
    assert 0.70 <= p4 <= 0.75


def test_sp_schedule_follows_duration_error():
    # rescaled width T' stretches the schedule: controls scale as f(t/c)/c
    c = 1.3
    base = apply_errors(SP).pulses[0]
    wide = apply_errors(SP, ErrorVector(duration_factor=c)).pulses[0]
    t = np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(
        np.asarray(wide.rabi(t * c), dtype=float),
        np.asarray(base.rabi(t), dtype=float) / c,
        rtol=1e-12,
        atol=1e-12,  # detuning and envelope cross zero inside the window
    )
    np.testing.assert_allclose(
        np.asarray(wide.detuning(t * c), dtype=float),
        np.asarray(base.detuning(t), dtype=float) / c,
        rtol=1e-12,
        atol=1e-12,
    )


def test_sta_survives_extreme_duration_error(fast_cfg):
    # frozen shortcut sampled far outside its own width underflows cleanly
    seq = apply_errors(STA, ErrorVector(duration_factor=5.0))
    p = transition_probability(propagate_sequence(seq, fast_cfg))
    assert 0.52 < p < 0.56  # converged reference 0.53727


# ----------------------------------------------------------------- invariants


def test_error_vector_invariants():
    with pytest.raises(InvalidParameter):
        ErrorVector(alpha=-0.1)
    with pytest.raises(InvalidParameter):
        ErrorVector(duration_factor=0.0)
    for bad in ({"alpha": np.inf}, {"alpha": np.nan}, {"duration_factor": np.inf}):
        with pytest.raises(InvalidParameter):
            ErrorVector(**bad)
    with pytest.raises(InvalidParameter):
        ErrorVector(sigma=1.0)
    with pytest.raises(InvalidParameter):
        ErrorVector(sigma=-1.0)
    with pytest.raises(InvalidParameter):
        ErrorVector(centering="sideways")
    assert ErrorVector(sigma=0.999).sigma == pytest.approx(0.999)


# ------------------------------------------------------------- control bits

_BIT_VECTORS = {
    "nominal": ErrorVector(),
    "mixed": ErrorVector(alpha=1.07, duration_factor=0.93, delta=0.1, eta=0.05, sigma=0.1),
    "global": ErrorVector(
        alpha=0.9, duration_factor=1.1, delta=-0.2, eta=0.07, sigma=-0.3,
        centering="global", sta_alpha_scales_shortcut=False,
    ),
}
_BIT_OFFSETS = {"CAP": (0.05, -0.1, 0.2), "UCP": (0.05, -0.1, 0.2, 0.0, -0.3)}

# SHA-256 of every pulse's rabi and detuning samples (dtype and bytes) on the
# integrator's 4000-step midpoint grid, then its phase and window, recorded
# from the sequence builder as it stood before the error channels moved into
# apply_errors; the SP entries since its harmonics are summed by angle
# addition (see protocols._harmonics).  A change of any control bit changes
# these.
_CONTROL_DIGESTS = {
    ("RE", "nominal"): "4b1b8eac7b630dc9d270e2ef6ffdc12583a378e99eca19e3f64af17a6bcbe18c",
    ("RE", "mixed"): "2e44ada80d7daaf3f29744b448de5a585ca273839b5838957fd0d93d360271af",
    ("RE", "global"): "f6b69c3267a98c71c339b5751d40224e851afdd648c10e3dd12da551177917f9",
    ("AF", "nominal"): "91db17aecc6b06430916fbf452667db5c2fc2bf43d2d0e619a953d86951a061a",
    ("AF", "mixed"): "afb3c1f7427accb05d7d99c6575f0a6cec86d76c333bdc7d33ab8e43a6b1a5d1",
    ("AF", "global"): "36d9ae4e5b45752e6fede72359410672ea1b555e4c1121db319467fdaafe273e",
    ("STA", "nominal"): "ffe47d979dd0fed60f3dbb503439753a4c74dc78a928cf5268a64a965578099d",
    ("STA", "mixed"): "5bbc8f5a6f540f64682df8a8fa9df17aaeabd5f0c5a75f7a6bcb742641a2f32c",
    ("STA", "global"): "744262a7455640ba57a6453bce492a1942f32d189147ce21f3f0c4e5a1706c94",
    ("SP", "nominal"): "e0a3bdfb1b54c80ce9591c9164d40b82d4dabb906347274200355f7210057b8c",
    ("SP", "mixed"): "ef24e833f69eefa20df5bc5d99f881b3d25c12d55e2961c3dd2f841e6e021577",
    ("SP", "global"): "553c6893eb1ce73d17c8c584ad38f8a050529d5a6d517e56625429601de8f864",
    ("CAP", "nominal"): "9cc525496afcbe9ee4993b270404adf30778d4038fb88f211ee2427115c80d8c",
    ("CAP", "mixed"): "a02e7f449b28caa417d07d68a344938abcd5d77b245d854aede04018bfe464dd",
    ("CAP", "global"): "7710861632f68048c016b467b979f1eaea72d4378b7d410293b0afa6a34f7ac3",
    ("CAP", "phases"): "b8d50d4a0efeebcb37b35203a782874ae3b5c6606a2bdd0a384ef10408229fa1",
    ("UCP", "nominal"): "437de1dd47b03be02aeb0bad076b4a8dda9339f56e3b73ff2ff203d7824c6ca0",
    ("UCP", "mixed"): "36eab067653353803774aaab25cee1d9607999b972b0bf9997e791529e2a00f9",
    ("UCP", "global"): "03ab71ce00ac92fc3e05d502514f4d9e3a2b1d7556a82a6c34e3a6d07cb0a05e",
    ("UCP", "phases"): "42d1c495e2682beed3d070d35f63e70a21f831e1d10813fcf3999af60228410c",
}


def _control_digest(seq, steps=4000):
    h = hashlib.sha256()
    for w in seq.pulses:
        t0, t1 = w.window
        t = t0 + (np.arange(steps) + 0.5) * ((t1 - t0) / steps)
        for out in (np.asarray(w.rabi(t)), np.asarray(w.detuning(t))):
            h.update(out.dtype.str.encode())
            h.update(out.tobytes())
        h.update(np.array([w.phase, t0, t1]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, vector", sorted(_CONTROL_DIGESTS), ids=[f"{k}-{v}" for k, v in sorted(_CONTROL_DIGESTS)])
def test_control_bits_are_pinned(kind, vector):
    spec = nominal_spec(kind)
    if vector == "phases":
        err = ErrorVector(alpha=0.95, sigma=0.2, phase_offsets=_BIT_OFFSETS[kind])
    else:
        err = _BIT_VECTORS[vector]
    want = _CONTROL_DIGESTS[kind, vector]
    assert _control_digest(apply_errors(spec, err)) == want
    seq = apply_errors(spec, err, functools.partial(nominal_pulses, keep=True))
    # the second pass reads every nominal part its pulse kept
    assert _control_digest(seq) == _control_digest(seq) == want
