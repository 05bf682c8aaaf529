"""Cayley-Klein algebra, waveform containers and pulse-area quadrature."""
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pulselab.core import (
    AREA_STEPS,
    IDENTITY,
    CKPropagator,
    InvalidParameter,
    InvalidWaveform,
    PulseSequence,
    Waveform,
    compose,
    phase_shifted,
    pulse_area,
    renormalized,
    sequence_area,
    transition_probability,
    _simpson,
    unitarity_defect,
)
from conftest import ck_matrix
from pulselab.channels import ErrorVector, apply_errors
from pulselab.protocols import PROTOCOL_KINDS, SQRT_PI, nominal_spec

ANGLES = st.floats(0.0, 2.0 * np.pi, allow_nan=False)


@st.composite
def unitary_pairs(draw):
    psi, chi, phi = draw(ANGLES), draw(ANGLES), draw(ANGLES)
    return CKPropagator(np.cos(psi) * np.exp(1j * chi), np.sin(psi) * np.exp(1j * phi))


def test_transition_probability_trivial_cases():
    assert transition_probability(CKPropagator(1.0, 0.0)) == 0.0
    assert transition_probability(CKPropagator(0.0, 1.0)) == 1.0
    u = CKPropagator(1 / np.sqrt(2), 1j / np.sqrt(2))
    assert transition_probability(u) == pytest.approx(0.5, abs=1e-15)


def test_renormalized_rescales_a_pair_and_rejects_a_zero_or_non_finite_one():
    u = renormalized(CKPropagator(0.6 + 0j, 0.6j))
    assert unitarity_defect(u) < 1e-15 and transition_probability(u) == pytest.approx(0.5, abs=1e-15)
    for pair in (CKPropagator(0j, 0j), CKPropagator(complex(np.nan), 0j)):
        with pytest.raises(InvalidParameter, match="cannot renormalize a zero or non-finite CK pair"):
            renormalized(pair)


def test_compose_identity_is_neutral():
    u = CKPropagator(np.cos(0.3) * np.exp(0.2j), np.sin(0.3) * np.exp(-1.1j))
    for v in (compose(IDENTITY, u), compose(u, IDENTITY)):
        assert v.a == pytest.approx(u.a, abs=1e-15)
        assert v.b == pytest.approx(u.b, abs=1e-15)


def test_compose_two_half_pi_pulses_invert():
    # resonant pi/2 propagator, squared: pulse-area additivity gives P = 1
    u = CKPropagator(np.cos(np.pi / 4), -1j * np.sin(np.pi / 4))
    total = compose(u, u)
    assert transition_probability(total) == pytest.approx(1.0, abs=1e-15)


def test_compose_with_inverse_gives_identity():
    u = CKPropagator(np.cos(1.1) * np.exp(0.4j), np.sin(1.1) * np.exp(2.2j))
    v = compose(CKPropagator(np.conj(u.a), -u.b), u)
    assert v.a == pytest.approx(1.0, abs=1e-15)
    assert v.b == pytest.approx(0.0, abs=1e-15)


def test_phase_shift_zero_and_pi():
    u = CKPropagator(np.cos(0.7), -1j * np.sin(0.7))
    assert phase_shifted(u, 0.0) == u
    v = phase_shifted(u, np.pi)
    assert v.b == pytest.approx(-u.b, abs=1e-15)
    assert v.a == u.a


@given(unitary_pairs(), ANGLES)
def test_phase_shift_preserves_probability(u, phi):
    p0 = transition_probability(u)
    p1 = transition_probability(phase_shifted(u, phi))
    assert abs(p1 - p0) <= 1e-15


@given(unitary_pairs(), unitary_pairs())
def test_compose_preserves_unitarity(u, v):
    assert unitarity_defect(compose(v, u)) <= 1e-12


@given(unitary_pairs(), unitary_pairs(), unitary_pairs())
def test_compose_is_associative(u, v, w):
    left = compose(compose(w, v), u)
    right = compose(w, compose(v, u))
    assert abs(left.a - right.a) <= 1e-12
    assert abs(left.b - right.b) <= 1e-12


@given(unitary_pairs(), unitary_pairs())
def test_compose_matches_matrix_product(u, v):
    got = ck_matrix(compose(v, u))
    want = ck_matrix(v) @ ck_matrix(u)
    assert np.max(np.abs(got - want)) <= 1e-14


# ---------------------------------------------------------------- containers


def test_waveform_rejects_empty_window():
    with pytest.raises(InvalidParameter):
        Waveform(rabi=lambda t: t, detuning=lambda t: t, window=(1.0, 1.0))
    with pytest.raises(InvalidParameter):
        Waveform(rabi=lambda t: t, detuning=lambda t: t, window=(2.0, -2.0))
    for window in ((0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(InvalidParameter, match="window must be finite"):
            Waveform(rabi=lambda t: t, detuning=lambda t: t, window=window)


def test_pulse_sequence_rejects_overlap():
    w1 = Waveform(rabi=lambda t: t, detuning=lambda t: t, window=(0.0, 1.0))
    w2 = Waveform(rabi=lambda t: t, detuning=lambda t: t, window=(0.5, 2.0))
    with pytest.raises(InvalidParameter):
        PulseSequence((w1, w2))
    w3 = Waveform(rabi=lambda t: t, detuning=lambda t: t, window=(1.0, 2.0))
    assert len(PulseSequence((w1, w3))) == 2
    with pytest.raises(InvalidParameter, match="at least one pulse"):
        PulseSequence(())


# ---------------------------------------------------------------- pulse area


def test_gaussian_area_closed_form():
    # truncating at +-6T leaves a relative tail below double precision
    for omega0, expected in ((SQRT_PI, np.pi), (5 * SQRT_PI, 5 * np.pi)):
        area = pulse_area(lambda t, o=omega0: o * np.exp(-(t**2)), (-6.0, 6.0))
        assert area == pytest.approx(expected, rel=1e-8)


def test_sp_envelope_area_matches_published_value():
    assert sequence_area(apply_errors(nominal_spec("SP"))) == pytest.approx(3.86 * np.pi, rel=0.01)


def test_ucp_total_area_is_five_pi():
    assert sequence_area(apply_errors(nominal_spec("UCP"))) == pytest.approx(5 * np.pi, rel=1e-8)


@given(st.floats(0.0, 10.0))
@settings(max_examples=25)
def test_area_scales_linearly(scale):
    base = pulse_area(lambda t: np.exp(-(t**2)), (-6.0, 6.0))
    scaled = pulse_area(lambda t: scale * np.exp(-(t**2)), (-6.0, 6.0))
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-300)


def test_area_of_complex_envelope_uses_modulus():
    area = pulse_area(lambda t: 1j * np.ones_like(t), (0.0, 2.0))
    assert area == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_simpson_is_scipys_bit_for_bit(kind):
    from scipy.integrate import simpson

    rng = np.random.default_rng(PROTOCOL_KINDS.index(kind))
    spec = nominal_spec(kind)
    for _ in range(5):
        err = ErrorVector(
            alpha=rng.uniform(0.5, 1.5),
            duration_factor=rng.uniform(0.7, 1.3),
            delta=rng.uniform(-1.0, 1.0),
            eta=rng.uniform(-0.3, 0.3),
            sigma=rng.uniform(-0.5, 0.5),
        )
        for w in apply_errors(spec, err).pulses:
            t = np.linspace(*w.window, AREA_STEPS + 1)
            y = np.abs(np.asarray(w.rabi(t)))
            assert _simpson(y, t) == float(simpson(y, x=t))
            assert pulse_area(w.rabi, w.window) == float(simpson(y, x=t))


def test_area_rejects_empty_window_and_nan():
    with pytest.raises(InvalidParameter):
        pulse_area(lambda t: t, (1.0, 1.0))
    with pytest.raises(InvalidWaveform):
        pulse_area(lambda t: np.full_like(t, np.nan), (0.0, 1.0))
    with pytest.raises(InvalidWaveform, match="too wide for the area quadrature"):
        pulse_area(lambda t: 0.0 * t, (-6e300, 6e300))
    def unit_gaussian(T):
        return lambda t: np.exp(-((t / T) ** 2)) / (T * np.sqrt(np.pi))

    assert pulse_area(unit_gaussian(1e-150), (-6e-150, 6e-150)) == pytest.approx(1.0, rel=1e-12)
    # the Simpson step products underflow: the unit area would read 1/3
    with pytest.raises(InvalidWaveform, match="too narrow for the area quadrature"):
        pulse_area(unit_gaussian(1e-160), (-6e-160, 6e-160))
