"""Strict configuration schema: parsing, defaults, diagnostics."""
from dataclasses import fields, replace

import numpy as np
import pytest

from pulselab.config import SPEC_KEYS, ParseError, ValidationError, build_config, parse_config, parse_kv
from pulselab.core import InvalidParameter
from pulselab.protocols import PROTOCOL_KINDS, SQRT_PI, TECHNIQUES, UCP_PHASES, ProtocolSpec, nominal_spec


def test_minimal_config_gets_canonical_defaults():
    cfg = parse_config("protocol = RE\n")
    assert cfg.protocol.kind == "RE"
    assert cfg.protocol.omega0 == pytest.approx(SQRT_PI)
    assert cfg.protocol.T == 1.0
    assert cfg.errors.alpha == 1.0 and cfg.errors.delta == 0.0
    assert cfg.integrator.steps_per_pulse == 250_000
    assert cfg.axes == ()
    assert cfg.output == "-" and cfg.fmt == "csv" and cfg.workers == 1


def test_comments_blanks_and_case():
    text = """
    # a comment line
    protocol = ucp   # trailing comment

    alpha = 0.9
    """
    cfg = parse_config(text)
    assert cfg.protocol.kind == "UCP"
    assert cfg.protocol.phases == UCP_PHASES
    assert cfg.errors.alpha == pytest.approx(0.9)


def test_sigma_out_of_range_names_the_constraint():
    with pytest.raises(ValidationError, match="sigma"):
        parse_config("protocol = RE\nsigma = 1.5\n")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ParseError, match="omega0"):
        parse_config("protocol = RE\nomega_zero = 1.0\n")


def test_malformed_line_and_duplicates():
    with pytest.raises(ParseError, match="line 1"):
        parse_kv("this is not a key value pair")
    with pytest.raises(ParseError, match="duplicate"):
        parse_kv("alpha = 1\nalpha = 2\n")
    with pytest.raises(ParseError, match="line 2: empty key"):
        parse_kv("protocol = RE\n = 3\n")
    with pytest.raises(ParseError, match="alpha"):
        parse_config("protocol = RE\nalpha = fast\n")


def test_missing_protocol():
    with pytest.raises(ValidationError, match="protocol"):
        parse_config("alpha = 1.0\n")
    with pytest.raises(ValidationError, match="protocol must be one of .*, got 'XX'"):
        parse_config("protocol = XX\n")


def test_keys_must_apply_to_the_technique():
    with pytest.raises(ValidationError, match="beta"):
        parse_config("protocol = RE\nbeta = 4.0\n")
    with pytest.raises(ValidationError, match="sp_coeffs"):
        parse_config("protocol = UCP\nsp_coeffs = -3.46,-1.365,-0.5\n")
    with pytest.raises(ValidationError, match="sta_ta"):
        parse_config("protocol = AF\nsta_ta = 1.0\n")
    with pytest.raises(ValidationError, match="omega0"):
        parse_config("protocol = SP\nomega0 = 2.0\n")


def test_spec_keys_set_exactly_the_fields_the_techniques_take():
    taken = set().union(*(tech.takes for tech in TECHNIQUES.values()))
    assert set(SPEC_KEYS.values()) == taken and set(KEY_TEXT) == set(SPEC_KEYS)
    assert taken == {f.name for f in fields(ProtocolSpec)} - {"kind", "T"}


# a non-canonical value for every technique parameter, as config text and as a spec field
KEY_TEXT = {"omega0": "2.0", "beta": "1.5", "phases": "0,1,0", "sp_coeffs": "-1.0",
            "sta_omega0a": "2.0", "sta_betaa": "1.5", "sta_ta": "1.2"}
FIELD_VALUE = {"omega0": 2.0, "beta": 1.5, "phases": (0.0, 1.0, 0.0), "sp_coeffs": (-1.0,), "sta_nominal": (2.0, 1.5, 1.2)}


@pytest.mark.parametrize("key", KEY_TEXT)
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_build_config_takes_a_key_by_the_technique_table(kind, key):
    raw = {"protocol": kind, key: KEY_TEXT[key]}
    if SPEC_KEYS[key] in TECHNIQUES[kind].takes:
        assert build_config(raw).protocol != nominal_spec(kind)
    else:
        with pytest.raises(ValidationError, match=f"key {key!r} is not a parameter of the {kind} technique"):
            build_config(raw)


@pytest.mark.parametrize("field", FIELD_VALUE)
@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_protocol_spec_takes_a_field_by_the_technique_table(kind, field):
    value = FIELD_VALUE[field]
    if field in TECHNIQUES[kind].takes:
        assert getattr(replace(nominal_spec(kind), **{field: value}), field) == value
    else:
        with pytest.raises(InvalidParameter, match=f"{field} is not a parameter of the {kind} technique"):
            replace(nominal_spec(kind), **{field: value})


def test_sta_frozen_triple_defaults_to_live():
    cfg = parse_config("protocol = STA\nomega0 = 2.5\nbeta = 3.0\n")
    assert cfg.protocol.sta_nominal == pytest.approx((2.5, 3.0, 1.0))
    cfg = parse_config("protocol = STA\nomega0 = 2.5\nsta_omega0a = 1.9\n")
    assert cfg.protocol.sta_nominal[0] == pytest.approx(1.9)
    assert cfg.protocol.sta_nominal[1] == pytest.approx(4.0)


def test_sweep_axes_parsing():
    cfg = parse_config(
        "protocol = RE\n"
        "sweep_channel = alpha\nsweep_lo = 0\nsweep_hi = 2\nsweep_points = 11\n"
        "sweep2_channel = delta\nsweep2_lo = -1\nsweep2_hi = 1\nsweep2_points = 5\n"
    )
    assert len(cfg.axes) == 2
    assert cfg.axes[0].channel == "alpha" and cfg.axes[1].points == 5


def test_sweep_axis_requires_all_keys():
    with pytest.raises(ValidationError, match="sweep_points"):
        parse_config("protocol = RE\nsweep_channel = alpha\nsweep_lo = 0\nsweep_hi = 2\n")
    with pytest.raises(ValidationError, match="sweep2"):
        parse_config(
            "protocol = RE\nsweep2_channel = delta\nsweep2_lo = 0\nsweep2_hi = 1\nsweep2_points = 3\n"
        )
    with pytest.raises(ValidationError, match="sweep_channel"):
        parse_config(
            "protocol = RE\nsweep_channel = tilt\nsweep_lo = 0\nsweep_hi = 1\nsweep_points = 3\n"
        )


def test_bool_and_list_values():
    cfg = parse_config(
        "protocol = UCP\nrenormalize = false\nphase_offsets = 0,0.1,0,-0.1,0\nworkers = 4\n"
    )
    assert cfg.integrator.renormalize is False
    assert cfg.errors.phase_offsets == pytest.approx((0.0, 0.1, 0.0, -0.1, 0.0))
    assert cfg.workers == 4
    with pytest.raises(ParseError, match="renormalize"):
        parse_config("protocol = RE\nrenormalize = maybe\n")
    assert parse_config("protocol = RE\nrenormalize = yes\n").integrator.renormalize is True
    assert parse_config("protocol = UCP\nphases =\n").protocol.phases == UCP_PHASES  # empty: canonical


def test_format_and_workers_validation():
    with pytest.raises(ValidationError, match="format"):
        parse_config("protocol = RE\nformat = yaml\n")
    with pytest.raises(ValidationError, match="workers"):
        parse_config("protocol = RE\nworkers = 0\n")


def test_integrator_overrides_round_trip():
    cfg = parse_config(
        "protocol = RE\nsteps_per_pulse = 4000\nunitarity_tol = 1e-9\nconvergence_tol = 1e-6\n"
    )
    assert cfg.integrator.steps_per_pulse == 4000
    assert cfg.integrator.unitarity_tol == pytest.approx(1e-9)
    assert cfg.integrator.convergence_tol == pytest.approx(1e-6)


def test_custom_phases_for_composites():
    cfg = parse_config("protocol = CAP\nphases = 0,1.0,0\n")
    assert cfg.protocol.phases == pytest.approx((0.0, 1.0, 0.0))
