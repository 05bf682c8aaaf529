"""Run-configuration parsing: flat ``key = value`` text with a strict schema.

``#`` starts a comment, blank lines are ignored, and every key must be known
and applicable to the chosen protocol; nothing is silently dropped.  Values
violating a physical invariant raise :class:`ValidationError`, malformed text
raises :class:`ParseError`.
"""
from __future__ import annotations

import difflib
from dataclasses import dataclass, fields
from typing import Dict, Tuple

from .channels import ErrorVector
from .core import InvalidParameter
from .integrator import IntegratorConfig
from .protocols import PROTOCOL_KINDS, TECHNIQUES, ProtocolSpec, nominal_spec
from .sweep import SWEEP_CHANNELS, SweepAxis, check_grid_size

__all__ = [
    "ParseError", "ValidationError", "RunConfig", "parse_config", "parse_kv", "build_config", "CONFIG_KEYS",
    "SPEC_KEYS",
]


class ParseError(ValueError):
    """Malformed configuration text or unknown/duplicate key."""


class ValidationError(ValueError):
    """Well-formed configuration violating a documented invariant."""


# key -> (type tag, description).  Type tags: float, int, bool, str, floats.
CONFIG_KEYS: Dict[str, Tuple[str, str]] = {
    "protocol": ("str", "technique: RE, AF, STA, SP, CAP or UCP"),
    "T": ("float", "pulse width (the time unit); default 1.0"),
    "omega0": ("float", "peak Rabi frequency in rad/time (not a parameter of SP)"),
    "beta": ("float", "protocol chirp rate in rad/time (AF, STA, CAP only)"),
    "phases": ("floats", "composite phase list in rad (CAP, UCP only)"),
    "sp_coeffs": ("floats", "shaped-pulse coefficients C1..Cn (SP only)"),
    "sta_omega0a": ("float", "frozen omega0 of the counterdiabatic term (STA only)"),
    "sta_betaa": ("float", "frozen beta of the counterdiabatic term (STA only)"),
    "sta_ta": ("float", "frozen T of the counterdiabatic term (STA only)"),
    "alpha": ("float", "Rabi-amplitude error factor; nominal 1"),
    "duration_factor": ("float", "pulse-width error factor; nominal 1"),
    "delta": ("float", "static detuning error in rad/time; nominal 0"),
    "eta": ("float", "residual chirp error in rad/time^2; nominal 0"),
    "sigma": ("float", "shape-distortion strength in (-1, 1); nominal 0"),
    "phase_offsets": ("floats", "per-pulse phase errors in rad; empty for none"),
    "centering": ("str", "per_pulse or global centering of sigma and eta"),
    "sta_alpha_scales_shortcut": ("bool", "whether alpha also scales the counterdiabatic term (STA only)"),
    "sweep_channel": ("str", "first sweep axis channel"),
    "sweep_lo": ("float", "first axis lower bound"),
    "sweep_hi": ("float", "first axis upper bound"),
    "sweep_points": ("int", "first axis point count"),
    "sweep2_channel": ("str", "second sweep axis channel"),
    "sweep2_lo": ("float", "second axis lower bound"),
    "sweep2_hi": ("float", "second axis upper bound"),
    "sweep2_points": ("int", "second axis point count"),
    "steps_per_pulse": ("int", "integrator sub-intervals per pulse"),
    "unitarity_tol": ("float", "allowed norm drift of the propagator"),
    "renormalize": ("bool", "rescale each pulse's pair and the sequence's to unit norm"),
    "convergence_tol": ("float", "optional tolerance on the summed step-halving estimate of each sequence"),
    "output": ("str", "output path, '-' or empty for stdout"),
    "format": ("str", "csv or json"),
    "workers": ("int", "process count for sweeps (PULSE_WORKERS overrides)"),
}

# key -> the ProtocolSpec field it sets; protocols.TECHNIQUES says which kinds take it
SPEC_KEYS: Dict[str, str] = {
    "omega0": "omega0", "beta": "beta", "phases": "phases", "sp_coeffs": "sp_coeffs",
    "sta_omega0a": "sta_nominal", "sta_betaa": "sta_nominal", "sta_ta": "sta_nominal",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of everything one run needs."""

    protocol: ProtocolSpec
    errors: ErrorVector
    axes: Tuple[SweepAxis, ...]
    integrator: IntegratorConfig
    output: str = "-"
    fmt: str = "csv"
    workers: int = 1


def parse_kv(text: str) -> Dict[str, str]:
    """Raw ``key = value`` lines to a dict; comments and blanks skipped."""
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _unknown_key_error(key: str) -> ParseError:
    close = difflib.get_close_matches(key, CONFIG_KEYS, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return ParseError(f"unknown key {key!r}{hint}")


def _convert(key: str, value: str):
    tag = CONFIG_KEYS[key][0]
    try:
        if tag == "float":
            return float(value)
        if tag == "int":
            return int(value)
        if tag == "bool":
            low = value.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if tag == "floats":
            if not value:
                return ()
            return tuple(float(x) for x in value.split(","))
        return value
    except ValueError as exc:
        raise ParseError(f"key {key!r}: {exc}") from exc


def build_config(raw: Dict[str, str]) -> RunConfig:
    """Validate a raw key-value mapping into a :class:`RunConfig`."""
    values = {}
    for key, text_value in raw.items():
        if key not in CONFIG_KEYS:
            raise _unknown_key_error(key)
        values[key] = _convert(key, text_value)

    if "protocol" not in values:
        raise ValidationError("missing required key 'protocol'")
    kind = str(values["protocol"]).upper()
    if kind not in PROTOCOL_KINDS:
        raise ValidationError(f"protocol must be one of {PROTOCOL_KINDS}, got {values['protocol']!r}")
    takes = TECHNIQUES[kind].takes
    for key in values:
        if key in SPEC_KEYS and SPEC_KEYS[key] not in takes or key == "sta_alpha_scales_shortcut" and kind != "STA":
            raise ValidationError(f"key {key!r} is not a parameter of the {kind} technique")

    T = float(values.get("T", 1.0))
    if not 0 < T < float("inf"):
        raise ValidationError(f"T must be positive and finite, got {T}")
    base = nominal_spec(kind, T)
    omega0 = float(values.get("omega0", base.omega0))
    beta = float(values.get("beta", base.beta))
    phases = tuple(values.get("phases", base.phases))
    sp_coeffs = tuple(values.get("sp_coeffs", base.sp_coeffs))
    sta_nominal = None
    if kind == "STA":
        sta_nominal = (
            float(values.get("sta_omega0a", omega0)),
            float(values.get("sta_betaa", beta)),
            float(values.get("sta_ta", T)),
        )
    try:
        spec = ProtocolSpec(
            kind, omega0, T, beta=beta, phases=phases, sp_coeffs=sp_coeffs, sta_nominal=sta_nominal
        )
        errors = _given(ErrorVector, values)
        integrator = _given(IntegratorConfig, values)
        axes = _build_axes(values)
    except InvalidParameter as exc:
        raise ValidationError(str(exc)) from exc

    fmt = str(values.get("format", "csv")).lower()
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    workers = int(values.get("workers", 1))
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return RunConfig(
        protocol=spec,
        errors=errors,
        axes=axes,
        integrator=integrator,
        output=str(values.get("output", "")) or "-",  # empty means stdout
        fmt=fmt,
        workers=workers,
    )


def _given(cls, values: Dict[str, object]):
    """``cls`` built from the keys that were given; its own defaults fill the rest."""
    return cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values})


def _build_axes(values: Dict[str, object]) -> Tuple[SweepAxis, ...]:
    axes = []
    seen = []
    for prefix in ("sweep", "sweep2"):
        keys = [f"{prefix}_channel", f"{prefix}_lo", f"{prefix}_hi", f"{prefix}_points"]
        present = [k for k in keys if k in values]
        if not present:
            continue
        missing = [k for k in keys if k not in values]
        if missing:
            raise ValidationError(f"{present[0]} given but {missing[0]} missing")
        channel = str(values[keys[0]])
        if channel not in SWEEP_CHANNELS:
            raise ValidationError(f"{keys[0]} must be one of {SWEEP_CHANNELS}, got {channel!r}")
        axes.append(
            SweepAxis(channel, float(values[keys[1]]), float(values[keys[2]]), int(values[keys[3]]))
        )
        seen.append(prefix)
    if seen == ["sweep2"]:
        raise ValidationError("sweep2_* keys require the sweep_* axis")
    check_grid_size(axes)
    return tuple(axes)


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text."""
    return build_config(parse_kv(text))
