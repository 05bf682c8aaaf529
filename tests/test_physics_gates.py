"""Physics gates: the committed goldens and reference table against exact identities.

A golden test only shows that a file is unchanged.  These checks show that it
is right.  Each golden is first checked to be the grid of its own config
(``conftest.read_golden``).  Each gate then takes a CSV path and returns, per
point or row, the deviation of the file from an identity of the two-state
problem that the midpoint stepper keeps at any step count, up to rounding.
The identities hold to about 1e-15; a slip in an error channel (a sign, a
centre, SP's 1/T amplitude) moves P by far more than the 1e-12 gate, and an
ulp-level move of a regenerated file does not.

- Resonant rotations (fig2): at zero detuning every step of a pulse rotates
  about the same axis, so a UCP pulse is a rotation by pi*alpha about its
  phase axis, and fig2 is the product of five of them.
- Area law (fig4): a resonant RE pulse of area pi*alpha*d transfers
  sin^2(pi*alpha*d/2).
- Mirror (fig5, fig6, fig7): sigma_x conjugation plus time reversal of a
  symmetric envelope with an odd chirp gives P(delta, eta, sigma) =
  P(-delta, eta, -sigma).  Points pair by index, i with n-1-i, because
  ``linspace`` grids are not bitwise symmetric.  A property checks the same
  identity for every technique at drawn points.
- Width rescaling (fig3, every technique): a pulse d times wider is the same
  problem, at width factor 1, with the drive times d (SP's amplitude carries
  1/T, so its alpha stays), delta times d, and eta times d^2 plus
  (d - 1)*beta/T for the nominal chirp beta*(t - t_k)/T.  STA's shortcut
  keeps its frozen width, so its spec is rescaled instead: omega0 and beta
  times d, and the frozen T divided by d.  fig3's CAP points are recomputed
  at width factor 1, and every technique is checked at seeded points.
- Table: the mirror makes the delta and sigma intervals symmetric, lo = -hi.
  For an unchirped technique (RE, UCP), sigma_x conjugation alone gives
  P(delta, eta) = P(-delta, -eta), so its eta intervals are symmetric too.
"""
import csv
import functools
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_golden
from pulselab.channels import ErrorVector
from pulselab.config import parse_config
from pulselab.core import CKPropagator, compose, phase_shifted, transition_probability
from pulselab.integrator import IntegratorConfig
from pulselab.protocols import PROTOCOL_KINDS, UCP_PHASES, nominal_spec
from pulselab.sweep import evaluate_point

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDENS = ROOT / "goldens"
TABLE = ROOT / "perfbench" / "reference" / "table.csv"
TOL = 1e-12

MIRRORED = ("delta", "sigma")
UNCHIRPED = ("RE", "UCP")


def _grid(path, channels):
    """Axis values and the P grid of a golden CSV over ``channels``."""
    run, values = read_golden(path)
    assert [axis.channel for axis in run.axes] == channels, f"{path} sweeps {run.axes}, expected {channels}"
    return [axis.values() for axis in run.axes], np.array(values).reshape([axis.points for axis in run.axes])


def ucp_resonant_rotations(path):
    """fig2: |P - P of five rotations by pi*alpha about the UCP phases| per alpha."""
    (alpha,), p = _grid(path, ["alpha"])
    exact = []
    for a in alpha:
        half = 0.5 * np.pi * a
        pulse = CKPropagator(complex(np.cos(half)), complex(-1j * np.sin(half)))
        total = CKPropagator(1 + 0j, 0j)
        for phi in UCP_PHASES:
            total = compose(phase_shifted(pulse, phi), total)
        exact.append(transition_probability(total))
    return np.abs(p - np.array(exact))


def re_area_law(path):
    """fig4: |P - sin^2(pi*alpha*d/2)| per (alpha, duration_factor)."""
    (alpha, d), p = _grid(path, ["alpha", "duration_factor"])
    return np.abs(p - np.sin(0.5 * np.pi * np.outer(alpha, d)) ** 2).ravel()


def mirror(path, channels):
    """fig5, fig6, fig7: |P - P mirrored along every delta and sigma axis| per point."""
    axes, p = _grid(path, channels)
    flipped = tuple(i for i, channel in enumerate(channels) if channel in MIRRORED)
    for i in flipped:
        assert np.max(np.abs(axes[i] + axes[i][::-1])) <= TOL, f"the {channels[i]} axis is not symmetric"
    return np.abs(p - np.flip(p, flipped)).ravel()


def unit_width(spec, err):
    """The technique and error vector posing at width factor 1 the problem ``err`` poses at its width factor d."""
    d = err.duration_factor
    if spec.kind == "STA":
        # the shortcut keeps its frozen width, so the spec rescales with the pulse
        om_a, beta_a, T_a = spec.sta_nominal
        spec = replace(spec, omega0=spec.omega0 * d, beta=spec.beta * d, sta_nominal=(om_a, beta_a, T_a / d))
        return spec, replace(err, duration_factor=1.0, delta=err.delta * d, eta=err.eta * d * d)
    return spec, replace(
        err,
        duration_factor=1.0,
        alpha=err.alpha if spec.kind == "SP" else err.alpha * d,
        delta=err.delta * d,
        eta=err.eta * d * d + (d - 1.0) * spec.beta / spec.T,
    )


def cap_width_rescaling(path, points=12):
    """fig3: |P - P recomputed at width factor 1| at ``points`` widths spread over the axis."""
    run = parse_config((CONFIGS / "fig3.cfg").read_text())
    (d,), p = _grid(path, ["duration_factor"])
    picked = np.linspace(0, d.size - 1, points).round().astype(int)
    recomputed = [
        evaluate_point(*unit_width(run.protocol, replace(run.errors, duration_factor=d[i])), run.integrator)
        for i in picked
    ]
    return np.abs(p[picked] - recomputed)


def symmetric_intervals(path):
    """Reference table: |lo + hi| per delta and sigma row, and per RE/UCP eta row, with an interval."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([
        abs(float(row["lo"]) + float(row["hi"]))
        for row in rows
        if (row["channel"] in MIRRORED or (row["channel"] == "eta" and row["protocol"] in UNCHIRPED))
        and row["lo"] != ""
    ])


GOLDEN_GATES = {
    "fig2": ucp_resonant_rotations,
    "fig3": cap_width_rescaling,
    "fig4": re_area_law,
    "fig5": functools.partial(mirror, channels=["delta"]),
    "fig6": functools.partial(mirror, channels=["alpha", "delta"]),
    "fig7": functools.partial(mirror, channels=["sigma"]),
}


@pytest.mark.parametrize("name", GOLDEN_GATES)
def test_golden_obeys_its_identity(name):
    deviations = GOLDEN_GATES[name](GOLDENS / f"{name}.csv")
    assert deviations.size > 0
    assert deviations.max() <= TOL


def test_reference_table_intervals_are_symmetric():
    deviations = symmetric_intervals(TABLE)
    # 42 delta, sigma and RE/UCP eta rows; AF's 6 delta and sigma rows are
    # below threshold at nominal and have no interval
    assert deviations.size == 36
    assert deviations.max() <= TOL


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_width_rescaling_at_seeded_points(kind):
    spec, cfg = nominal_spec(kind), IntegratorConfig(steps_per_pulse=4000)
    draws = np.random.default_rng(16).uniform([0.3, 0.5, -2.0, -1.0, -0.5], [1.7, 2.0, 2.0, 1.0, 0.5], (6, 5))
    deviations, probabilities = [], []
    for alpha, d, delta, eta, sigma in draws:
        err = ErrorVector(alpha=alpha, duration_factor=d, delta=delta, eta=eta, sigma=sigma)
        probabilities.append(evaluate_point(spec, err, cfg))
        deviations.append(abs(probabilities[-1] - evaluate_point(*unit_width(spec, err), cfg)))
    assert np.ptp(probabilities) > 0.1  # the draws span distinct problems
    assert max(deviations) <= TOL


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.3, 1.7),
    d=st.floats(0.5, 2.0),
    delta=st.floats(-2.0, 2.0),
    eta=st.floats(-1.0, 1.0),
    sigma=st.floats(-0.5, 0.5),
)
def test_mirror_identity_at_drawn_points(kind, alpha, d, delta, eta, sigma):
    spec, cfg = nominal_spec(kind), IntegratorConfig(steps_per_pulse=4000)
    err = ErrorVector(alpha=alpha, duration_factor=d, delta=delta, eta=eta, sigma=sigma)
    mirrored = replace(err, delta=-delta, sigma=-sigma)
    assert abs(evaluate_point(spec, err, cfg) - evaluate_point(spec, mirrored, cfg)) <= TOL
