"""Sweep engine: grids, determinism, worker invariance, robustness table."""
import functools
import json
import multiprocessing
import os
import re
import warnings
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulselab import integrator, protocols
from pulselab import sweep as sweep_module
from pulselab.channels import ErrorVector, apply_errors
from pulselab.cli import main
from pulselab.core import InvalidParameter
from pulselab.integrator import IntegratorConfig, NonConvergent
from pulselab.protocols import SQRT_PI, ProtocolSpec, nominal_spec
from pulselab.serialize import read_result, write_result
from pulselab.sweep import (
    CHANNEL_NOMINALS,
    DEFAULT_PROBES,
    MAX_AXIS_POINTS,
    MAX_GRID_POINTS,
    SWEEP_CHANNELS,
    RobustnessRow,
    SweepAxis,
    SweepResult,
    comparison_table,
    evaluate_point,
    half_width,
    sweep1d,
    sweep2d,
)

RE = nominal_spec("RE")

# closed-form alpha bound of the 99% resonant plateau: (2/pi) asin(sqrt(0.99))
RE_ALPHA_LO = 0.9362314391414803


def test_re_alpha_five_points(fast_cfg):
    axis = SweepAxis("alpha", 0.0, 2.0, 5)
    res = sweep1d(RE, axis, cfg=fast_cfg)
    assert res.values == pytest.approx((0.0, 0.5, 1.0, 0.5, 0.0), abs=1e-8)


def test_degenerate_axis_stays_at_nominal(fast_cfg):
    axis = SweepAxis("alpha", 1.0 - 1e-9, 1.0 + 1e-9, 3)
    res = sweep1d(RE, axis, cfg=fast_cfg)
    assert all(v == pytest.approx(1.0, abs=1e-8) for v in res.values)


def test_sweep2d_row_major_order(fast_cfg):
    res = sweep2d(
        RE,
        SweepAxis("alpha", 0.5, 1.0, 2),
        SweepAxis("delta", 0.0, 1.0, 2),
        cfg=fast_cfg,
    )
    g = res.grid()
    assert g.shape == (2, 2)
    # row 0 is alpha = 0.5, row 1 is alpha = 1.0; P grows with alpha here
    assert res.values[0] == g[0, 0] and res.values[3] == g[1, 1]
    assert g[1, 0] > g[0, 0]


def test_area_law_symmetry_alpha_vs_duration(fast_cfg):
    # resonant transfer depends only on the product alpha * duration_factor
    res = sweep2d(
        RE,
        SweepAxis("alpha", 0.5, 1.0, 2),
        SweepAxis("duration_factor", 0.6, 1.2, 2),
        cfg=fast_cfg,
    )
    g = res.grid()
    assert g[0, 1] == pytest.approx(g[1, 0], abs=1e-8)  # 0.5*1.2 == 1.0*0.6


def test_ucp_plateau_around_nominal(fast_cfg):
    res = sweep2d(
        nominal_spec("UCP"),
        SweepAxis("alpha", 0.95, 1.05, 3),
        SweepAxis("delta", -0.1, 0.1, 3),
        cfg=fast_cfg,
    )
    assert all(v >= 0.999 for v in res.values)


def test_one_point_second_axis_matches_sweep1d(fast_cfg):
    axis = SweepAxis("alpha", 0.4, 1.6, 4)
    res1 = sweep1d(RE, axis, cfg=fast_cfg)
    res2 = sweep2d(RE, axis, SweepAxis("delta", 0.0, 0.0, 1), cfg=fast_cfg)
    assert res1.values == res2.values


def test_refined_grid_contains_coarse_points(fast_cfg):
    coarse = sweep1d(RE, SweepAxis("alpha", 0.0, 2.0, 5), cfg=fast_cfg)
    fine = sweep1d(RE, SweepAxis("alpha", 0.0, 2.0, 9), cfg=fast_cfg)
    assert fine.values[::2] == coarse.values  # bitwise equal shared points


def test_worker_invariance(fast_cfg):
    axis = SweepAxis("alpha", 0.0, 2.0, 9)
    serial = sweep1d(RE, axis, cfg=fast_cfg, workers=1)
    pooled = sweep1d(RE, axis, cfg=fast_cfg, workers=3)
    assert serial.values == pooled.values


def test_pulse_workers_env_override(fast_cfg, monkeypatch):
    axis = SweepAxis("alpha", 0.0, 2.0, 5)
    monkeypatch.setenv("PULSE_WORKERS", "2")
    pooled = sweep1d(RE, axis, cfg=fast_cfg, workers=1)
    monkeypatch.delenv("PULSE_WORKERS")
    serial = sweep1d(RE, axis, cfg=fast_cfg, workers=1)
    assert pooled.values == serial.values
    monkeypatch.setenv("PULSE_WORKERS", "zero")
    with pytest.raises(InvalidParameter):
        sweep1d(RE, axis, cfg=fast_cfg)


def test_empty_pulse_workers_means_unset(fast_cfg, monkeypatch, capsys):
    axis = SweepAxis("alpha", 0.0, 2.0, 5)
    serial = sweep1d(RE, axis, cfg=fast_cfg, workers=1)
    monkeypatch.setenv("PULSE_WORKERS", "")
    unset = sweep1d(RE, axis, cfg=fast_cfg, workers=1)
    assert unset.values == serial.values and unset.meta["workers"] == 1
    argv = ["sweep", "--protocol", "RE", "--sweep-channel", "alpha", "--sweep-lo", "0.5", "--sweep-hi", "1.5"]
    assert main([*argv, "--sweep-points", "3", "--steps-per-pulse", "400"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "alpha,P"


def test_axis_invariants():
    with pytest.raises(InvalidParameter):
        SweepAxis("frequency", 0.0, 1.0, 5)
    with pytest.raises(InvalidParameter):
        SweepAxis("alpha", 1.0, 0.0, 5)
    with pytest.raises(InvalidParameter):
        SweepAxis("alpha", 0.0, 1.0, 0)
    with pytest.raises(InvalidParameter):
        SweepAxis("alpha", 0.0, 1.0, 1)
    assert SweepAxis("alpha", 0.7, 0.7, 1).values() == pytest.approx([0.7])


@pytest.mark.parametrize(
    "channel, lo, hi, points",
    [
        ("delta", -np.inf, np.inf, 3),
        ("alpha", 0.5, np.inf, 3),
        ("alpha", np.nan, np.nan, 1),
        ("delta", -1e308, 1e308, 3),  # finite bounds whose span overflows
    ],
)
def test_axis_rejects_non_finite_bounds(channel, lo, hi, points, capsys):
    with pytest.raises(InvalidParameter, match=r"axis bounds must be finite, got \["):
        SweepAxis(channel, lo, hi, points)
    argv = ["sweep", "--protocol", "RE", "--sweep-channel", channel, f"--sweep-lo={lo}", f"--sweep-hi={hi}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--sweep-points", str(points), "--steps-per-pulse", "400"]) == 2
    err = capsys.readouterr().err
    assert caught == [] and "Warning" not in err
    assert "axis bounds must be finite" in err
    one_point = sweep1d(RE, SweepAxis(channel, 0.5, 0.5, 1), cfg=IntegratorConfig(steps_per_pulse=400))
    doc = json.loads(write_result(one_point, "json"))
    doc["axes"][0].update(lo=lo, hi=hi, points=points)
    with pytest.raises(ValueError, match="axis bounds must be finite"):
        read_result(json.dumps(doc), "json")


def test_grid_size_is_bounded_before_anything_is_allocated(monkeypatch, capsys):
    def no_allocation(*args, **kwargs):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(sweep_module.np, "linspace", no_allocation)
    monkeypatch.setattr(sweep_module, "evaluate_point", no_allocation)
    too_many = rf"points must be in \[1, {MAX_AXIS_POINTS}\], got 1000000000"
    with pytest.raises(InvalidParameter, match=too_many):
        SweepAxis("alpha", 0.0, 2.0, 10**9)
    axis = SweepAxis("alpha", 0.0, 2.0, MAX_AXIS_POINTS)
    with pytest.raises(InvalidParameter, match=f"at most {MAX_GRID_POINTS} points, got 10000 x 11 = 110000"):
        sweep2d(RE, axis, SweepAxis("delta", -1.0, 1.0, 11))
    argv = ["sweep", "--protocol", "RE", "--sweep-channel", "alpha", "--sweep-lo", "0", "--sweep-hi", "2"]
    assert main([*argv, "--sweep-points", "1000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and re.search(too_many, err) and err.count("\n") == 1
    second = ["--sweep2-channel", "delta", "--sweep2-lo", "-1", "--sweep2-hi", "1", "--sweep2-points", "1000"]
    assert main([*argv, "--sweep-points", "1000", *second]) == 2
    assert "at most 100000 points, got 1000 x 1000 = 1000000" in capsys.readouterr().err
    # the largest documented runs fit with room to spare: the table's probes
    # and the 101 x 101 maps of scripts/make_figures.py
    assert all(10 * ax.points <= MAX_AXIS_POINTS for ax in DEFAULT_PROBES.values())
    sweep_module.check_grid_size([SweepAxis("alpha", 0.0, 2.0, 101), SweepAxis("delta", -1.0, 1.0, 101)])
    assert 9 * 101 * 101 <= MAX_GRID_POINTS


def test_result_invariants():
    axis = SweepAxis("alpha", 0.0, 1.0, 3)
    with pytest.raises(InvalidParameter):
        SweepResult((axis,), RE, (0.1, 0.2), {})
    with pytest.raises(InvalidParameter):
        SweepResult((axis,), RE, (0.1, 0.2, 1.5), {})
    SweepResult((axis,), RE, (0.1, 0.2, 1.0), {})


def test_two_axes_must_differ(fast_cfg):
    axis = SweepAxis("alpha", 0.0, 1.0, 2)
    with pytest.raises(InvalidParameter):
        sweep2d(RE, axis, axis, cfg=fast_cfg)


# ------------------------------------------------------------------ halfwidth


def test_half_width_synthetic():
    grid = np.linspace(0.0, 2.0, 21)
    probs = 1.0 - (grid - 1.0) ** 2
    hw, lo, hi = half_width(grid, probs, 1.0, 0.99)
    assert (lo, hi) == (0.9, 1.1)
    assert hw == pytest.approx(0.1)
    hw, lo, hi = half_width(grid, probs, 1.0, 1.01)
    assert hw == 0.0 and lo is None and hi is None


def test_half_width_is_asymmetry_safe():
    grid = np.linspace(0.0, 2.0, 21)
    probs = np.where(grid < 0.9, 0.0, 1.0)  # plateau [0.9, 2.0], censored right
    hw, lo, hi = half_width(grid, probs, 1.0, 0.99)
    assert lo == pytest.approx(0.9) and hi == pytest.approx(2.0)
    assert hw == pytest.approx(0.1)  # min distance to an edge


def test_re_alpha_half_width_matches_closed_form(fast_cfg):
    axis = SweepAxis("alpha", 0.0, 2.0, 201)
    res = sweep1d(RE, axis, cfg=fast_cfg)
    hw, lo, hi = half_width(axis.values(), res.values, 1.0, 0.99)
    assert abs(lo - RE_ALPHA_LO) <= axis.cell
    assert abs(hi - (2.0 - RE_ALPHA_LO)) <= axis.cell
    assert hw == pytest.approx(1.0 - RE_ALPHA_LO, abs=axis.cell)


def test_comparison_table_single_protocol(fast_cfg):
    probes = {"alpha": SweepAxis("alpha", 0.5, 1.5, 101)}
    rows = comparison_table([RE], probes=probes, thresholds=(0.99,), cfg=fast_cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.protocol == "RE" and row.channel == "alpha"
    assert row.half_width == pytest.approx(1.0 - RE_ALPHA_LO, abs=0.01)
    assert not row.censored


def test_comparison_table_ordering(fast_cfg):
    probes = {"alpha": SweepAxis("alpha", 0.5, 1.5, 51)}
    ucp = nominal_spec("UCP")
    rows = comparison_table([RE, ucp], probes=probes, thresholds=(0.99,), cfg=fast_cfg)
    assert [r.protocol for r in rows] == ["UCP", "RE"]  # most robust first


def test_comparison_table_is_one_grid_on_one_pool(fast_cfg, monkeypatch):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    pools = []

    class CountedPool(sweep_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", CountedPool)
    specs = [nominal_spec(kind) for kind in ("RE", "STA", "SP", "UCP")]
    probes = {
        "alpha": SweepAxis("alpha", 0.5, 1.5, 21),
        "duration_factor": SweepAxis("duration_factor", 0.5, 1.5, 21),
    }
    thresholds = (0.99, 0.9999)
    rows = comparison_table(specs, probes, thresholds, cfg=fast_cfg, workers=2)
    assert len(pools) == 1
    assert rows == comparison_table(specs, probes, thresholds, cfg=fast_cfg, workers=1)
    assert len(pools) == 1

    reference = []
    for channel, axis in probes.items():
        grid = axis.values()
        sweeps = {spec.kind: sweep1d(spec, axis, cfg=fast_cfg).values for spec in specs}
        for threshold in thresholds:
            batch = []
            for spec in specs:
                hw, lo, hi = half_width(grid, sweeps[spec.kind], CHANNEL_NOMINALS[channel], threshold)
                censored = lo is not None and (lo == grid[0] or hi == grid[-1])
                batch.append(RobustnessRow(channel, spec.kind, threshold, hw, lo, hi, censored))
            reference += sorted(batch, key=lambda r: -r.half_width)
    assert rows == reference


# ------------------------------------------------------------------ walk-out

WALK_BLOCK = sweep_module._WALK_BLOCK


@pytest.fixture
def point_log(monkeypatch):
    """Every (technique, error vector) a table evaluates, through the real evaluate_point."""
    calls = []

    def logged(spec, err, cfg, shapes=None):
        calls.append((spec.kind, err))
        return evaluate_point(spec, err, cfg, shapes)

    monkeypatch.setattr(sweep_module, "evaluate_point", logged)
    return calls


def full_grid_rows(probes, thresholds, kinds, probs):
    """Rows read off complete P arrays, ``probs[(kind, channel)]``, by half_width."""
    rows = []
    for channel, axis in probes.items():
        grid = axis.values()
        for threshold in thresholds:
            batch = []
            for kind in kinds:
                hw, lo, hi = half_width(grid, probs[(kind, channel)], CHANNEL_NOMINALS[channel], threshold)
                censored = lo is not None and (lo == grid[0] or hi == grid[-1])
                batch.append(RobustnessRow(channel, kind, threshold, hw, lo, hi, censored))
            rows += sorted(batch, key=lambda r: -r.half_width)
    return rows


def plateau(probs, i0, floor):
    """Points in the contiguous probs >= floor run around i0 (0 if i0 is below it)."""
    if probs[i0] < floor:
        return 0
    i, j = i0, i0
    while i > 0 and probs[i - 1] >= floor:
        i -= 1
    while j < len(probs) - 1 and probs[j + 1] >= floor:
        j += 1
    return j - i + 1


WALK_KINDS = ("RE", "AF", "SP")
WALK_LEVELS = (0.0, 0.5, 0.98, 0.99, 0.995, 0.999, 0.9999, 1.0)


@st.composite
def walk_cases(draw):
    channel = draw(st.sampled_from(("alpha", "delta")))
    nominal = CHANNEL_NOMINALS[channel]
    n = draw(st.integers(1, 60))
    if n == 1:
        axis = SweepAxis(channel, nominal, nominal, 1)
    else:
        below, above = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        if below + above < 0.1:
            above += 0.1
        axis = SweepAxis(channel, nominal - below, nominal + above, n)
    i0 = int(np.argmin(np.abs(axis.values() - nominal)))
    probs = {}
    for kind in WALK_KINDS:
        left, right = draw(st.integers(0, i0)), draw(st.integers(0, n - 1 - i0))
        probs[(kind, channel)] = np.array([
            draw(st.sampled_from(WALK_LEVELS[3:] if i0 - left <= j <= i0 + right else WALK_LEVELS))
            for j in range(n)
        ])
    thresholds = tuple(draw(st.lists(st.sampled_from(WALK_LEVELS[2:7]), min_size=1, max_size=3)))
    return axis, probs, thresholds, i0


@settings(max_examples=40, deadline=None)
@given(walk_cases())
def test_walk_out_reads_only_what_the_rows_need(case):
    axis, probs, thresholds, i0 = case
    channel = axis.channel
    index = {float(v): j for j, v in enumerate(axis.values())}
    calls = []

    def synthetic(spec, err, cfg, shapes=None):
        j = index[getattr(err, channel)]
        calls.append((spec.kind, j))
        return float(probs[(spec.kind, channel)][j])

    specs = [nominal_spec(kind) for kind in WALK_KINDS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "evaluate_point", synthetic)
        rows = comparison_table(specs, {channel: axis}, thresholds, workers=1)
    assert rows == full_grid_rows({channel: axis}, thresholds, WALK_KINDS, probs)
    assert len(set(calls)) == len(calls)  # no point is evaluated twice
    for kind in WALK_KINDS:
        run = plateau(probs[(kind, channel)], i0, min(thresholds))
        cost = sum(1 for k, _ in calls if k == kind)
        assert cost <= run + 2 + 2 * (WALK_BLOCK - 1)


def test_a_technique_below_threshold_at_nominal_costs_one_point(fast_cfg, point_log):
    rows = comparison_table([nominal_spec("AF")], cfg=fast_cfg, workers=1)
    assert point_log == [("AF", ErrorVector())]  # its five sweeps share the nominal point
    assert len(rows) == 3 * len(DEFAULT_PROBES)
    assert all(r.half_width == 0.0 and r.lo is None and not r.censored for r in rows)


def test_sweeps_share_a_nominal_point_only_when_its_task_is_bitwise_the_same(fast_cfg, point_log):
    base = ErrorVector(alpha=1.1, delta=-0.0)  # P = sin^2(0.55 pi) < 0.99 off the alpha sweep
    comparison_table([RE], base_err=base, cfg=fast_cfg, workers=1)
    # the alpha sweep's nominal point, the one the other sweeps share, and the
    # delta sweep's, whose grid holds +0.0
    nominal = [replace(base, alpha=1.0), base, replace(base, delta=0.0)]
    assert point_log[:3] == [("RE", err) for err in nominal]
    assert np.signbit([err.delta for _, err in point_log[:3]]).tolist() == [True, True, False]
    assert all(err.alpha != 1.1 for _, err in point_log[3:])


def test_a_sweep_above_threshold_edge_to_edge_is_evaluated_whole_and_censored(fast_cfg, point_log):
    axis = SweepAxis("alpha", 0.98, 1.02, 21)  # P(0.98) = cos^2(0.01 pi) > 0.999
    (row,) = comparison_table([RE], {"alpha": axis}, (0.99,), cfg=fast_cfg, workers=1)
    assert sorted(err.alpha for _, err in point_log) == sorted(float(v) for v in axis.values())
    assert (row.lo, row.hi, row.censored) == (0.98, 1.02, True)
    assert row.half_width == pytest.approx(0.02)


def test_empty_thresholds_evaluate_nothing_and_start_no_pool(monkeypatch, point_log):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started")  # before any process is

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", NoPool)
    assert comparison_table([RE, nominal_spec("UCP")], thresholds=(), workers=2) == []
    assert point_log == []


@pytest.mark.parametrize(
    "axis", (SweepAxis("alpha", 1.2, 1.8, 5), SweepAxis("delta", -1.0, -0.5, 3), SweepAxis("sigma", 0.1, 0.1, 1))
)
def test_a_probe_without_its_nominal_value_is_rejected(axis, point_log):
    with pytest.raises(InvalidParameter, match=axis.channel):
        comparison_table([RE], {axis.channel: axis}, thresholds=(0.5,))
    assert point_log == []


def test_a_probe_keyed_by_another_channel_is_rejected(point_log):
    with pytest.raises(InvalidParameter, match="alpha.*delta"):
        comparison_table([RE], {"alpha": SweepAxis("delta", -1.0, 1.0, 21)}, (0.99,))
    assert point_log == []


def test_default_probes_cover_all_channels():
    assert set(DEFAULT_PROBES) == {"alpha", "duration_factor", "delta", "eta", "sigma"}
    assert all(ax.lo <= CHANNEL_NOMINALS[c] <= ax.hi for c, ax in DEFAULT_PROBES.items())


# P = level - k * (distance from nominal)^2, floored at 0: a plateau around every
# nominal point whose width depends on the technique (STA is below at nominal)
SYNTHETIC_SHAPE = {"RE": (1.0, 0.5), "AF": (1.0, 5.0), "STA": (0.98, 0.0), "SP": (1.0, 0.01)}
SYNTHETIC_PROBES = {  # dyadic cells, so each grid holds its nominal value exactly
    "alpha": SweepAxis("alpha", 0.0, 2.0, 65),
    "duration_factor": SweepAxis("duration_factor", 0.25, 1.75, 49),
    "delta": SweepAxis("delta", -4.0, 4.0, 65),
}
SYNTHETIC_THRESHOLDS = (0.99, 0.999)


def synthetic_point(spec, err, cfg, shapes=None, shape=SYNTHETIC_SHAPE):
    level, k = shape[spec.kind]
    d = sum(abs(getattr(err, c) - CHANNEL_NOMINALS[c]) for c in SYNTHETIC_PROBES)
    return max(level - k * d * d, 0.0)


def submission_log(monkeypatch):
    """Events in the parent, in order: ("submit", side) per block and ("result", side) when it is read.

    A side is (technique, channel, direction); a nominal point is side None.
    A result that raises is logged as ("raised", side).
    """
    events = []
    submit = sweep_module._submit

    def side(task):
        spec, err, _ = task
        for channel in SWEEP_CHANNELS:
            offset = getattr(err, channel) - CHANNEL_NOMINALS[channel]
            if offset:
                return spec.kind, channel, int(np.sign(offset))
        return None

    def logged(pool, tasks):
        future = submit(pool, tasks)
        key = side(tasks[0])
        assert all(side(task) == key for task in tasks)
        events.append(("submit", key))
        result = future.result

        def logged_result(timeout=None):
            try:
                values = result(timeout)
            except Exception:
                events.append(("raised", key))
                raise
            events.append(("result", key))
            return values

        future.result = logged_result
        return future

    monkeypatch.setattr(sweep_module, "_submit", logged)
    return events


def assert_one_block_in_flight_per_side(events):
    flight = Counter()
    for event, key in events:
        if key is None:
            continue
        flight[key] += 1 if event == "submit" else -1
        assert flight[key] in (0, 1), f"{key} has two blocks in flight"


@pytest.mark.parametrize("workers", (1, 2))
def test_the_pool_walk_evaluates_exactly_the_in_process_point_set(workers, monkeypatch):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep_module, "evaluate_point", synthetic_point)  # forked workers inherit it
    for channel, axis in SYNTHETIC_PROBES.items():
        assert CHANNEL_NOMINALS[channel] in axis.values()
    specs = [nominal_spec(kind) for kind in SYNTHETIC_SHAPE]
    sweeps = [(spec, axis, CHANNEL_NOMINALS[c]) for spec in specs for c, axis in SYNTHETIC_PROBES.items()]
    cfg = IntegratorConfig(steps_per_pulse=100)
    in_process = sweep_module._walk_out(sweeps, SYNTHETIC_THRESHOLDS, ErrorVector(), cfg, 1)
    events = submission_log(monkeypatch)
    walked = sweep_module._walk_out(sweeps, SYNTHETIC_THRESHOLDS, ErrorVector(), cfg, workers)
    for got, want in zip(walked, in_process):
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(got[~np.isnan(got)], want[~np.isnan(want)])
    # several blocks per side, sides that reach the probe edge, and a technique
    # below threshold at nominal all occur
    assert max(Counter(key for event, key in events if event == "submit" and key).values()) >= 3
    assert any(not np.isnan(p[[0, -1]]).any() for p in walked)
    assert [np.count_nonzero(~np.isnan(p)) for p in walked[6:9]] == [1, 1, 1]
    assert_one_block_in_flight_per_side(events)
    assert len([e for e in events if e[0] == "submit"]) == len([e for e in events if e[0] == "result"])

    rows = comparison_table(specs, SYNTHETIC_PROBES, SYNTHETIC_THRESHOLDS, cfg=cfg, workers=workers)
    full = {
        (spec.kind, c): [synthetic_point(spec, replace(ErrorVector(), **{c: v}), cfg) for v in axis.values()]
        for spec in specs
        for c, axis in SYNTHETIC_PROBES.items()
    }
    assert rows == full_grid_rows(SYNTHETIC_PROBES, SYNTHETIC_THRESHOLDS, SYNTHETIC_SHAPE, full)


def failing_on_the_upper_re_alpha_side(spec, err, cfg, shapes=None):
    if spec.kind == "RE" and err.alpha >= 1.3:
        raise NonConvergent("synthetic failure at alpha >= 1.3")
    # RE's plateau reaches past alpha = 1.3
    return synthetic_point(spec, err, cfg, shape=dict(SYNTHETIC_SHAPE, RE=(1.0, 0.01)))


@pytest.mark.parametrize("workers", (1, 2))
def test_a_failing_point_ends_the_walk(workers, monkeypatch, capsys):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep_module, "evaluate_point", failing_on_the_upper_re_alpha_side)
    events = submission_log(monkeypatch)
    specs = [nominal_spec(kind) for kind in SYNTHETIC_SHAPE]
    cfg = IntegratorConfig(steps_per_pulse=100)
    with pytest.raises(NonConvergent, match="alpha >= 1.3"):
        comparison_table(specs, SYNTHETIC_PROBES, SYNTHETIC_THRESHOLDS, cfg=cfg, workers=workers)
    kinds = [event for event, _ in events]
    assert kinds.count("raised") == 1 and "submit" not in kinds[kinds.index("raised"):]
    # the failing block is the upper alpha side's second (alpha = 1.28125 .. 1.5)
    assert events.count(("submit", ("RE", "alpha", 1))) == 2
    assert_one_block_in_flight_per_side(events)
    assert multiprocessing.active_children() == []

    argv = ["table", "--protocols", "RE,SP", "--steps-per-pulse", "100", "--workers", str(workers)]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure") and "alpha >= 1.3" in err[0]
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------- worker count


def test_worker_count_is_bounded_by_tasks_and_cpus(monkeypatch):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 64)
    assert sweep_module._resolve_workers(10**6, 7) == 7
    assert sweep_module._resolve_workers(10**6, 10**6) == 64
    assert sweep_module._resolve_workers(3, 10**6) == 3
    monkeypatch.setenv("PULSE_WORKERS", "5000")
    assert sweep_module._resolve_workers(1, 10**6) == 64
    monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: None)
    assert sweep_module._resolve_workers(1, 10**6) == 1
    monkeypatch.setenv("PULSE_WORKERS", "0")
    with pytest.raises(InvalidParameter):
        sweep_module._resolve_workers(1, 10)


def test_meta_records_workers_used(fast_cfg, monkeypatch):
    monkeypatch.delenv("PULSE_WORKERS", raising=False)
    axis = SweepAxis("alpha", 0.0, 2.0, 3)
    assert sweep1d(RE, axis, cfg=fast_cfg).meta["workers"] == 1
    assert sweep1d(RE, axis, cfg=fast_cfg, workers=8).meta["workers"] == min(3, os.cpu_count() or 1)


# ---------------------------------------------------------------- shape memo

MEMO_CFG = IntegratorConfig(steps_per_pulse=400)
MEMO_AXES = {
    "alpha": SweepAxis("alpha", 0.5, 1.5, 3),
    "duration_factor": SweepAxis("duration_factor", 0.8, 1.2, 3),
    "delta": SweepAxis("delta", -0.5, 0.5, 3),
    "eta": SweepAxis("eta", -0.3, 0.3, 3),
    "sigma": SweepAxis("sigma", -0.4, 0.4, 3),
}
MEMO_BASES = (
    ErrorVector(alpha=0.97, duration_factor=1.05, delta=0.05, eta=0.03, sigma=0.1),
    ErrorVector(delta=-0.02, eta=0.04, sigma=-0.2, centering="global", sta_alpha_scales_shortcut=False),
)


@pytest.fixture
def sampled(monkeypatch):
    """Every nominal part sampled: (width, pulse center, size, part, weak reference to the array)."""
    log = []
    parts_of = protocols._nominal_parts

    def logged(T_live, c, name, part):
        def sample(t):
            out = part(t)
            log.append((T_live, c, t.size, name, weakref.ref(out)))
            return out

        return sample

    def logged_parts(spec, T_live, c, ce, sp):
        parts = parts_of(spec, T_live, c, ce, sp)
        return {name: logged(T_live, c, name, part) for name, part in parts.items()}

    monkeypatch.setattr(protocols, "_nominal_parts", logged_parts)
    return log


def alive(log):
    """The entries of ``log`` whose sampled array is still referenced."""
    return [entry[:4] for entry in log if entry[4]() is not None]


@pytest.mark.parametrize("kind", ("RE", "AF", "STA", "SP", "CAP", "UCP"))
def test_memoized_sweep_is_bitwise_standalone(kind):
    spec = nominal_spec(kind)
    for base in MEMO_BASES:
        for channel, axis in MEMO_AXES.items():
            res = sweep1d(spec, axis, base, MEMO_CFG)
            alone = [
                evaluate_point(spec, replace(base, **{channel: float(v)}), MEMO_CFG)
                for v in axis.values()
            ]
            assert res.values == tuple(alone), (base, channel)


@pytest.mark.parametrize("workers", (1, 2))
def test_memoized_2d_with_inner_duration_axis_is_bitwise_standalone(workers):
    # 8 x 2 points: pool chunks of 2 tasks, so both workers reuse shapes too
    outer, inner = SweepAxis("alpha", 0.5, 1.5, 8), SweepAxis("duration_factor", 0.8, 1.2, 2)
    for kind in ("RE", "AF", "STA", "SP", "CAP", "UCP"):
        spec = nominal_spec(kind)
        res = sweep2d(spec, outer, inner, MEMO_BASES[0], MEMO_CFG, workers)
        alone = [
            evaluate_point(spec, replace(MEMO_BASES[0], alpha=float(a), duration_factor=float(d)), MEMO_CFG)
            for a in outer.values()
            for d in inner.values()
        ]
        assert res.values == tuple(alone), kind


def test_sp_shape_is_built_and_validated_once_per_shape(monkeypatch):
    built, probed = [], []
    shape_fns = protocols._sp_shape_functions

    def counted_shape(T, coeffs):
        built.append(T)
        env, det = shape_fns(T, coeffs)

        def probed_env(t):
            if len(t) == 2001:  # the finiteness probe of ProtocolSpec
                probed.append(T)
            return env(t)

        return probed_env, det

    monkeypatch.setattr(protocols, "_sp_shape_functions", counted_shape)
    sp = ProtocolSpec("SP", SQRT_PI, 1.0)
    assert built == probed == [1.0]  # making the spec checks the coefficients once
    built.clear()
    probed.clear()
    axes = (SweepAxis("delta", -0.5, 0.5, 4), SweepAxis("duration_factor", 0.8, 1.2, 3))
    sweep2d(sp, *axes, cfg=MEMO_CFG)
    assert sorted(built) == [0.8, 1.0, 1.2] and probed == []
    sweep2d(sp, *axes, cfg=MEMO_CFG)  # no cache spans sweeps: every shape is built again
    assert sorted(built) == [0.8, 0.8, 1.0, 1.0, 1.2, 1.2] and probed == []


def test_memo_is_emptied_after_a_sweep(sampled):
    sweep2d(nominal_spec("CAP"), MEMO_AXES["alpha"], MEMO_AXES["duration_factor"], cfg=MEMO_CFG)
    assert sampled and alive(sampled) == []


def test_memo_is_emptied_after_a_sweep_that_raised(sampled):
    # raised after the first point's samples were kept
    with pytest.raises(NonConvergent) as raised:
        sweep1d(nominal_spec("CAP"), MEMO_AXES["alpha"], cfg=replace(MEMO_CFG, convergence_tol=1e-12))
    assert sampled and alive(sampled) == []
    assert raised.traceback[-1].name == "propagate"  # the traceback is still held and whole


def test_duration_sweep_holds_one_shape_at_a_time(sampled, monkeypatch):
    builds, widths_held = [], []
    parts_of = protocols._nominal_parts

    def checked(T_live, part):
        def sample(t):
            widths_held.append({T for T, *_ in alive(sampled)} | {T_live})
            return part(t)

        return sample

    def checked_parts(spec, T_live, c, ce, sp):
        builds.append(T_live)
        return {name: checked(T_live, part) for name, part in parts_of(spec, T_live, c, ce, sp).items()}

    monkeypatch.setattr(protocols, "_nominal_parts", checked_parts)
    # alpha outer, duration inner: grouped by shape, each shape serves 3 points
    sweep2d(nominal_spec("CAP"), MEMO_AXES["alpha"], SweepAxis("duration_factor", 0.5, 1.5, 5), cfg=MEMO_CFG)
    assert len(builds) == len(set(builds)) * 3 == 5 * 3  # each CAP pulse built once per shape
    # envelope, detuning and tanh of every pulse, sampled once per shape, one shape held
    assert len(widths_held) == len(sampled) == 5 * 3 * 3
    assert max(Counter(entry[:4] for entry in sampled).values()) == 1
    assert max(len(widths) for widths in widths_held) == 1


def test_simulate_never_uses_the_memo(monkeypatch, tmp_path, sampled):
    keeps = []
    sampler = protocols._sampler
    monkeypatch.setattr(protocols, "_sampler", lambda parts, keep: keeps.append(keep) or sampler(parts, keep))
    for kind in ("SP", "STA", "CAP"):
        out = tmp_path / f"{kind}.txt"
        assert main(["simulate", "--protocol", kind, "--steps-per-pulse", "400", "--output", str(out)]) == 0
    assert keeps and not any(keeps)
    assert sampled and alive(sampled) == []


def test_memo_hit_needs_bitwise_equal_times():
    calls = []

    def envelope(t):
        calls.append(t)
        return 2.0 * t

    sample = protocols._sampler({"envelope": envelope}, keep=True)
    t = np.linspace(-1.0, 1.0, 5)
    first = sample(t, "envelope")
    assert sample(t.copy(), "envelope") is first and len(calls) == 1
    signed = t.copy()
    signed[2] = -0.0  # equal in value to t[2] == 0.0, not in bits
    kept = sample(signed, "envelope")
    assert kept is not first and len(calls) == 2
    fine = np.linspace(-1.0, 1.0, 9)
    assert sample(fine, "envelope") is sample(fine, "envelope") and len(calls) == 3
    assert sample(signed, "envelope") is kept and len(calls) == 3  # one slot per shape and first time
    later = t + 2.0  # the next block of a long window: same shape, other first time
    assert sample(later, "envelope") is sample(later, "envelope") and len(calls) == 4
    assert sample(signed, "envelope") is kept and len(calls) == 4
    fresh = protocols._sampler({"envelope": envelope}, keep=False)
    assert fresh(t, "envelope") is not fresh(t, "envelope") and len(calls) == 6


@pytest.mark.parametrize("kind", ("SP", "CAP"))
def test_long_sweep_keeps_each_part_once_per_block_and_is_bitwise_simulate(kind, monkeypatch, tmp_path):
    # three blocks per pulse, two of the same size
    steps = 2 * integrator._BLOCK + 1000
    sampled = []
    parts_of = protocols._nominal_parts

    def logged(T_live, c, name, part):
        def sample(t):
            sampled.append((T_live, c, name, t.size, t[0]))
            return part(t)

        return sample

    def logged_parts(spec, T_live, c, ce, sp):
        return {name: logged(T_live, c, name, part) for name, part in parts_of(spec, T_live, c, ce, sp).items()}

    monkeypatch.setattr(protocols, "_nominal_parts", logged_parts)
    spec = nominal_spec(kind)
    axes = (SweepAxis("duration_factor", 0.9, 1.1, 2), SweepAxis("alpha", 0.95, 1.05, 2))
    res = sweep2d(spec, *axes, cfg=IntegratorConfig(steps_per_pulse=steps))
    # two shape groups, envelope, detuning and tanh of every pulse, three blocks each
    assert len(set(sampled)) == len(sampled) == 2 * spec.pulse_count * 3 * 3
    for (d, a), value in zip(sweep_module._grid_points(axes), res.values):
        out = tmp_path / "simulate.txt"
        argv = ["simulate", "--protocol", kind, f"--steps-per-pulse={steps}",
                f"--duration-factor={d!r}", f"--alpha={a!r}", "--output", str(out)]
        assert main(argv) == 0
        p = float(dict(line.split(" = ") for line in out.read_text().splitlines())["P"])
        assert value == min(max(p, 0.0), 1.0)


CERT_AXES = (SweepAxis("duration_factor", 0.6, 1.4, 3), SweepAxis("alpha", 0.5, 1.5, 5))


@pytest.mark.parametrize("kind, tol", (("CAP", 6.5e-5), ("SP", 1e-3)))
def test_certified_points_under_the_memo_are_bitwise_standalone(kind, tol, sampled):
    # duration outer, alpha inner: each shape's N and 2N samples serve several points
    spec = nominal_spec(kind)
    cfg = IntegratorConfig(steps_per_pulse=400, convergence_tol=tol)
    tasks = sweep_module._grid_tasks(spec, CERT_AXES, ErrorVector(), cfg)

    def outcome(err, shapes=None):
        try:
            return evaluate_point(spec, err, cfg, shapes)
        except NonConvergent:
            return "NonConvergent"

    alone = [outcome(err) for _, err, _ in tasks]
    sampled.clear()
    shapes = functools.lru_cache(maxsize=1)(functools.partial(protocols.nominal_pulses, keep=True))
    memoized = []
    for _, err, _ in tasks:
        memoized.append(outcome(err, shapes))
        # every pulse is kept at N steps, the first of the shape also at 2N
        half = protocols.WINDOW_HALF_WIDTH * err.duration_factor * spec.T
        n = spec.pulse_count
        centers = [half * (2 * k + 1 - n) for k in range(n)]
        slots = {(c, 400) for c in centers} | {(centers[0], 800)}
        kept = {(c, size) for _, c, size, _ in alive(sampled)}
        if memoized[-1] == "NonConvergent":  # raised before the later pulses
            assert kept <= slots
        else:
            assert kept == slots
    assert memoized == alone
    assert "NonConvergent" in alone and any(isinstance(p, float) for p in alone)
    assert max(Counter(entry[:4] for entry in sampled).values()) == 1  # each part once per shape

    loose = replace(cfg, convergence_tol=1.0)
    values = sweep2d(spec, *CERT_AXES, cfg=loose).values
    assert values == tuple(evaluate_point(spec, err, loose) for _, err, _ in tasks)
    with pytest.raises(NonConvergent):
        sweep2d(spec, *CERT_AXES, cfg=cfg)


def test_memoized_controls_return_fresh_arrays():
    spec = nominal_spec("STA")
    t = np.linspace(-6.0, 6.0, 101)
    w = apply_errors(spec, ErrorVector(alpha=0.9), functools.partial(protocols.nominal_pulses, keep=True)).pulses[0]
    first_r, first_d = w.rabi(t), w.detuning(t)
    first_r[:] = 0.0
    first_d[:] = 0.0
    w_alone = apply_errors(spec, ErrorVector(alpha=0.9)).pulses[0]
    assert np.array_equal(w.rabi(t), w_alone.rabi(t))
    assert np.array_equal(w.detuning(t), w_alone.detuning(t))
