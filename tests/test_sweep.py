"""Sweep engine: grids, determinism, worker invariance, robustness table."""
import os
from dataclasses import replace

import numpy as np
import pytest

from pulselab import protocols
from pulselab import sweep as sweep_module
from pulselab.channels import ErrorVector, apply_errors
from pulselab.cli import main
from pulselab.core import InvalidParameter
from pulselab.integrator import IntegratorConfig, NonConvergent
from pulselab.protocols import SQRT_PI, ProtocolSpec, ShapeMemo, SingularControl, nominal_spec
from pulselab.sweep import (
    CHANNEL_NOMINALS,
    DEFAULT_PROBES,
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


def test_default_probes_cover_all_channels():
    assert set(DEFAULT_PROBES) == {"alpha", "duration_factor", "delta", "eta", "sigma"}


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
def memo_log(monkeypatch):
    """Every ShapeMemo a sweep opens, recorded through the name sweep looks up."""
    made = []

    class LoggedMemo(ShapeMemo):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(sweep_module, "ShapeMemo", LoggedMemo)
    return made


def assert_empty(memos):
    assert memos
    for memo in memos:
        assert memo.key is None and not memo.samples


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
            if len(t) == 2001:  # the validation probe of _sp_controls
                probed.append(T)
            return env(t)

        return probed_env, det

    monkeypatch.setattr(protocols, "_sp_shape_functions", counted_shape)
    protocols._sp_controls.cache_clear()
    sp = nominal_spec("SP")
    axes = (SweepAxis("delta", -0.5, 0.5, 4), SweepAxis("duration_factor", 0.8, 1.2, 3))
    sweep2d(sp, *axes, cfg=MEMO_CFG)
    assert sorted(built) == sorted(probed) == [0.8, 1.0, 1.2]
    sweep2d(sp, *axes, cfg=MEMO_CFG)  # a second sweep finds every shape cached
    assert len(built) == len(probed) == 3
    protocols._sp_controls.cache_clear()


def test_memo_is_emptied_after_a_sweep(memo_log):
    sweep2d(nominal_spec("CAP"), MEMO_AXES["alpha"], MEMO_AXES["duration_factor"], cfg=MEMO_CFG)
    assert_empty(memo_log)


def test_memo_is_emptied_after_a_sweep_that_raised(memo_log):
    singular = ProtocolSpec("SP", SQRT_PI, 1.0, sp_coeffs=(1e200,))
    for _ in range(2):  # exceptions are not cached: every build raises
        with pytest.raises(SingularControl):
            sweep1d(singular, MEMO_AXES["delta"], cfg=MEMO_CFG)
        with pytest.raises(SingularControl):
            protocols._sp_controls(1.0, (1e200,))
    # raised after the first point's samples were held
    with pytest.raises(NonConvergent):
        sweep1d(nominal_spec("CAP"), MEMO_AXES["alpha"], cfg=replace(MEMO_CFG, convergence_tol=1e-12))
    assert len(memo_log) == 3
    assert_empty(memo_log)


def test_duration_sweep_holds_one_shape_at_a_time(monkeypatch):
    held = []

    class CheckedMemo(ShapeMemo):
        def __init__(self):
            super().__init__()
            memo = self

            class CheckedSamples(dict):
                def __setitem__(self, slot, value):
                    super().__setitem__(slot, value)
                    n, T_live = memo.key[6], memo.key[3]
                    half = protocols.WINDOW_HALF_WIDTH * T_live
                    centers = {half * (2 * k + 1 - n) for k in range(n)}
                    assert {pulse[0] for pulse, _ in self} <= centers
                    held.append((memo.key, len(self)))

            self.samples = CheckedSamples()

    monkeypatch.setattr(sweep_module, "ShapeMemo", CheckedMemo)
    axis = SweepAxis("duration_factor", 0.5, 1.5, 5)
    sweep1d(nominal_spec("CAP"), axis, cfg=MEMO_CFG)
    assert len({key for key, _ in held}) == axis.points
    assert max(n for _, n in held) == 3  # one entry per CAP pulse


def test_simulate_never_uses_the_memo(monkeypatch, tmp_path):
    used = []
    monkeypatch.setattr(ShapeMemo, "__init__", lambda self: used.append("made"))
    monkeypatch.setattr(ShapeMemo, "switch", lambda self, key: used.append(key))
    for kind in ("SP", "STA", "CAP"):
        out = tmp_path / f"{kind}.txt"
        assert main(["simulate", "--protocol", kind, "--steps-per-pulse", "400", "--output", str(out)]) == 0
    assert used == []


def test_memo_hit_needs_current_key_and_bitwise_equal_times():
    calls = []

    def envelope(t):
        calls.append(t)
        return 2.0 * t

    memo = ShapeMemo()
    memo.switch("a")
    sample = protocols._sampler({"envelope": envelope}, memo, "a", (0.0, 0.0))
    t = np.linspace(-1.0, 1.0, 5)
    first = sample(t, "envelope")
    assert sample(t.copy(), "envelope") is first and len(calls) == 1
    signed = t.copy()
    signed[2] = -0.0  # equal in value to t[2] == 0.0, not in bits
    assert sample(signed, "envelope") is not first and len(calls) == 2
    stale = protocols._sampler({"envelope": envelope}, memo, "b", (0.0, 0.0))
    slots = dict(memo.samples)
    assert stale(t, "envelope") is not stale(t, "envelope") and len(calls) == 4
    assert memo.samples == slots
    memo.switch("b")
    assert not memo.samples


CERT_AXES = (SweepAxis("duration_factor", 0.6, 1.4, 3), SweepAxis("alpha", 0.5, 1.5, 5))


@pytest.mark.parametrize("kind, tol", (("CAP", 6.5e-5), ("SP", 1e-3)))
def test_certified_points_under_the_memo_are_bitwise_standalone(kind, tol):
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
    with ShapeMemo() as memo:
        memoized = []
        for _, err, _ in tasks:
            memoized.append(outcome(err, memo))
            # every pulse is sampled at N steps, the first of the shape also at 2N
            half = protocols.WINDOW_HALF_WIDTH * err.duration_factor * spec.T
            n = spec.pulse_count
            pulses = [(half * (2 * k + 1 - n),) * 2 for k in range(n)]
            slots = {(pulse, (400,)) for pulse in pulses} | {(pulses[0], (800,))}
            if memoized[-1] == "NonConvergent":  # raised before the later pulses
                assert set(memo.samples) <= slots
            else:
                assert set(memo.samples) == slots
    assert memoized == alone
    assert "NonConvergent" in alone and any(isinstance(p, float) for p in alone)

    loose = replace(cfg, convergence_tol=1.0)
    values = sweep2d(spec, *CERT_AXES, cfg=loose).values
    assert values == tuple(evaluate_point(spec, err, loose) for _, err, _ in tasks)
    with pytest.raises(NonConvergent):
        sweep2d(spec, *CERT_AXES, cfg=cfg)


def test_memoized_controls_return_fresh_arrays():
    spec = nominal_spec("STA")
    t = np.linspace(-6.0, 6.0, 101)
    with ShapeMemo() as memo:
        w = apply_errors(spec, ErrorVector(alpha=0.9), memo).pulses[0]
        first_r, first_d = w.rabi(t), w.detuning(t)
        first_r[:] = 0.0
        first_d[:] = 0.0
        w_alone = apply_errors(spec, ErrorVector(alpha=0.9)).pulses[0]
        assert np.array_equal(w.rabi(t), w_alone.rabi(t))
        assert np.array_equal(w.detuning(t), w_alone.detuning(t))
