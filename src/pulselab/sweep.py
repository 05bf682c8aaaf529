"""Transition-probability maps over grids of error-channel values.

Grid points are independent, pure computations, so they can be farmed out to
a process pool; results are placed by grid index and are identical for any
worker count.  The environment variable ``PULSE_WORKERS`` overrides the
requested worker count (it can change the runtime, never the values); the
count actually used is at most the number of grid points and of CPUs, and is
recorded in the result's ``meta.workers``.

Most points of a grid share one nominal pulse shape: only ``duration_factor``
and ``centering`` change it, while alpha, delta, eta and sigma act on top of
it (:func:`~pulselab.channels.apply_errors` applies them to the parts of
:func:`~pulselab.protocols.nominal_pulses`).  A grid is therefore evaluated grouped by :func:`~pulselab.protocols.shape_key`
(first appearance first, grid order within a group), and each in-process run
or pool chunk opens one :class:`~pulselab.protocols.ShapeMemo`, so every
shape is built, validated and sampled once per group instead of once per
point.  The memo holds one shape at a time and is emptied when the run ends,
also on an exception; nothing outside a sweep uses it.

:func:`comparison_table` evaluates all of its (technique, channel) sweeps as
one grid: one task list, one call of the grid runner and so at most one pool,
with the values sliced back per sweep.  Its shape groups therefore span the
sweeps of a technique: the alpha, delta, eta and sigma points share the
nominal shape.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import __version__
from .channels import ErrorVector, apply_errors
from .core import InvalidParameter
from .integrator import DEFAULT_CONFIG, IntegratorConfig, propagate_sequence
from .protocols import ProtocolSpec, ShapeMemo, shape_key

__all__ = [
    "SWEEP_CHANNELS",
    "CHANNEL_NOMINALS",
    "SweepAxis",
    "SweepResult",
    "RobustnessRow",
    "evaluate_point",
    "sweep1d",
    "sweep2d",
    "half_width",
    "comparison_table",
    "DEFAULT_PROBES",
]

SWEEP_CHANNELS = ("alpha", "duration_factor", "delta", "eta", "sigma")

# Channel value at which the sequence is nominal.
CHANNEL_NOMINALS: Dict[str, float] = {
    "alpha": 1.0,
    "duration_factor": 1.0,
    "delta": 0.0,
    "eta": 0.0,
    "sigma": 0.0,
}


@dataclass(frozen=True)
class SweepAxis:
    """One error channel scanned over [lo, hi] with uniformly spaced points.

    A single-point axis (points == 1 with lo == hi) is allowed as the
    degenerate case, so a 2-D sweep can collapse onto a 1-D one.
    """

    channel: str
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if self.channel not in SWEEP_CHANNELS:
            raise InvalidParameter(f"channel must be one of {SWEEP_CHANNELS}, got {self.channel!r}")
        if self.points < 1:
            raise InvalidParameter(f"points must be >= 1, got {self.points}")
        if self.points == 1:
            if self.lo != self.hi:
                raise InvalidParameter("a 1-point axis must have lo == hi")
        elif not self.lo < self.hi:
            raise InvalidParameter(f"axis needs lo < hi, got [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.points)

    @property
    def cell(self) -> float:
        return 0.0 if self.points == 1 else (self.hi - self.lo) / (self.points - 1)


@dataclass(frozen=True)
class SweepResult:
    """Grid of transition probabilities plus run metadata.

    ``values`` is row-major: for two axes, the first axis indexes rows.
    """

    axes: Tuple[SweepAxis, ...]
    protocol: ProtocolSpec
    values: Tuple[float, ...]
    meta: Dict[str, object]

    def __post_init__(self) -> None:
        expected = 1
        for ax in self.axes:
            expected *= ax.points
        if len(self.values) != expected:
            raise InvalidParameter(
                f"values length {len(self.values)} does not match grid size {expected}"
            )
        if any(not (0.0 <= v <= 1.0) for v in self.values):
            raise InvalidParameter("probabilities must lie in [0, 1]")

    def grid(self) -> np.ndarray:
        shape = tuple(ax.points for ax in self.axes)
        return np.asarray(self.values).reshape(shape)


def evaluate_point(
    spec: ProtocolSpec, err: ErrorVector, cfg: IntegratorConfig, shapes: ShapeMemo | None = None
) -> float:
    """Transition probability of one protocol under one error vector."""
    u = propagate_sequence(apply_errors(spec, err, shapes), cfg)
    p = abs(u.b) ** 2
    return float(min(max(p, 0.0), 1.0))


_Task = Tuple[ProtocolSpec, ErrorVector, IntegratorConfig]


def _eval_chunk(tasks: List[_Task]) -> List[float]:
    with ShapeMemo() as shapes:
        return [evaluate_point(spec, err, cfg, shapes) for spec, err, cfg in tasks]


def _resolve_workers(workers: int, tasks: int) -> int:
    """Worker count to use: ``PULSE_WORKERS`` or ``workers``, at most one per task and CPU."""
    env = os.environ.get("PULSE_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError as exc:
            raise InvalidParameter(f"PULSE_WORKERS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def _run_grid(tasks: List[_Task], workers: int) -> Tuple[List[float], int]:
    """Values of ``tasks`` in task order, and the worker count used."""
    workers = _resolve_workers(workers, len(tasks))
    first: Dict[tuple, int] = {}
    keys = [shape_key(spec, err.duration_factor, err.centering) for spec, err, _ in tasks]
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    order = sorted(range(len(tasks)), key=lambda i: first[keys[i]])
    grouped = [tasks[i] for i in order]
    if workers == 1:
        results = _eval_chunk(grouped)
    else:
        # Many small chunks per worker: a composite point costs several times a
        # single-pulse one, so a few large chunks leave one worker idle at the end.
        size = max(1, len(tasks) // (workers * 16))
        chunks = [grouped[i : i + size] for i in range(0, len(grouped), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [p for chunk in pool.map(_eval_chunk, chunks) for p in chunk]
    values = [0.0] * len(tasks)
    for i, p in zip(order, results):
        values[i] = p
    return values, workers


def _meta(cfg: IntegratorConfig, base_err: ErrorVector, workers: int) -> Dict[str, object]:
    return {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workers": workers,
        "integrator": asdict(cfg),
        "base_errors": asdict(base_err),
    }


def _line_tasks(
    spec: ProtocolSpec, axis: SweepAxis, base_err: ErrorVector, cfg: IntegratorConfig
) -> List[_Task]:
    return [(spec, replace(base_err, **{axis.channel: float(v)}), cfg) for v in axis.values()]


def sweep1d(
    spec: ProtocolSpec,
    axis: SweepAxis,
    base_err: ErrorVector = ErrorVector(),
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    workers: int = 1,
) -> SweepResult:
    """Scan one channel; the other channels are held at ``base_err``."""
    values, used = _run_grid(_line_tasks(spec, axis, base_err, cfg), workers)
    return SweepResult((axis,), spec, tuple(values), _meta(cfg, base_err, used))


def sweep2d(
    spec: ProtocolSpec,
    axis_a: SweepAxis,
    axis_b: SweepAxis,
    base_err: ErrorVector = ErrorVector(),
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    workers: int = 1,
) -> SweepResult:
    """Scan two channels over their Cartesian grid, row-major in axis_a."""
    if axis_a.channel == axis_b.channel:
        raise InvalidParameter("the two sweep axes must use different channels")
    tasks = [
        (spec, replace(base_err, **{axis_a.channel: float(va), axis_b.channel: float(vb)}), cfg)
        for va in axis_a.values()
        for vb in axis_b.values()
    ]
    values, used = _run_grid(tasks, workers)
    return SweepResult((axis_a, axis_b), spec, tuple(values), _meta(cfg, base_err, used))


def half_width(
    grid: Sequence[float],
    probs: Sequence[float],
    nominal: float,
    threshold: float,
) -> Tuple[float, float | None, float | None]:
    """Half-width of the contiguous probs >= threshold region around nominal.

    Returns ``(half_width, lo, hi)`` where [lo, hi] is the super-threshold
    interval of grid points containing the nominal one and half_width is the
    smaller distance from the nominal value to either edge (the guaranteed
    symmetric tolerance).  Returns (0.0, None, None) when even the nominal
    point is below threshold.  Edges touching the probe range are censored at
    that range.
    """
    grid = np.asarray(grid, dtype=float)
    probs = np.asarray(probs, dtype=float)
    i0 = int(np.argmin(np.abs(grid - nominal)))
    if probs[i0] < threshold:
        return 0.0, None, None
    i = i0
    while i > 0 and probs[i - 1] >= threshold:
        i -= 1
    j = i0
    while j < len(grid) - 1 and probs[j + 1] >= threshold:
        j += 1
    return float(min(nominal - grid[i], grid[j] - nominal)), float(grid[i]), float(grid[j])


@dataclass(frozen=True)
class RobustnessRow:
    """Measured robustness of one protocol against one channel."""

    channel: str
    protocol: str
    threshold: float
    half_width: float
    lo: float | None
    hi: float | None
    censored: bool


DEFAULT_PROBES: Dict[str, SweepAxis] = {
    "alpha": SweepAxis("alpha", 0.0, 2.0, 201),
    "duration_factor": SweepAxis("duration_factor", 0.1, 2.0, 191),
    "delta": SweepAxis("delta", -4.0, 4.0, 201),
    "eta": SweepAxis("eta", -4.0, 4.0, 201),
    "sigma": SweepAxis("sigma", -0.9, 0.9, 37),
}


def comparison_table(
    specs: Iterable[ProtocolSpec],
    probes: Mapping[str, SweepAxis] | None = None,
    thresholds: Sequence[float] = (0.99, 0.999, 0.9999),
    base_err: ErrorVector = ErrorVector(),
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    workers: int = 1,
) -> List[RobustnessRow]:
    """Half-width robustness summary over protocols and channels.

    For every protocol and channel the P >= threshold half-width around the
    nominal point is measured on the probe grid; rows are ordered per channel
    and threshold with the most robust protocol first.
    """
    probes = dict(DEFAULT_PROBES if probes is None else probes)
    specs = list(specs)
    tasks: List[_Task] = []
    start: Dict[Tuple[int, str], int] = {}
    for i, spec in enumerate(specs):
        for channel, axis in probes.items():
            start[(i, channel)] = len(tasks)
            tasks += _line_tasks(spec, axis, base_err, cfg)
    values, _ = _run_grid(tasks, workers)
    rows: List[RobustnessRow] = []
    for channel, axis in probes.items():
        nominal = CHANNEL_NOMINALS[channel]
        grid = axis.values()
        for threshold in thresholds:
            batch = []
            for i, spec in enumerate(specs):
                k = start[(i, channel)]
                hw, lo, hi = half_width(grid, values[k : k + axis.points], nominal, threshold)
                censored = lo is not None and (lo == grid[0] or hi == grid[-1])
                batch.append(
                    RobustnessRow(channel, spec.kind, threshold, hw, lo, hi, censored)
                )
            batch.sort(key=lambda r: -r.half_width)
            rows.extend(batch)
    return rows
