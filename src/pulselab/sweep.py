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
:func:`~pulselab.protocols.nominal_pulses`).  A grid is therefore evaluated
grouped by ``(spec, duration_factor, centering)`` (first appearance first,
grid order within a group), and each in-process run or pool chunk calls
``nominal_pulses`` with ``keep`` through a one-entry cache on those same
arguments, so every shape is built and sampled once per group instead of once
per point.  A shape's samples can only come from the call that built them.
The cache holds one shape at a time and is cleared when the run ends, also on
an exception, whose traceback then holds no sampled arrays either; nothing
outside a sweep keeps samples.  The shaped pulse's coefficients are checked
once, when its :class:`~pulselab.protocols.ProtocolSpec` is made (pool
workers receive the checked spec); its schedule is built with each shape and
is dropped with it.

:func:`comparison_table` evaluates all of its (technique, channel) sweeps
together, outward from each nominal point: every distinct nominal point
first (one evaluation seeds every sweep that shares it), then, as each
result returns, the next block of ``_WALK_BLOCK`` points on each side
whose points so far all reach the lowest threshold.  A side stops at its first
point below it, since no row reads past that point, so the rows are those of
the full probe grids.  The sides do not wait for one another, each has at
most one block in flight, and every block runs on the same pool, so the table
starts at most one.  A block is one pool chunk, and its points share their
nominal shape unless they step ``duration_factor``.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import __version__
from .channels import ErrorVector, apply_errors
from .core import InvalidParameter
from .integrator import DEFAULT_CONFIG, IntegratorConfig, propagate_sequence
from .protocols import ProtocolSpec, nominal_pulses

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
    "MAX_AXIS_POINTS",
    "MAX_GRID_POINTS",
    "check_grid_size",
]

SWEEP_CHANNELS = ("alpha", "duration_factor", "delta", "eta", "sigma")

# Channel value at which the sequence is nominal: the error-free vector's.
CHANNEL_NOMINALS: Dict[str, float] = {channel: getattr(ErrorVector(), channel) for channel in SWEEP_CHANNELS}

# Size bounds of a sweep, checked before anything is allocated: about 50x the
# table's 201-point probes per axis, and about 10x the 101 x 101 maps of
# scripts/make_figures.py per grid (its task list takes about 0.3 kB a point).
MAX_AXIS_POINTS = 10_000
MAX_GRID_POINTS = 100_000


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
        if not 1 <= self.points <= MAX_AXIS_POINTS:
            raise InvalidParameter(f"points must be in [1, {MAX_AXIS_POINTS}], got {self.points}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and math.isfinite(self.hi - self.lo)):
            raise InvalidParameter(f"axis bounds must be finite, got [{self.lo}, {self.hi}], and so must hi - lo")
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
    spec: ProtocolSpec, err: ErrorVector, cfg: IntegratorConfig, shapes: Callable[..., tuple] | None = None
) -> float:
    """Transition probability of one protocol under one error vector.

    ``shapes`` is passed on to :func:`~pulselab.channels.apply_errors`: a
    sweep's cache of kept nominal shapes, or None to build them afresh.
    """
    u = propagate_sequence(apply_errors(spec, err, shapes), cfg)
    p = abs(u.b) ** 2
    return float(min(max(p, 0.0), 1.0))


_Task = Tuple[ProtocolSpec, ErrorVector, IntegratorConfig]


def _eval_chunk(tasks: List[_Task]) -> List[float]:
    shapes = functools.lru_cache(maxsize=1)(functools.partial(nominal_pulses, keep=True))
    try:
        return [evaluate_point(spec, err, cfg, shapes) for spec, err, cfg in tasks]
    except Exception as exc:
        # the failed point's sequence, with the samples it keeps, would live on
        # in the traceback's frames
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        shapes.cache_clear()


def _resolve_workers(workers: int, tasks: int) -> int:
    """Worker count to use: a non-empty ``PULSE_WORKERS`` or ``workers``, at most one per task and CPU."""
    env = os.environ.get("PULSE_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError as exc:
            raise InvalidParameter(f"PULSE_WORKERS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def _evaluate(tasks: List[_Task], workers: int, pool: ProcessPoolExecutor | None) -> List[float]:
    """Values of ``tasks`` in task order, on ``pool``'s ``workers`` processes or, without one, here."""
    first: Dict[tuple, int] = {}
    keys = [(spec, err.duration_factor, err.centering) for spec, err, _ in tasks]
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    order = sorted(range(len(tasks)), key=lambda i: first[keys[i]])
    grouped = [tasks[i] for i in order]
    if pool is None:
        results = _eval_chunk(grouped)
    else:
        # Many small chunks per worker: a composite point costs several times a
        # single-pulse one, so a few large chunks leave one worker idle at the end.
        size = max(1, len(tasks) // (workers * 16))
        chunks = [grouped[i : i + size] for i in range(0, len(grouped), size)]
        results = [p for chunk in pool.map(_eval_chunk, chunks) for p in chunk]
    values = [0.0] * len(tasks)
    for i, p in zip(order, results):
        values[i] = p
    return values


def _open_pool(workers: int):
    """A pool of ``workers`` processes to use as a context manager; none for one worker."""
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()


def _run_grid(tasks: List[_Task], workers: int) -> Tuple[List[float], int]:
    """Values of ``tasks`` in task order, and the worker count used."""
    workers = _resolve_workers(workers, len(tasks))
    with _open_pool(workers) as pool:
        return _evaluate(tasks, workers, pool), workers


def _meta(cfg: IntegratorConfig, base_err: ErrorVector, workers: int) -> Dict[str, object]:
    return {
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workers": workers,
        "integrator": asdict(cfg),
        "base_errors": asdict(base_err),
    }


def check_grid_size(axes: Sequence[SweepAxis]) -> None:
    """Raise :class:`InvalidParameter` if the grid of ``axes`` has more than ``MAX_GRID_POINTS`` points."""
    total = math.prod(ax.points for ax in axes)
    if total > MAX_GRID_POINTS:
        shape = " x ".join(str(ax.points) for ax in axes)
        raise InvalidParameter(f"a sweep grid has at most {MAX_GRID_POINTS} points, got {shape} = {total}")


def _grid_tasks(
    spec: ProtocolSpec, axes: Sequence[SweepAxis], base_err: ErrorVector, cfg: IntegratorConfig
) -> List[_Task]:
    """One task per grid point of ``axes``, in :func:`_grid_points` order."""
    check_grid_size(axes)
    channels = [ax.channel for ax in axes]
    return [
        (spec, replace(base_err, **dict(zip(channels, point))), cfg)
        for point in _grid_points(axes)
    ]


def _grid_points(axes: Sequence[SweepAxis]) -> List[Tuple[float, ...]]:
    """Every grid point of ``axes``, row-major (the first axis indexes rows)."""
    return [tuple(map(float, point)) for point in itertools.product(*(ax.values() for ax in axes))]


def sweep1d(
    spec: ProtocolSpec,
    axis: SweepAxis,
    base_err: ErrorVector = ErrorVector(),
    cfg: IntegratorConfig = DEFAULT_CONFIG,
    workers: int = 1,
) -> SweepResult:
    """Scan one channel; the other channels are held at ``base_err``."""
    values, used = _run_grid(_grid_tasks(spec, (axis,), base_err, cfg), workers)
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
    values, used = _run_grid(_grid_tasks(spec, (axis_a, axis_b), base_err, cfg), workers)
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


# Probe points by which a still-passing side of a table sweep grows per block.
_WALK_BLOCK = 8


def _block(j: int, step: int, n: int) -> range:
    """The next ``_WALK_BLOCK`` indices past ``j`` in direction ``step``, cut at [0, n)."""
    if step > 0:
        return range(j + 1, min(j + 1 + _WALK_BLOCK, n))
    return range(j - 1, max(j - 1 - _WALK_BLOCK, -1), -1)


def _submit(pool: ProcessPoolExecutor | None, tasks: List[_Task]) -> Future:
    """The future of ``tasks``' values: run on ``pool``, or, without one, here before returning."""
    if pool is not None:
        return pool.submit(_eval_chunk, tasks)
    future: Future = Future()
    try:
        future.set_result(_eval_chunk(tasks))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _walk_out(
    sweeps: List[Tuple[ProtocolSpec, SweepAxis, float]],
    thresholds: Sequence[float],
    base_err: ErrorVector,
    cfg: IntegratorConfig,
    workers: int,
) -> List[np.ndarray]:
    """P of each (spec, axis, nominal) sweep on the points its table rows read; NaN elsewhere.

    Every sweep's nominal point, the one :func:`half_width` starts from, is
    submitted first, once per distinct task: a technique's sweeps share it
    whenever ``base_err`` holds every probed channel at its probe's nominal
    value (the default table evaluates 6 nominal points, not 30).  When it
    returns at or above the lowest threshold, the first block of each of its
    sweeps' two sides is submitted; when a side's block
    returns with all its points at or above it, that side's next block is
    submitted at once, whatever the other sides are doing.  A side stops at
    its first point below every threshold or at the grid edge, so
    :func:`half_width` never needs a point left NaN (not evaluated).  Each
    side has at most one block in flight, and all blocks share one pool,
    sized once over the full probe count.

    A point that raises ends the walk: once its exception is seen no block is
    submitted, the blocks not yet started are cancelled, and the exception
    propagates.  When several points raise, which exception propagates (and
    so which point an error message names) can depend on the order in which
    blocks complete; that the walk fails, and so the exit code, cannot.
    """
    grids = [axis.values() for _, axis, _ in sweeps]
    probs = [np.full(len(grid), np.nan) for grid in grids]
    floor = min(thresholds)

    def task(s: int, j: int) -> _Task:
        spec, axis, _ = sweeps[s]
        return spec, replace(base_err, **{axis.channel: float(grids[s][j])}), cfg

    # Each distinct nominal task -> the (sweep, [index]) it seeds.  The key is
    # the task's repr, which tells every two floats apart (also -0.0 and 0.0).
    nominals: Dict[str, Tuple[_Task, List[Tuple[int, Sequence[int]]]]] = {}
    for s, (grid, (_, _, nominal)) in enumerate(zip(grids, sweeps)):
        j = int(np.argmin(np.abs(grid - nominal)))
        nominal_task = task(s, j)
        nominals.setdefault(repr(nominal_task[:2]), (nominal_task, []))[1].append((s, [j]))

    workers = _resolve_workers(workers, sum(len(grid) for grid in grids))
    with _open_pool(workers) as pool:
        # future in flight -> (sweeps, step): the (sweep, indices) it answers,
        # and step 0 for a nominal point, else the direction its side grows in
        flight: Dict[Future, Tuple[List[Tuple[int, Sequence[int]]], int]] = {}

        def submit(s: int, step: int, block: Sequence[int]) -> None:
            flight[_submit(pool, [task(s, j) for j in block])] = ([(s, block)], step)

        try:
            for nominal_task, seeded in nominals.values():
                flight[_submit(pool, [nominal_task])] = (seeded, 0)
            while flight:
                done, _ = wait(flight, return_when=FIRST_COMPLETED)
                for future in [f for f in flight if f in done]:  # in submission order
                    answered, step = flight.pop(future)
                    values = future.result()
                    for s, block in answered:
                        probs[s][block] = values
                        if all(probs[s][j] >= floor for j in block):
                            for side in (step,) if step else (-1, 1):
                                if following := _block(block[-1], side, len(grids[s])):
                                    submit(s, side, following)
        finally:
            for future in flight:
                future.cancel()
    return probs


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
    and threshold with the most robust protocol first.  Every probe axis must
    be keyed by its own channel and contain that channel's nominal value.

    The sweeps are evaluated outward from the nominal point in blocks of
    ``_WALK_BLOCK`` points, each side growing as soon as its last block
    returns and stopping at its first point below the lowest threshold, so
    only the points a row can depend on are computed.  The rows are those of
    the full probe grids, and at most one pool is started for the whole
    table.
    """
    probes = dict(DEFAULT_PROBES if probes is None else probes)
    for channel, axis in probes.items():
        if channel != axis.channel:
            raise InvalidParameter(f"the {channel} probe is an axis of {axis.channel}")
        nominal = CHANNEL_NOMINALS[channel]
        if not axis.lo <= nominal <= axis.hi:
            raise InvalidParameter(
                f"the {channel} probe [{axis.lo}, {axis.hi}] must contain its nominal value {nominal}"
            )
    if not thresholds:
        return []
    specs = list(specs)
    keys = [(i, channel) for i in range(len(specs)) for channel in probes]
    sweeps = [(specs[i], probes[channel], CHANNEL_NOMINALS[channel]) for i, channel in keys]
    probs = dict(zip(keys, _walk_out(sweeps, thresholds, base_err, cfg, workers)))
    rows: List[RobustnessRow] = []
    for channel, axis in probes.items():
        nominal = CHANNEL_NOMINALS[channel]
        grid = axis.values()
        for threshold in thresholds:
            batch = []
            for i, spec in enumerate(specs):
                hw, lo, hi = half_width(grid, probs[(i, channel)], nominal, threshold)
                censored = lo is not None and bool(lo == grid[0] or hi == grid[-1])
                batch.append(
                    RobustnessRow(channel, spec.kind, threshold, hw, lo, hi, censored)
                )
            batch.sort(key=lambda r: -r.half_width)
            rows.extend(batch)
    return rows
