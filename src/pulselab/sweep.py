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
grid order within a group), and each block of :func:`_run_blocks` (a sweep's
whole grid in process, one pool chunk otherwise) calls
``nominal_pulses`` with ``keep`` through a one-entry cache on those same
arguments, so every shape is built and sampled once per group instead of once
per point.  A shape's samples can only come from the call that built them.
The cache holds one shape at a time and is cleared when the block ends, also on
an exception, whose traceback then holds no sampled arrays either; nothing
outside a sweep keeps samples.  The shaped pulse's coefficients are checked
once, when its :class:`~pulselab.protocols.ProtocolSpec` is made (pool
workers receive the checked spec); its schedule is built with each shape and
is dropped with it.

:func:`comparison_table` evaluates all of its (technique, channel) sweeps
together, outward from each nominal point in blocks of ``_WALK_BLOCK`` points
(see :func:`_walk_out`).  A side stops at its first point below the lowest
threshold, since no row reads past that point, and so does the block that
reaches it: the worker evaluates a table block's points in order and returns
right after that point.  A sweep's blocks have no such floor and evaluate
every point.  A block's points share their nominal shape unless they step
``duration_factor``.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
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
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise TypeError(f"points must be an integer, got {self.points!r}")
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


def _eval_chunk(tasks: List[_Task], floor: float | None) -> List[float]:
    """P of ``tasks`` in order; with a ``floor``, only up to the first value that is not ``>= floor``."""
    shapes = functools.lru_cache(maxsize=1)(functools.partial(nominal_pulses, keep=True))
    values: List[float] = []
    try:
        for spec, err, cfg in tasks:
            values.append(evaluate_point(spec, err, cfg, shapes))
            if floor is not None and not values[-1] >= floor:
                break
        return values
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


def _run_grid(tasks: List[_Task], workers: int) -> Tuple[List[float], int]:
    """Values of ``tasks`` in task order, and the worker count used."""
    workers = _resolve_workers(workers, len(tasks))
    first: Dict[tuple, int] = {}
    keys = [(spec, err.duration_factor, err.centering) for spec, err, _ in tasks]
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    order = sorted(range(len(tasks)), key=lambda i: first[keys[i]])
    # One chunk here; on a pool many small chunks per worker: a composite point costs
    # several times a single-pulse one, so a few large chunks leave one worker idle at the end.
    size = len(tasks) if workers == 1 else max(1, len(tasks) // (workers * 16))
    values = [0.0] * len(tasks)

    def place(start: int, results: List[float]) -> Tuple[()]:
        for j, p in enumerate(results, start):
            values[order[j]] = p
        return ()

    starts = range(0, len(tasks), size)
    _run_blocks(((i, [tasks[k] for k in order[i : i + size]]) for i in starts), place, workers)
    return values, workers


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
# A block stops at its first point below the lowest threshold, so a longer
# block costs no extra points, only fewer pool round trips.
_WALK_BLOCK = 32


def _block(j: int, step: int, n: int) -> range:
    """The next ``_WALK_BLOCK`` indices past ``j`` in direction ``step``, cut at [0, n)."""
    if step > 0:
        return range(j + 1, min(j + 1 + _WALK_BLOCK, n))
    return range(j - 1, max(j - 1 - _WALK_BLOCK, -1), -1)


def _submit(pool: ProcessPoolExecutor | None, tasks: List[_Task], floor: float | None) -> Future:
    """The future of :func:`_eval_chunk`'s values: run on ``pool``, or, without one, here before returning."""
    if pool is not None:
        return pool.submit(_eval_chunk, tasks, floor)
    future: Future = Future()
    try:
        future.set_result(_eval_chunk(tasks, floor))
    except Exception as exc:
        future.set_exception(exc)
    return future


_Block = Tuple[object, List[_Task]]  # (key, tasks)


def _run_blocks(
    blocks: Iterable[_Block],
    place: Callable[[object, List[float]], Iterable[_Block]],
    workers: int,
    floor: float | None = None,
):
    """Evaluate ``blocks`` on one pool of ``workers`` processes or, for one worker, here.

    Every block of ``blocks`` is submitted at once.  As blocks complete (in
    submission order among those done), ``place(key, values)`` stores each
    block's values and yields the blocks to submit next, at once too.  With a
    ``floor`` a block's values end at its first value that is not ``>= floor``
    (the rest of its tasks are not evaluated), so ``values`` can be shorter
    than the block; without one every task is evaluated.

    A point that raises ends the run: once its exception is seen no block is
    submitted, the blocks not yet started are cancelled, and the exception
    propagates.  For one worker a block runs as it is submitted, so its
    exception is seen at once: the failing point is the last one evaluated.
    When several points raise, which exception propagates (and so which point
    an error message names) can depend on the order in which blocks
    complete; that the run fails, and so the exit code, cannot.
    """
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        flight: Dict[Future, object] = {}  # future in flight -> its block's key

        def submit(blocks: Iterable[_Block]) -> None:
            for key, tasks in blocks:
                future = _submit(pool, tasks, floor)
                flight[future] = key
                if pool is None and future.exception() is not None:
                    future.result()  # raises

        try:
            submit(blocks)
            while flight:
                done, _ = wait(flight, return_when=FIRST_COMPLETED)
                for future in [f for f in flight if f in done]:  # in submission order
                    submit(place(flight.pop(future), future.result()))
        finally:
            for future in flight:
                future.cancel()


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
    its first point below every threshold or at the grid edge: the worker
    evaluating a block returns right after that point, and the block's later
    points stay NaN (not evaluated).  :func:`half_width` stops at the same
    point, so it never needs a NaN one.  Each side has at most one block in
    flight, and all blocks share one pool, sized once over the full probe
    count.
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

    # A block's key is (sweeps, step): the (sweep, indices) it answers, and
    # step 0 for a nominal point, else the direction its side grows in.
    def grow(answered: Tuple[List[Tuple[int, Sequence[int]]], int], values: List[float]) -> Iterable[_Block]:
        seeded, step = answered
        for s, block in seeded:
            probs[s][block[: len(values)]] = values
            if all(probs[s][j] >= floor for j in block):  # False on a point left NaN
                for side in (step,) if step else (-1, 1):
                    if following := _block(block[-1], side, len(grids[s])):
                        yield ([(s, following)], side), [task(s, j) for j in following]

    workers = _resolve_workers(workers, sum(len(grid) for grid in grids))
    nominal_blocks = (((seeded, 0), [nominal_task]) for nominal_task, seeded in nominals.values())
    _run_blocks(nominal_blocks, grow, workers, floor)
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
    returns.  A side, and the block that reaches it, stops at its first point
    below the lowest threshold, so only the points a row can depend on are
    computed, plus at most one point past each side's plateau.  The rows are
    those of the full probe grids, and at most one pool is started for the
    whole table.  Each threshold must be a finite probability in [0, 1]; the
    thresholds are checked before anything is evaluated.
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
    for threshold in thresholds:
        if not (math.isfinite(threshold) and 0.0 <= threshold <= 1.0):
            raise InvalidParameter(f"a threshold must be a finite probability in [0, 1], got {threshold}")
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
