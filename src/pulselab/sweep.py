"""Transition-probability maps over grids of error-channel values.

Grid points are independent, pure computations, so they can be farmed out to
a process pool; results are placed by grid index and are identical for any
worker count.  The environment variable ``PULSE_WORKERS`` overrides the
requested worker count (it can change the runtime, never the values); the
count actually used is at most the number of grid points and of CPUs, and is
recorded in the result's ``meta.workers``.

Every point is evaluated as part of an item ``(spec, channels, points)``: a
technique, the error channels the item sets, and their values, one row per
point in evaluation order.  :func:`_eval_item` builds each point's
:class:`~pulselab.channels.ErrorVector` only when it reaches the point.

Most points of a grid share one nominal pulse shape: only ``duration_factor``
and ``centering`` change it, while alpha, delta, eta and sigma act on top of
it (:func:`~pulselab.channels.apply_errors` applies them to the parts of
:func:`~pulselab.protocols.nominal_pulses`).  A sweep's points are therefore
evaluated grouped by ``duration_factor``, the one shape channel a sweep can
vary (first appearance first, grid order within a group), and each item (a
sweep's whole grid in process, a slice of it on a pool) calls
``nominal_pulses`` with ``keep`` through a one-entry cache, so every shape is
built and sampled once per group instead of once per point.  A shape's
samples can only come from the call that built them.  The cache holds one
shape at a time and is cleared when the item ends, also on an exception,
whose traceback then holds no sampled arrays either; nothing outside a sweep
keeps samples.  The shaped pulse's coefficients are checked once, when its
:class:`~pulselab.protocols.ProtocolSpec` is made (pool workers receive the
checked spec); its schedule is built with each shape and is dropped with it.

Sweeps and the table evaluate their items through one ``map`` (see
:func:`_mapping`): the builtin one for one worker, or one process pool's.
Either returns each item's values in the order of the items, and a point that
raises ends the map, so the point an error names is the first failing one in
submission order, for any worker count.  :func:`comparison_table` evaluates
all of its (technique, channel) sweeps together, outward from each nominal
point, each side of a sweep as one item (see :func:`_walk_out`).  A side stops
at its first point below the lowest threshold, since no row reads past that
point: the worker evaluates a side's points in order and returns right after
that point.  A sweep's items have no such floor and evaluate every point.  A
side's points share their nominal shape unless they step ``duration_factor``.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

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
# scripts/make_figures.py per grid (the parent holds about 0.16 kB a point).
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


# (spec, channels, points): the channels an item sets and their values, one row per point
_Item = Tuple[ProtocolSpec, Tuple[str, ...], np.ndarray]


def _eval_item(item: _Item, base_err: ErrorVector, cfg: IntegratorConfig, floor: float | None) -> List[float]:
    """P at each point of ``item`` in order; with a ``floor``, only up to the first value that is not ``>= floor``.

    A point's error vector is ``base_err`` with the item's channels set to the
    point's row, built when the loop reaches the point.
    """
    spec, channels, points = item
    # base_err's fields, overridden per point: dataclasses.replace would walk
    # them again at every point, about 3% of a 4000-step sweep's time
    fixed = asdict(base_err)
    shapes = functools.lru_cache(maxsize=1)(functools.partial(nominal_pulses, keep=True))
    values: List[float] = []
    try:
        for row in points.tolist():
            values.append(evaluate_point(spec, ErrorVector(**(fixed | dict(zip(channels, row)))), cfg, shapes))
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


def _resolve_workers(workers: int, points: int) -> int:
    """Worker count to use: a non-empty ``PULSE_WORKERS`` or ``workers``, at most one per point and CPU."""
    env = os.environ.get("PULSE_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError as exc:
            raise InvalidParameter(f"PULSE_WORKERS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise InvalidParameter(f"worker count must be >= 1, got {workers}")
    return max(1, min(workers, points, os.cpu_count() or 1))


def _run_grid(
    spec: ProtocolSpec, axes: Sequence[SweepAxis], base_err: ErrorVector, cfg: IntegratorConfig, workers: int
) -> Tuple[List[float], int]:
    """P at every grid point of ``axes`` in :func:`_grid_points` order, and the worker count used."""
    check_grid_size(axes)
    channels = tuple(ax.channel for ax in axes)
    grid = np.array(_grid_points(axes))
    order = np.arange(len(grid))
    if "duration_factor" in channels:  # each shape's points together, first appearance first
        _, first, group = np.unique(grid[:, channels.index("duration_factor")], return_index=True, return_inverse=True)
        order = np.argsort(first[group], kind="stable")
    points = grid[order]
    workers = _resolve_workers(workers, len(points))
    # One item here; on a pool many small items per worker: a composite point costs
    # several times a single-pulse one, so a few large items leave one worker idle at the end.
    size = len(points) if workers == 1 else max(1, len(points) // (workers * 16))
    items = ((spec, channels, points[i : i + size]) for i in range(0, len(points), size))
    evaluate = functools.partial(_eval_item, base_err=base_err, cfg=cfg, floor=None)
    values = [0.0] * len(points)
    with _mapping(workers) as map_:
        for k, p in zip(order.tolist(), itertools.chain.from_iterable(map_(evaluate, items))):
            values[k] = p
    return values, workers


@contextmanager
def _mapping(workers: int) -> Iterator[Callable[..., Iterator]]:
    """The builtin, lazy ``map`` for one worker, else ``map`` of one pool of ``workers`` processes.

    Either yields an item's result only after those of the items before it.
    A point that raises ends the map: the builtin one evaluates nothing after
    it, and the pool's cancels every item not yet started.
    """
    if workers == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map


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
    values, used = _run_grid(spec, (axis,), base_err, cfg, workers)
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
    values, used = _run_grid(spec, (axis_a, axis_b), base_err, cfg, workers)
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


def _walk_out(
    sweeps: List[Tuple[ProtocolSpec, SweepAxis, float]],
    thresholds: Sequence[float],
    base_err: ErrorVector,
    cfg: IntegratorConfig,
    workers: int,
) -> List[np.ndarray]:
    """P of each (spec, axis, nominal) sweep on the points its table rows read; NaN elsewhere.

    Two maps on one pool, sized once over the full probe count, evaluate
    them.  The first evaluates every sweep's nominal point, the one
    :func:`half_width` starts from, once per distinct point: a technique's
    sweeps share it whenever ``base_err`` holds every probed channel at its
    probe's nominal value (the default table evaluates 6 nominal points, not
    30).  The second evaluates each side of every sweep whose nominal point is
    at or above the lowest threshold as one item, from the nominal point's
    neighbour out to the grid edge.  Both maps ship one-channel items.  A side
    stops at its first point below every threshold: the worker returns right
    after that point, and the side's later points stay NaN (not evaluated).
    :func:`half_width` stops at the same point, so it never needs a NaN one.
    A failing nominal point ends the first map, so the second never starts.
    """
    grids = [axis.values() for _, axis, _ in sweeps]
    probs = [np.full(len(grid), np.nan) for grid in grids]
    centres = [int(np.argmin(np.abs(grid - nominal))) for grid, (_, _, nominal) in zip(grids, sweeps)]
    floor = min(thresholds)

    # Each distinct nominal point -> (its one-point item, the sweeps it seeds).  The
    # key is the point's repr, which tells every two floats apart (also -0.0 and 0.0).
    nominals: Dict[str, Tuple[_Item, List[int]]] = {}
    for s, ((spec, axis, _), grid, j) in enumerate(zip(sweeps, grids, centres)):
        key = repr((spec, replace(base_err, **{axis.channel: float(grid[j])})))
        nominals.setdefault(key, ((spec, (axis.channel,), grid[j : j + 1, None]), []))[1].append(s)

    evaluate = functools.partial(_eval_item, base_err=base_err, cfg=cfg, floor=floor)
    with _mapping(_resolve_workers(workers, sum(len(grid) for grid in grids))) as map_:
        nominal_items = [item for item, _ in nominals.values()]
        for (_, seeded), (p,) in zip(nominals.values(), map_(evaluate, nominal_items)):
            for s in seeded:
                probs[s][centres[s]] = p
        sides = [
            (s, run)
            for s, (grid, j) in enumerate(zip(grids, centres))
            if probs[s][j] >= floor
            for run in (np.arange(j - 1, -1, -1), np.arange(j + 1, len(grid)))
            if len(run)
        ]
        items = ((sweeps[s][0], (sweeps[s][1].channel,), grids[s][run, None]) for s, run in sides)
        for (s, run), values in zip(sides, map_(evaluate, items)):
            probs[s][run[: len(values)]] = values
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

    The sweeps are evaluated outward from the nominal point, each side of a
    sweep as one item of a map (see :func:`_walk_out`).  A side stops at its
    first point below the lowest threshold, so only the points a row can
    depend on are computed, plus at most one point past each side's plateau.
    The rows are those of the full probe grids, and at most one pool is
    started for the whole table.  Each threshold must be a finite probability in [0, 1]; the
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
