"""Spans and counters recorded from outside pulselab.

The benchmark replaces a name where pulselab's caller looks it up (for
example ``pulselab.integrator.propagate``, which ``propagate_sequence`` reads
from its module globals) with a wrapper that records one span per call, and
restores the original afterwards.  The waveform callables are wrapped on the
sequences that ``apply_errors`` returns.  Spans stay in memory for one pass;
``layer_metrics`` turns them into the per-layer metrics.

Pool workers are forked with the wrappers in place, but a tracer stops
recording in a forked child, so per-point spans inside workers are not seen.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

# (module, attribute) -> span name.  Each pair is the namespace a caller reads
# the name from, so the wrapper sees every call that caller makes.
SPAN_SITES: Dict[Tuple[str, str], str] = {
    ("pulselab.cli", "build_config"): "config.build_config",
    ("pulselab.cli", "apply_errors"): "channels.apply_errors",
    ("pulselab.sweep", "apply_errors"): "channels.apply_errors",
    ("pulselab.cli", "propagate_sequence"): "integrator.propagate_sequence",
    ("pulselab.sweep", "propagate_sequence"): "integrator.propagate_sequence",
    ("pulselab.integrator", "propagate"): "integrator.propagate",
    ("pulselab.integrator", "convergence_check"): "integrator.convergence_check",
    ("pulselab.integrator", "compose"): "core.compose",
    ("pulselab.core", "pulse_area"): "core.pulse_area",
    ("pulselab.cli", "sweep1d"): "sweep.sweep1d",
    ("pulselab.cli", "sweep2d"): "sweep.sweep2d",
    ("pulselab.cli", "comparison_table"): "sweep.comparison_table",
    ("pulselab.sweep", "sweep1d"): "sweep.sweep1d",
    ("pulselab.cli", "write_result_file"): "serialize.write_result_file",
    ("pulselab.serialize", "write_result"): "serialize.write_result",
    ("pulselab.cli", "write_table"): "serialize.write_table",
}
POOL_SITE = ("pulselab.sweep", "ProcessPoolExecutor")

# span name -> (counter, size of the call's return value)
_RESULT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "sweep.sweep1d": ("sweep.points", lambda result: len(result.values)),
    "sweep.sweep2d": ("sweep.points", lambda result: len(result.values)),
    "serialize.write_result": ("serialize.bytes", len),
    "serialize.write_table": ("serialize.bytes", len),
}

# Spans whose calls to a rabi callable are integration steps.
_STEPPING_SPANS = ("integrator.propagate", "integrator.convergence_check")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER: Dict[str, str] = {
    "cli.self_s": "s",
    "config.build_config.calls": "count",
    "config.build_config.s": "s",
    "channels.apply_errors.calls": "count",
    "channels.apply_errors.self_s": "s",
    "protocols.sample.calls": "count",
    "protocols.sample.samples": "count",
    "protocols.rabi.self_s": "s",
    "protocols.detuning.self_s": "s",
    "integrator.propagate.calls": "count",
    "integrator.propagate.self_s": "s",
    "integrator.steps": "count",
    "integrator.ns_per_step": "ns",
    "integrator.convergence_check.calls": "count",
    "integrator.convergence_check.self_s": "s",
    "integrator.propagate_sequence.self_s": "s",
    "core.pulse_area.calls": "count",
    "core.pulse_area.self_s": "s",
    "core.compose.calls": "count",
    "sweep.points": "count",
    "sweep.self_s": "s",
    "sweep.pool.created": "count",
    "sweep.pool.wall_s": "s",
    "serialize.write.calls": "count",
    "serialize.write.self_s": "s",
    "serialize.bytes": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Span log and named counters for one traced pass, kept in memory.

    A span is ``[name, start, end, parent index]`` with ``-1`` for a root.
    Nothing is recorded unless ``recording`` is set.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.recording = False
        self._stack: List[int] = []
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.recording = False

    def reset(self) -> None:
        self.spans, self.counters, self._stack = [], Counter(), []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> Optional[str]:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    own: float = 0.0  # self time


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Sequence[Sequence]) -> Dict[str, SpanStats]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the part of it that its direct
    children cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    stats: Dict[str, SpanStats] = defaultdict(SpanStats)
    for i, (name, start, end, _) in enumerate(spans):
        s = stats[name]
        s.calls += 1
        s.total += end - start
        s.own += end - start - _covered(start, end, children.get(i, ()))
    return dict(stats)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, without ``trace.overhead_s``."""
    st = self_times(tracer.spans)
    c = tracer.counters

    def calls(*names: str) -> int:
        return sum(st[n].calls for n in names if n in st)

    def total(*names: str) -> float:
        return sum(st[n].total for n in names if n in st)

    def self_s(*names: str) -> float:
        return sum(st[n].own for n in names if n in st)

    steps = c["integrator.steps"]
    return {
        "cli.self_s": self_s("cli.main"),
        "config.build_config.calls": calls("config.build_config"),
        "config.build_config.s": total("config.build_config"),
        "channels.apply_errors.calls": calls("channels.apply_errors"),
        "channels.apply_errors.self_s": self_s("channels.apply_errors"),
        "protocols.sample.calls": c["protocols.sample.calls"],
        "protocols.sample.samples": c["protocols.sample.samples"],
        "protocols.rabi.self_s": self_s("protocols.rabi"),
        "protocols.detuning.self_s": self_s("protocols.detuning"),
        "integrator.propagate.calls": calls("integrator.propagate"),
        "integrator.propagate.self_s": self_s("integrator.propagate"),
        "integrator.steps": steps,
        "integrator.ns_per_step": (
            1e9 * total("integrator.propagate_sequence") / steps if steps else 0.0
        ),
        "integrator.convergence_check.calls": calls("integrator.convergence_check"),
        "integrator.convergence_check.self_s": self_s("integrator.convergence_check"),
        "integrator.propagate_sequence.self_s": self_s("integrator.propagate_sequence"),
        "core.pulse_area.calls": calls("core.pulse_area"),
        "core.pulse_area.self_s": self_s("core.pulse_area"),
        "core.compose.calls": calls("core.compose"),
        "sweep.points": c["sweep.points"],
        "sweep.self_s": self_s("sweep.sweep1d", "sweep.sweep2d", "sweep.comparison_table"),
        "sweep.pool.created": c["sweep.pool.created"],
        "sweep.pool.wall_s": total("sweep.pool"),
        "serialize.write.calls": calls("serialize.write_result_file", "serialize.write_table"),
        "serialize.write.self_s": self_s(
            "serialize.write_result_file", "serialize.write_result", "serialize.write_table"
        ),
        "serialize.bytes": c["serialize.bytes"],
    }


def best_metrics(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric minimum over traced passes (counts are equal across passes)."""
    return {k: min(p[k] for p in passes) for k in passes[0]}


def counts_that_differ(passes: Sequence[Dict[str, float]]) -> List[str]:
    """Names of count metrics that differ between passes (empty when exact)."""
    return [
        k for k, unit in PER_LAYER.items()
        if unit == "count" and k in passes[0] and len({p[k] for p in passes}) > 1
    ]


def peak_rss_kib(pid: int) -> int:
    """Peak resident set size (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for process {pid}")


def _pool_class(base: type, tracer: Optional[Tracer], worker_peaks: List[int]) -> type:
    """Pool that records its workers' summed peak RSS (and a span when tracing)."""

    class MeasuredPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_span = None
            if tracer is not None and tracer.recording:
                tracer.count("sweep.pool.created")
                self._bench_span = tracer.begin("sweep.pool")

        def shutdown(self, wait=True, *, cancel_futures=False):
            procs = getattr(self, "_processes", None)
            if procs:
                worker_peaks.append(sum(peak_rss_kib(pid) for pid in procs))
            try:
                super().shutdown(wait, cancel_futures=cancel_futures)
            finally:
                if self._bench_span is not None:
                    tracer.end(self._bench_span)
                    self._bench_span = None

    return MeasuredPool


def _control(fn: Callable, name: str, tracer: Tracer) -> Callable:
    def control(t):
        if not tracer.recording:
            return fn(t)
        caller = tracer.current()
        with tracer.span(name):
            out = fn(t)
        n = int(np.size(t))
        tracer.count("protocols.sample.calls")
        tracer.count("protocols.sample.samples", n)
        if name == "protocols.rabi" and caller in _STEPPING_SPANS:
            tracer.count("integrator.steps", n)
        return out

    return control


def _traced_sequence(seq, tracer: Tracer):
    pulses = tuple(
        dataclasses.replace(
            w,
            rabi=_control(w.rabi, "protocols.rabi", tracer),
            detuning=_control(w.detuning, "protocols.detuning", tracer),
        )
        for w in seq.pulses
    )
    return type(seq)(pulses)


def _wrap(fn: Callable, name: str, tracer: Tracer) -> Callable:
    counted = _RESULT_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counted is not None:
            tracer.count(counted[0], counted[1](out))
        if name == "channels.apply_errors":
            out = _traced_sequence(out, tracer)
        return out

    return wrapper


@contextmanager
def instrument(tracer: Optional[Tracer], worker_peaks: List[int]) -> Iterator[List[str]]:
    """Install the pool hook, plus every span wrapper when ``tracer`` is given.

    Yields the sites that could not be wrapped because the program no longer
    has that name there; their metrics then read zero.  Originals are restored
    on exit.
    """
    sites = [(POOL_SITE, None)] + (list(SPAN_SITES.items()) if tracer is not None else [])
    saved, missing = [], []
    try:
        for (module_name, attr), span_name in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if span_name is None:
                replacement = _pool_class(original, tracer, worker_peaks)
            else:
                replacement = _wrap(original, span_name, tracer)
            saved.append((module, attr, original))
            setattr(module, attr, replacement)
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
