"""Benchmark client: one process that sets up, then issues commands back to back.

Started by ``run.py``.  It imports pulselab from the checkout's ``src/``,
loads the workload's references, runs one untimed warm-up command and prints
``ready`` and its speed scale (see ``calibrate.py``).  With ``--setup-only``
it stops there.  Otherwise it runs the workload in a closed loop through
``pulselab.cli.main`` and prints two JSON lines: run information, then the
result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Callable, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __package__ in (None, ""):  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, spans, workloads  # noqa: E402

Main = Callable[[List[str]], int]


def weighted_quantile(samples: List[Tuple[float, int]], q: float) -> float:
    """Nearest-rank quantile of (value, weight) samples, q in (0, 1]."""
    ordered = sorted(samples)
    need = q * sum(w for _, w in ordered)
    seen = 0
    for value, weight in ordered:
        seen += weight
        if seen >= need:
            return value
    return ordered[-1][0]


def issue(main: Main, op: workloads.Op, tracer: Optional[spans.Tracer] = None) -> Tuple[float, int]:
    """Run one op through ``main``; return its wall time and failed point count."""
    if op.output is not None:
        op.output.unlink(missing_ok=True)
    buf = io.StringIO()
    code: Optional[int] = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code = main(list(op.argv))
            else:
                tracer.recording = True
                try:
                    with tracer.span("cli.main"):
                        code = main(list(op.argv))
                finally:
                    tracer.recording = False
    except (Exception, SystemExit):
        traceback.print_exc()
    wall = time.perf_counter() - t0
    failed = op.points if code is None else op.check(code, buf.getvalue())
    if failed:
        print(f"failed {failed}/{op.points} points: {' '.join(op.argv)}", file=sys.stderr)
    return wall, failed


def run_pass(
    main: Main, ops: List[workloads.Op], tracer: Optional[spans.Tracer] = None
) -> Tuple[float, int, int]:
    """Issue every op of a pass; return its wall time, points and failed points."""
    wall = points = failed = 0
    for op in ops:
        op_wall, bad = issue(main, op, tracer)
        wall += op_wall
        points += op.points
        failed += bad
    return wall, points, failed


def timed_run(main: Main, wl: workloads.Workload, seconds: float) -> Tuple[dict, dict]:
    """Closed loop with tracing off: whole passes until ``seconds`` of command time.

    Every command is bracketed by calibration timings and its wall time is
    converted to reference seconds.  Each op's time is its median over
    passes (per position in the pass).
    """
    times_by_op: List[List[float]] = []
    scales: List[float] = []
    worker_peaks: List[int] = []
    attempted = failed = 0
    measured = 0.0
    k = 0
    reference = calibrate.REFERENCE_S[wl.kernel]
    with calibrate.calibrator(wl.kernel, wl.cores) as kernel_s, spans.instrument(None, worker_peaks):
        before = kernel_s()
        while k < wl.min_passes or measured < seconds:
            ops = wl.passes(k)
            times_by_op = times_by_op or [[] for _ in ops]
            for samples, op in zip(times_by_op, ops):
                wall, bad = issue(main, op)
                after = kernel_s()
                scales.append(2.0 * reference / (before + after))
                samples.append(wall * scales[-1])
                before = after
                measured += wall
                attempted += op.points
                failed += bad
            k += 1
    client_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed += wl.verify()
    pass_points = [op.points for op in ops]
    typical = [statistics.median(ts) for ts in times_by_op]
    latency = [(1e3 * t / n, n) for t, n in zip(typical, pass_points)]
    verified = sum(pass_points) * (attempted - failed) / attempted
    metrics = {
        "points_per_s": (verified / sum(typical), "1/s"),
        "point_ms_p50": (weighted_quantile(latency, 0.5), "ms"),
        "point_ms_p90": (weighted_quantile(latency, 0.9), "ms"),
        "peak_rss_mib": ((client_kib + max(worker_peaks, default=0)) / 1024.0, "MiB"),
    }
    info = {
        "passes": k,
        "measured_s": measured,
        "speed_scale": {"median": statistics.median(scales), "min": min(scales), "max": max(scales)},
        "op_times_s": [[round(t, 4) for t in ts] for ts in times_by_op],
    }
    return _result(attempted, failed, metrics), info


def traced_run(main: Main, wl: workloads.Workload, seconds: float) -> Tuple[dict, dict]:
    """Alternate untraced and traced passes over the first pass's inputs."""
    tracer = spans.Tracer()
    untraced_walls, traced_walls, traced = [], [], []
    attempted = failed = 0
    missing: List[str] = []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        ops = wl.passes(0)
        with spans.instrument(None, []):
            wall, points, bad = run_pass(main, ops)
        untraced_walls.append(wall)
        attempted += points
        failed += bad
        tracer.reset()
        with spans.instrument(tracer, []) as missing:
            wall, points, bad = run_pass(main, ops, tracer)
        traced_walls.append(wall)
        attempted += points
        failed += bad
        traced.append(spans.layer_metrics(tracer))
    tracer.reset()
    failed += wl.verify()
    layer = spans.best_metrics(traced)
    layer["trace.overhead_s"] = min(traced_walls) - min(untraced_walls)
    unsteady = spans.counts_that_differ(traced)
    if unsteady:
        print(f"counts differ between traced passes: {unsteady}", file=sys.stderr)
    metrics = {name: (layer[name], unit) for name, unit in spans.PER_LAYER.items()}
    info = {"traced_passes": len(traced), "counts_differ": unsteady, "unwrapped": missing}
    return _result(attempted, failed, metrics, extra_ok=not unsteady), info


def _result(attempted: int, failed: int, metrics: dict, extra_ok: bool = True) -> dict:
    return {
        "correct": failed == 0 and extra_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "pulselab" / "__init__.py").is_file():
        print(f"no pulselab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import pulselab.cli

    if pathlib.Path(pulselab.cli.__file__).resolve().parent != SRC / "pulselab":
        print(f"imported pulselab from {pulselab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, out_dir, args.seed)
        with contextlib.redirect_stdout(io.StringIO()):
            code = pulselab.cli.main(list(wl.warm_up))
        if code != 0:
            print("warm-up command failed", file=sys.stderr)
            return 1
        print("ready", flush=True)
        print(f"scale {calibrate.speed_scale(wl.kernel)!r}", flush=True)
        if args.setup_only:
            return 0
        run = traced_run if args.trace else timed_run
        result, info = run(pulselab.cli.main, wl, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    info["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "pulse_workers": os.environ.get("PULSE_WORKERS"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(info), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
