#!/usr/bin/env python3
"""pulselab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: golden_sweeps, robustness_table, certificate (see NOTES.md).
With ``--trace 0`` the client process is started SETUP_REPS times; each start
is timed from launch to ``ready``, converted to reference seconds (see
calibrate.py), and ``setup_s`` is their median.  The last start goes on to
run the workload.  With ``--trace 1`` one client reports the
per-layer metrics.  The last line printed is the JSON result; the line before
it records the run environment.  The run environment is pinned: no
``PULSE_WORKERS`` and one BLAS/OpenMP thread.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("golden_sweeps", "robustness_table", "certificate")
REQUIRED = ("src/pulselab/__init__.py", "configs", "goldens")
SETUP_REPS = 3
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pinned_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PULSE_WORKERS", None)  # it would override each workload's worker count
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(argv: List[str], env: Dict[str, str], timeout: float) -> Tuple[float, List[str]]:
    """Run one client; return its set-up time and the stdout lines after ``ready``.

    The set-up time is the wall time from launch to ``ready``, converted to
    reference seconds with the speed scale the client prints next.

    The client is killed if it outlives ``timeout``; a client that fails or
    never gets ready raises ``RuntimeError``.
    """
    cmd = [sys.executable, str(HERE / "client.py")] + argv
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or code != 0 or not rest or not rest[0].startswith("scale "):
        raise RuntimeError(f"client {' '.join(argv)} exited with {code}")
    return ready * float(rest[0].split()[1]), rest[1:]


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pulselab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not a pulselab checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    env = pinned_env()
    client_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                setup, _ = launch(client_args + ["--setup-only"], env, deadline - time.perf_counter())
                setups.append(setup)
        setup, lines = launch(client_args, env, deadline - time.perf_counter())
        setups.append(setup)
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (RuntimeError, IndexError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        info["setup_s_samples"] = setups
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
