"""The three benchmark workloads: inputs, warm-up command and correctness gates.

A workload is a sequence of passes; a pass is a list of commands (``Op``)
issued through ``pulselab.cli.main``.  Every op knows how many grid points it
computes and how to count the ones it got wrong, so failures are counted per
point.  Only ``certificate`` draws its inputs from the seed; the other two
are fixed by committed files so that their byte references hold.
"""
from __future__ import annotations

import csv
import io
import multiprocessing
import os
import pathlib
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import oracle

HERE = pathlib.Path(__file__).resolve().parent

GOLDEN_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# Point counts of pulselab's default table probes, per channel.
TABLE_PROBE_POINTS = {"alpha": 201, "duration_factor": 191, "delta": 201, "eta": 201, "sigma": 37}
TABLE_REFERENCE = HERE / "reference" / "table.csv"

CERT_KINDS = ("RE", "AF", "STA", "SP", "CAP", "UCP")
CERT_RANGES = (
    ("alpha", 0.8, 1.2),
    ("duration_factor", 0.8, 1.2),
    ("delta", -0.5, 0.5),
    ("eta", -0.2, 0.2),
    ("sigma", -0.3, 0.3),
)
CERT_TOL = "1e-8"
ORACLE_AGREEMENT = 1e-7
# 17 cycles: >= 100 points per run, and 17 timings of each technique.
CERT_MIN_CYCLES = 17


@dataclass(frozen=True)
class Op:
    """One command, the grid points it computes, and its correctness gate.

    ``check(exit_code, stdout)`` returns how many of the points failed.
    ``output`` is removed before the command runs, so a stale file cannot pass.
    """

    argv: Tuple[str, ...]
    points: int
    check: Callable[[int, str], int]
    output: Optional[pathlib.Path] = None


@dataclass(frozen=True)
class Workload:
    warm_up: Tuple[str, ...]
    passes: Callable[[int], List[Op]]
    min_passes: int = 1
    kernel: str = "small"  # calibration kernel with the same array sizes
    cores: int = 1  # cores the workload computes on, all calibrated at once
    # Failed points found after the timed loop by checks too slow to run inside it.
    verify: Callable[[], int] = lambda: 0


def csv_row_failures(got: Optional[bytes], want: bytes) -> int:
    """Data rows of ``want`` that ``got`` does not reproduce byte for byte."""
    want_rows = want.split(b"\r\n")
    points = len(want_rows) - 2  # header and the empty piece after the last CRLF
    if got == want:
        return 0
    if got is None:
        return points
    got_rows = got.split(b"\r\n")
    if got_rows[0] != want_rows[0]:
        return points
    bad = sum(
        1 for i in range(1, points + 1) if i >= len(got_rows) or got_rows[i] != want_rows[i]
    )
    return max(bad, 1)


def _read_csv(data: bytes) -> List[List[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _sweep_of(row: List[str]) -> Tuple[str, str]:
    """(protocol, channel) of the sweep a table row was computed from."""
    return row[1], row[0]


def table_failures(got: Optional[bytes], reference: bytes) -> int:
    """Grid points behind table rows that differ from the reference.

    A row belongs to one (protocol, channel) sweep; a wrong or missing row
    fails every point of that sweep.
    """
    ref = _read_csv(reference)
    try:
        rows = _read_csv(got) if got is not None else []
    except UnicodeDecodeError:
        rows = []
    if not rows or rows[0] != ref[0] or len(rows) > len(ref):
        bad = {_sweep_of(r) for r in ref[1:]}
    else:
        bad = {_sweep_of(r) for i, r in enumerate(ref[1:], 1) if i >= len(rows) or rows[i] != r}
    return sum(TABLE_PROBE_POINTS[channel] for _, channel in bad)


def _read_output(path: pathlib.Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def golden_sweeps(root: pathlib.Path, out_dir: pathlib.Path, seed: int) -> Workload:
    """fig2..fig7 regenerated through ``pulselab sweep --config``."""
    ops = []
    for fig in GOLDEN_FIGURES:
        want = (root / "goldens" / f"{fig}.csv").read_bytes()
        out = out_dir / f"{fig}.csv"
        points = len(want.split(b"\r\n")) - 2

        def check(code: int, _stdout: str, out=out, want=want, points=points) -> int:
            return points if code != 0 else csv_row_failures(_read_output(out), want)

        argv = ("sweep", "--config", str(root / "configs" / f"{fig}.cfg"), "--output", str(out))
        ops.append(Op(argv, points, check, out))
    return Workload(
        ("simulate", "--protocol", "RE", "--steps-per-pulse", "4000"),
        lambda k: ops,
    )


def robustness_table(root: pathlib.Path, out_dir: pathlib.Path, seed: int) -> Workload:
    """``pulselab table`` at 4000 steps/pulse on two workers."""
    reference = TABLE_REFERENCE.read_bytes()
    points = table_failures(None, reference)  # every point of every sweep
    out = out_dir / "table.csv"

    def check(code: int, _stdout: str) -> int:
        return points if code != 0 else table_failures(_read_output(out), reference)

    argv = ("table", "--steps-per-pulse", "4000", "--workers", "2", "--output", str(out))
    op = Op(argv, points, check, out)
    return Workload(
        ("simulate", "--protocol", "RE", "--steps-per-pulse", "4000"),
        lambda k: [op],
        cores=2,
    )


def certificate_inputs(seed: int, cycle: int) -> List[Tuple[str, Dict[str, float]]]:
    """One error vector per technique for the given cycle; a pure function of the seed."""
    rng = random.Random(f"certificate:{seed}:{cycle}")
    return [(kind, {ch: rng.uniform(lo, hi) for ch, lo, hi in CERT_RANGES}) for kind in CERT_KINDS]


def parse_probability(stdout: str) -> Optional[float]:
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        if key == "P":
            return float(value)
    return None


def certificate(root: pathlib.Path, out_dir: pathlib.Path, seed: int) -> Workload:
    """Certified single points at the default 250k steps/pulse."""
    certified: Dict[Tuple, Tuple[str, Dict[str, float], List[float]]] = {}

    def op_for(kind: str, errors: Dict[str, float]) -> Op:
        flags = tuple(f"--{ch.replace('_', '-')}={v!r}" for ch, v in errors.items())
        key = (kind, tuple(errors.items()))

        def check(code: int, stdout: str) -> int:
            p = parse_probability(stdout) if code == 0 else None
            if p is None:
                return 1
            certified.setdefault(key, (kind, errors, []))[2].append(p)
            return 0

        argv = ("simulate", "--protocol", kind) + flags + (f"--convergence-tol={CERT_TOL}",)
        return Op(argv, 1, check)

    def passes(cycle: int) -> List[Op]:
        return [op_for(kind, errors) for kind, errors in certificate_inputs(seed, cycle)]

    def verify() -> int:
        """Points whose P disagrees with the oracle, which runs on up to two processes."""
        items = list(certified.values())
        certified.clear()
        if not items:
            return 0
        kinds = [kind for kind, _, _ in items]
        vectors = [errors for _, errors, _ in items]
        workers = min(2, os.cpu_count() or 1, len(items))
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            truth = list(pool.map(oracle.transition_probability, kinds, vectors))
        return sum(
            1 for (_, _, ps), p_ref in zip(items, truth) for p in ps if abs(p - p_ref) > ORACLE_AGREEMENT
        )

    return Workload(
        ("simulate", "--protocol", "RE", f"--convergence-tol={CERT_TOL}"),
        passes,
        min_passes=CERT_MIN_CYCLES,
        kernel="large",
        verify=verify,
    )


WORKLOADS: Dict[str, Callable[[pathlib.Path, pathlib.Path, int], Workload]] = {
    "golden_sweeps": golden_sweeps,
    "robustness_table": robustness_table,
    "certificate": certificate,
}
