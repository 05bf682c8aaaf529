"""Command-line interface: simulate, sweep, table and check workflows.

Flags mirror configuration keys and override values from ``--config``.  Exit
codes: 0 success; 2 configuration error; 3 numerical failure
(non-convergence, unitarity loss, non-finite controls, or a failing ``check``
suite); 4 I/O error, also on a closed stdout.

Importing this module sets glibc's heap policy for the process (see
``_keep_freed_arrays``): the program, not the library, owns that decision.
It has no option and is a no-op off glibc.  Nothing here imports scipy.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from typing import Collection, Dict, List, Optional

import numpy as np

from . import __version__
from .channels import LengthMismatch, apply_errors
from .checks import run_checks
from .config import CONFIG_KEYS, SPEC_KEYS, ParseError, RunConfig, ValidationError, build_config, parse_kv
from .core import InvalidParameter, InvalidWaveform, sequence_area, transition_probability, unitarity_defect
from .integrator import NonConvergent, UnitarityViolation, propagate_sequence
from .protocols import PROTOCOL_KINDS, adiabaticity_margin, nominal_spec
from .serialize import IoError, write_output, write_result_file, write_table
from .sweep import comparison_table, sweep1d, sweep2d

__all__ = ["main"]


def _keep_freed_arrays() -> None:
    """Keep the numpy temporaries of each point on the heap.

    By default glibc serves blocks above a (dynamic) threshold with mmap and
    trims freed memory at the heap top back to the kernel, so the next point
    faults the same arrays in again, zeroing every page.  Before long pulses
    were propagated in blocks, a certified RE ``simulate`` at 250k steps took
    15.5k minor faults per call (CAP 27.1k, UCP 38.8k) for its 2-12 MB
    arrays, and about half of each point's time went to them.  The largest
    array of a block of 32768 steps is a complex128 array of 32768 values
    (512 KiB).  With blocks up to 32 MiB served from the heap and the heap
    trimmed only above 256 MiB, a repeated certified point of any technique
    takes 3-214 minor faults (0-26 before blocks).  Either call switches off
    glibc's dynamic thresholds, so both are set: the mmap threshold alone,
    with the default 128 KiB trim threshold, took the CAP duration sweep of
    fig3 from 0 to about 70k faults per run.  Other C libraries keep their
    defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError, TypeError):  # no mallopt; on Windows CDLL(None) is a TypeError
        pass


_keep_freed_arrays()

_CONFIG_ERRORS = (ParseError, ValidationError, InvalidParameter, LengthMismatch)
_NUMERICAL_ERRORS = (NonConvergent, UnitarityViolation, InvalidWaveform)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="run-configuration file (key = value lines)")
    for key, (tag, help_text) in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{key}", metavar=tag.upper(), help=help_text)


def _collect_raw(args: argparse.Namespace) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read config {args.config!r}: {exc}") from exc
        raw = parse_kv(text)
    for key in CONFIG_KEYS:
        value = getattr(args, f"cfg_{key}", None)
        if value is not None:
            raw[key] = value
    return raw


_SWEEP_KEYS = {key for key in CONFIG_KEYS if key.startswith("sweep")}


def _reject_unused(raw: Dict[str, str], command: str, unused: Collection[str], why: str) -> None:
    """Refuse the first given key that ``command`` would otherwise drop silently."""
    for key in raw:
        if key in unused:
            raise ValidationError(f"{command} does not use key {key!r}: {why}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    raw = _collect_raw(args)
    _reject_unused(
        raw, "simulate", _SWEEP_KEYS | {"workers", "format"}, "it evaluates one point and prints its diagnostics"
    )
    cfg = build_config(raw)
    seq = apply_errors(cfg.protocol, cfg.errors)
    u = propagate_sequence(seq, cfg.integrator)
    p = transition_probability(u)
    lines = [
        f"protocol = {cfg.protocol.kind}",
        f"pulses = {len(seq)}",
        f"P = {p!r}",
        f"infidelity = {1.0 - p!r}",
        f"total_area_over_pi = {sequence_area(seq) / np.pi:.6f}",
        f"unitarity_defect = {unitarity_defect(u):.3e}",
    ]
    if cfg.protocol.kind == "STA":
        from .core import pulse_area

        main = sum(
            pulse_area(lambda t, w=w: np.real(np.asarray(w.rabi(t))), w.window) for w in seq.pulses
        )
        shortcut = sum(
            pulse_area(lambda t, w=w: np.imag(np.asarray(w.rabi(t))), w.window) for w in seq.pulses
        )
        lines.append(f"main_area_over_pi = {main / np.pi:.6f}")
        lines.append(f"shortcut_area_over_pi = {shortcut / np.pi:.6f}")
    else:
        lines.append(f"adiabaticity_margin = {adiabaticity_margin(seq.pulses[0]):.6f}")
    write_output(cfg.output, ("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(_collect_raw(args))
    if not cfg.axes:
        raise ValidationError("sweep requires sweep_channel/lo/hi/points")
    if len(cfg.axes) == 1:
        result = sweep1d(cfg.protocol, cfg.axes[0], cfg.errors, cfg.integrator, cfg.workers)
    else:
        result = sweep2d(cfg.protocol, cfg.axes[0], cfg.axes[1], cfg.errors, cfg.integrator, cfg.workers)
    write_result_file(result, cfg.output, cfg.fmt)
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, cfg)
    return 0


def _write_gnuplot(path: str, cfg: RunConfig) -> None:
    data = cfg.output if cfg.output != "-" else "sweep.csv"
    lines = ["set datafile separator ','", "set key top right"]
    if len(cfg.axes) == 1:
        lines += [
            f"set xlabel '{cfg.axes[0].channel}'",
            "set ylabel 'P'",
            f"plot '{data}' skip 1 using 1:2 with lines title '{cfg.protocol.kind}'",
        ]
    else:
        lines += [
            f"set xlabel '{cfg.axes[1].channel}'",
            f"set ylabel '{cfg.axes[0].channel}'",
            f"set dgrid3d {cfg.axes[0].points},{cfg.axes[1].points}",
            "set pm3d map",
            f"splot '{data}' skip 1 using 2:1:3 with pm3d title '{cfg.protocol.kind}'",
        ]
    write_output(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _cmd_table(args: argparse.Namespace) -> int:
    raw = _collect_raw(args)
    _reject_unused(
        raw,
        "table",
        {"protocol", *SPEC_KEYS, *_SWEEP_KEYS},
        "it runs the canonical techniques of --protocols on its own probe grids",
    )
    cfg = build_config({**raw, "protocol": "RE"})
    kinds = [k.strip().upper() for k in (args.protocols or ",".join(PROTOCOL_KINDS)).split(",")]
    for kind in kinds:
        if kind not in PROTOCOL_KINDS:
            raise ValidationError(f"unknown protocol {kind!r} in --protocols")
    specs = [nominal_spec(kind, cfg.protocol.T) for kind in kinds]
    rows = comparison_table(
        specs, base_err=cfg.errors, cfg=cfg.integrator, workers=cfg.workers
    )
    human = cfg.output == "-" and "format" not in raw  # the aligned text table, for a reader
    write_output(cfg.output, _table_text(rows) if human else write_table(rows, cfg.fmt))
    return 0


def _table_text(rows) -> bytes:
    lines = [f"{'channel':<16} {'protocol':<9} {'threshold':<10} {'half_width':<12} interval"]
    for r in rows:
        if r.lo is None:
            interval = "below threshold at nominal"
        else:
            interval = f"[{r.lo:g}, {r.hi:g}]" + (" (censored)" if r.censored else "")
        lines.append(f"{r.channel:<16} {r.protocol:<9} {r.threshold:<10g} {r.half_width:<12.4g} {interval}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_check(args: argparse.Namespace) -> int:
    ok = True
    for r, seconds in run_checks():
        write_output("-", f"{'PASS' if r.ok else 'FAIL'}  {r.name}: {r.detail} [{seconds:.3f} s]\n".encode())
        ok &= r.ok
    return 0 if ok else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call: building it takes about 30x as long as a parse."""
    parser = argparse.ArgumentParser(
        prog="pulselab",
        description="Two-state coherent control techniques under experimental errors.",
    )
    parser.add_argument("--version", action="version", version=f"pulselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one protocol + error vector: P and diagnostics")
    _add_config_flags(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="1-D/2-D error-channel grid to CSV/JSON")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--gnuplot", metavar="PATH", help="also emit a gnuplot script")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_table = sub.add_parser("table", help="half-width robustness summary across protocols")
    _add_config_flags(p_table)
    p_table.add_argument("--protocols", metavar="LIST", help="comma list, default all six")
    p_table.set_defaults(fn=_cmd_table)

    p_check = sub.add_parser("check", help="run the oracle/invariant suite")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except IoError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
