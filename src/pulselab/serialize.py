"""Sweep-result serialization: RFC-4180 CSV and a one-object JSON form.

Numbers are written with shortest round-trip precision, so identical results
serialize to identical bytes; the JSON ``meta.timestamp`` field is the single
exception and is excluded from determinism comparisons.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import asdict

from .sweep import SweepResult, _grid_points

__all__ = ["IoError", "write_result", "write_output", "write_result_file", "write_table"]


class IoError(OSError):
    """Raised when writing an output artifact fails."""


def _fmt(x: float) -> str:
    return repr(float(x))


def write_result(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result to CSV or JSON bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow([ax.channel for ax in result.axes] + ["P"])
        for point, p in zip(_grid_points(result.axes), result.values):
            writer.writerow([_fmt(x) for x in (*point, p)])
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        doc = {
            "axes": [asdict(ax) for ax in result.axes],
            "protocol": asdict(result.protocol),
            "values": list(result.values),
            "meta": result.meta,
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def write_output(path: str, data: bytes) -> None:
    """The one writer of program output: ``data`` to ``path`` ('-' for stdout, flushed), or :class:`IoError`."""
    try:
        if path == "-":
            sys.stdout.write(data.decode("utf-8"))
            sys.stdout.flush()
        else:
            with open(path, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        # fd 1 goes to devnull, so that the exit flush of the process's own stdout cannot fail again
        if path == "-" and sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def write_result_file(result: SweepResult, path: str, fmt: str = "csv") -> None:
    """Write serialized bytes to ``path`` ('-' for stdout)."""
    write_output(path, write_result(result, fmt))


def write_table(rows, fmt: str = "csv") -> bytes:
    """Serialize robustness-table rows to CSV or JSON bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(["channel", "protocol", "threshold", "half_width", "lo", "hi", "censored"])
        for r in rows:
            writer.writerow(
                [
                    r.channel,
                    r.protocol,
                    _fmt(r.threshold),
                    _fmt(r.half_width),
                    "" if r.lo is None else _fmt(r.lo),
                    "" if r.hi is None else _fmt(r.hi),
                    str(r.censored).lower(),
                ]
            )
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        return (json.dumps([asdict(r) for r in rows], indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
