"""Sweep-result serialization: RFC-4180 CSV and a one-object JSON form.

Numbers are written with shortest round-trip precision, so identical results
serialize to identical bytes; the JSON ``meta.timestamp`` field is the single
exception and is excluded from determinism comparisons.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, fields
from typing import List, Tuple

from .protocols import ProtocolSpec
from .sweep import SweepAxis, SweepResult

__all__ = ["IoError", "write_result", "read_result", "write_result_file", "write_table"]


class IoError(OSError):
    """Raised when writing an output artifact fails."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _rows(result: SweepResult) -> List[Tuple[float, ...]]:
    axes = result.axes
    rows = []
    if len(axes) == 1:
        for v, p in zip(axes[0].values(), result.values):
            rows.append((float(v), p))
    else:
        vb = axes[1].values()
        k = 0
        for va in axes[0].values():
            for x in vb:
                rows.append((float(va), float(x), result.values[k]))
                k += 1
    return rows


def write_result(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result to CSV or JSON bytes."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow([ax.channel for ax in result.axes] + ["P"])
        for row in _rows(result):
            writer.writerow([_fmt(x) for x in row])
        return buf.getvalue().encode("utf-8")
    if fmt == "json":
        doc = {
            "axes": [
                {"channel": ax.channel, "lo": ax.lo, "hi": ax.hi, "points": ax.points}
                for ax in result.axes
            ],
            "protocol": asdict(result.protocol),
            "values": list(result.values),
            "meta": result.meta,
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def read_result(
    data: bytes | str, fmt: str = "json", *, protocol: ProtocolSpec | None = None
) -> SweepResult:
    """Rebuild a sweep result from its serialized form.

    JSON restores the full object.  CSV restores axes from the value columns
    (bounds and point counts are recovered from the written grid) and is
    intended for round-trip checks and plotting, not archival metadata.  A
    CSV does not record its technique, so the caller names it in ``protocol``.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if fmt == "json":
        doc = json.loads(text)
        axes = tuple(
            SweepAxis(ax["channel"], float(ax["lo"]), float(ax["hi"]), int(ax["points"]))
            for ax in doc["axes"]
        )
        p = doc["protocol"]
        spec = ProtocolSpec(
            **{
                f.name: tuple(p[f.name]) if isinstance(p[f.name], list) else p[f.name]
                for f in fields(ProtocolSpec)
                if f.name in p
            }
        )
        return SweepResult(axes, spec, tuple(float(v) for v in doc["values"]), dict(doc["meta"]))
    if fmt == "csv":
        if protocol is None:
            raise ValueError("a CSV result does not record its protocol; pass protocol=")
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        channels, rows = header[:-1], [tuple(float(x) for x in r) for r in reader if r]
        axes = []
        for i, channel in enumerate(channels):
            col = [r[i] for r in rows]
            uniq = sorted(set(col))
            axes.append(
                SweepAxis(channel, uniq[0], uniq[-1], len(uniq))
                if len(uniq) > 1
                else SweepAxis(channel, uniq[0], uniq[0], 1)
            )
        values = tuple(r[-1] for r in rows)
        return SweepResult(tuple(axes), protocol, values, {"source": "csv"})
    raise ValueError(f"unknown format {fmt!r}")


def write_result_file(result: SweepResult, path: str, fmt: str = "csv") -> None:
    """Write serialized bytes to ``path`` ('-' for stdout)."""
    data = write_result(result, fmt)
    try:
        if path == "-":
            import sys

            sys.stdout.write(data.decode("utf-8"))
        else:
            with open(path, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


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
        doc = [
            {
                "channel": r.channel,
                "protocol": r.protocol,
                "threshold": r.threshold,
                "half_width": r.half_width,
                "lo": r.lo,
                "hi": r.hi,
                "censored": r.censored,
            }
            for r in rows
        ]
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
