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
from dataclasses import MISSING, asdict, fields

from .protocols import ProtocolSpec
from .sweep import SweepAxis, SweepResult, _grid_points

__all__ = ["IoError", "write_result", "read_result", "write_output", "write_result_file", "write_table"]


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


def read_result(
    data: bytes | str, fmt: str = "json", *, protocol: ProtocolSpec | None = None
) -> SweepResult:
    """Rebuild a sweep result from its serialized form.

    JSON restores the full object.  CSV restores axes from the value columns
    (bounds and point counts are recovered from the written grid) and is
    intended for round-trip checks and plotting, not archival metadata; the
    text must parse as CSV, every row must be as wide as the header, the rows
    must be exactly the row-major grid of the recovered axes, and the last
    column must be ``P``, or a ``ValueError`` is raised.  A CSV does not
    record its technique, so the caller names it in ``protocol``.  A JSON
    document must hold ``axes``, ``protocol``, ``values`` and ``meta``, and
    each axis all four of its fields; its ``protocol`` object may omit the
    fields that have defaults but may not name one that
    :class:`ProtocolSpec` lacks.  A missing key, a wrongly typed member (a
    boolean, string or null where a number belongs, say) or too deep a
    nesting raises a ``ValueError`` naming it.
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if fmt == "json":
        try:
            doc = json.loads(text)
        except RecursionError as exc:
            raise ValueError("the JSON document nests too deeply to read") from exc
        _require(doc, ("axes", "protocol", "values", "meta"), "a JSON result")
        for key, kind in (("axes", list), ("values", list), ("meta", dict)):
            if not isinstance(doc[key], kind):
                got = type(doc[key]).__name__
                raise ValueError(f"the JSON member {key!r} must be a {kind.__name__}, got {got}")
        for ax in doc["axes"]:
            _require(ax, [f.name for f in fields(SweepAxis)], "a JSON axis")
        axes = _typed("axes", lambda: tuple(
            SweepAxis(ax["channel"], float(_number("lo", ax["lo"])), float(_number("hi", ax["hi"])), ax["points"])
            for ax in doc["axes"]
        ))
        p = doc["protocol"]
        _require(p, [f.name for f in fields(ProtocolSpec) if f.default is MISSING], "a JSON protocol")
        unknown = sorted(set(p) - {f.name for f in fields(ProtocolSpec)})
        if unknown:
            raise ValueError(f"unknown protocol field(s) {', '.join(map(repr, unknown))}")
        spec = _typed("protocol", lambda: ProtocolSpec(**{k: _spec_field(k, v) for k, v in p.items()}))
        values = _typed(
            "values", lambda: tuple(float(_number(f"values[{i}]", v)) for i, v in enumerate(doc["values"]))
        )
        return SweepResult(axes, spec, values, dict(doc["meta"]))
    if fmt == "csv":
        if protocol is None:
            raise ValueError("a CSV result does not record its protocol; pass protocol=")
        try:
            header, *rows = [r for r in csv.reader(io.StringIO(text)) if r] or [[]]
        except csv.Error as exc:
            raise ValueError(f"a CSV result must be well-formed CSV: {exc}") from exc
        if not rows or any(len(r) != len(header) for r in rows):
            raise ValueError(f"a CSV result needs data rows of {len(header)} fields, as wide as its header")
        if header[-1] != "P":
            raise ValueError(f"the last CSV column must be 'P', got {header[-1]!r}")
        rows = [tuple(float(x) for x in r) for r in rows]
        axes = []
        for i, channel in enumerate(header[:-1]):
            uniq = sorted({r[i] for r in rows})
            axes.append(SweepAxis(channel, uniq[0], uniq[-1], len(uniq)))
        if [r[:-1] for r in rows] != _grid_points(axes):
            raise ValueError("the CSV rows are not the row-major grid of their axis columns")
        values = tuple(r[-1] for r in rows)
        return SweepResult(tuple(axes), protocol, values, {"source": "csv"})
    raise ValueError(f"unknown format {fmt!r}")


def _require(obj: dict, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} needs {', '.join(map(repr, missing))}")


def _number(name: str, value):
    """``value`` if it is a JSON number, else a ``TypeError`` naming it: a boolean, string or null is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} is {json.dumps(value)}, not a number")
    return value


def _spec_field(key: str, value):
    """One JSON ``protocol`` member as a :class:`ProtocolSpec` argument: every field but ``kind`` holds numbers."""
    if key == "kind" or (key == "sta_nominal" and value is None):
        return value
    if isinstance(value, list):
        return tuple(_number(f"{key}[{i}]", v) for i, v in enumerate(value))
    return _number(key, value)


def _typed(member: str, build):
    """``build()``, with a ``TypeError`` or ``OverflowError`` from a wrongly typed JSON value named by its member."""
    try:
        return build()
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"the JSON member {member!r} holds a value of the wrong type: {exc}") from exc


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
