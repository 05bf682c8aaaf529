"""CSV/JSON writers: shape, determinism, exact values, the goldens as their configs' grids, and the one writer.

The program only writes results.  The tests parse what it writes and compare
that with the in-memory result.
"""
import ast
import csv
import io
import json
import pathlib
from dataclasses import fields

import pytest

from conftest import read_golden
from pulselab.channels import ErrorVector
from pulselab.config import build_config
from pulselab.integrator import IntegratorConfig
from pulselab.protocols import PROTOCOL_KINDS, ProtocolSpec, nominal_spec
from pulselab.serialize import IoError, write_output, write_result, write_result_file, write_table
from pulselab.sweep import RobustnessRow, SweepAxis, SweepResult, _grid_points, sweep1d, sweep2d

RE = nominal_spec("RE")


def small_result():
    axis = SweepAxis("alpha", 0.0, 1.0, 3)
    return SweepResult((axis,), RE, (0.25, 0.5, 1.0), {"version": "x", "timestamp": "t"})


def test_csv_single_point():
    axis = SweepAxis("alpha", 1.0, 1.0, 1)
    res = SweepResult((axis,), RE, (1.0,), {})
    lines = write_result(res, "csv").decode().splitlines()
    assert lines == ["alpha,P", "1.0,1.0"]


def test_csv_two_by_two_row_major(fast_cfg):
    res = sweep2d(
        RE, SweepAxis("alpha", 0.0, 1.0, 2), SweepAxis("delta", -1.0, 1.0, 2), cfg=fast_cfg
    )
    lines = write_result(res, "csv").decode().splitlines()
    assert lines[0] == "alpha,delta,P"
    assert len(lines) == 5
    firsts = [line.split(",")[0] for line in lines[1:]]
    assert firsts == ["0.0", "0.0", "1.0", "1.0"]


def test_json_round_trip_is_exact(fast_cfg):
    res = sweep1d(RE, SweepAxis("alpha", 0.0, 2.0, 7), cfg=fast_cfg)
    doc = json.loads(write_result(res, "json"))
    assert doc["values"] == list(res.values)
    assert [SweepAxis(**axis) for axis in doc["axes"]] == list(res.axes)
    assert ProtocolSpec(**doc["protocol"]) == res.protocol


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_json_round_trip_restores_every_nominal_spec(kind):
    spec = nominal_spec(kind)
    res = SweepResult((SweepAxis("alpha", 1.0, 1.0, 1),), spec, (1.0,), {})
    protocol = json.loads(write_result(res, "json"))["protocol"]
    assert set(protocol) == {f.name for f in fields(ProtocolSpec)}
    assert ProtocolSpec(**protocol) == spec


# protocol objects as written before the JSON form listed every spec field
_SPARSE_PROTOCOLS = {
    "RE": {"T": 1.0, "beta": 0.0, "kind": "RE", "omega0": 1.7724538509055159},
    "STA": {
        "T": 1.0, "beta": 4.0, "kind": "STA", "omega0": 1.7724538509055159,
        "sta_nominal": [1.7724538509055159, 4.0, 1.0],
    },
    "SP": {
        "T": 1.0, "beta": 0.0, "kind": "SP", "omega0": 1.7724538509055159,
        "sp_coeffs": [-3.46, -1.365, -0.5],
    },
    "CAP": {
        "T": 1.0, "beta": 1.0, "kind": "CAP", "omega0": 1.7724538509055159,
        "phases": [0.0, 2.0943951023931953, 0.0],
    },
}


@pytest.mark.parametrize("kind", sorted(_SPARSE_PROTOCOLS))
def test_json_protocol_lists_every_field_and_reads_the_sparse_form(kind):
    spec = nominal_spec(kind)
    res = SweepResult((SweepAxis("alpha", 1.0, 1.0, 1),), spec, (1.0,), {})
    protocol = json.loads(write_result(res, "json"))["protocol"]
    assert set(protocol) == {f.name for f in fields(type(spec))}
    sparse = _SPARSE_PROTOCOLS[kind]
    assert {key: protocol[key] for key in sparse} == sparse
    assert ProtocolSpec(**sparse) == spec


def test_csv_round_trip_values_exact(fast_cfg):
    res = sweep1d(nominal_spec("UCP"), SweepAxis("alpha", 0.0, 2.0, 7), cfg=fast_cfg)
    header, *rows = csv.reader(io.StringIO(write_result(res, "csv").decode(), newline=""))
    assert header == ["alpha", "P"]
    assert [tuple(float(x) for x in row[:-1]) for row in rows] == _grid_points(res.axes)
    assert tuple(float(row[-1]) for row in rows) == res.values


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "goldens"
GOLDENS = sorted(GOLDEN_DIR.glob("fig*.csv"))


@pytest.mark.parametrize("path", GOLDENS, ids=[p.stem for p in GOLDENS])
def test_every_golden_reads_back_under_the_grid_check(path):
    run, values = read_golden(path)
    assert write_result(SweepResult(run.axes, run.protocol, values, {}), "csv") == path.read_bytes()


def test_the_grid_check_rejects_a_transposed_golden(tmp_path):
    header, *rows = (GOLDEN_DIR / "fig4.csv").read_bytes().splitlines(keepends=True)  # 41 alphas by 41 widths
    transposed = tmp_path / "fig4.csv"
    transposed.write_bytes(b"".join([header, *(rows[i + 41 * j] for i in range(41) for j in range(41))]))
    with pytest.raises(AssertionError, match="not the row-major grid of its config"):
        read_golden(transposed)


def test_identical_runs_serialize_identically(fast_cfg):
    axis = SweepAxis("alpha", 0.0, 2.0, 5)
    r1 = sweep1d(RE, axis, cfg=fast_cfg)
    r2 = sweep1d(RE, axis, cfg=fast_cfg)
    assert write_result(r1, "csv") == write_result(r2, "csv")
    d1 = json.loads(write_result(r1, "json"))
    d2 = json.loads(write_result(r2, "json"))
    d1["meta"].pop("timestamp")
    d2["meta"].pop("timestamp")
    assert d1 == d2


def test_write_result_file_and_io_error(tmp_path):
    res = small_result()
    path = tmp_path / "out.csv"
    write_result_file(res, str(path), "csv")
    assert path.read_bytes() == write_result(res, "csv")
    with pytest.raises(IoError):
        write_result_file(res, str(tmp_path / "missing" / "out.csv"), "csv")


def test_write_output_to_file_and_stdout(tmp_path, capsys):
    write_output(str(tmp_path / "out.txt"), b"P = 1\n")
    assert (tmp_path / "out.txt").read_bytes() == b"P = 1\n"
    write_output("-", b"P = 1\n")
    assert capsys.readouterr().out == "P = 1\n"
    with pytest.raises(IoError, match="missing"):
        write_output(str(tmp_path / "missing" / "out.txt"), b"")


def _writes(source):
    """(function, line, what) for each call in ``source`` that writes program output.

    That is a ``print`` other than one to ``sys.stderr``, an ``open`` or ``os.open``
    that can write, and any use of ``sys.stdout``; ``function`` is the innermost
    enclosing function.
    """
    def opens_for_writing(call):
        modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            what = None
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "print":
                    stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in child.keywords)
                    what = "print to stderr" if stderr else "print"
                elif child.func.id == "open" and opens_for_writing(child):
                    what = "open for writing"
            elif isinstance(child, ast.Call) and ast.unparse(child.func) == "os.open":
                what = "os.open"
            elif isinstance(child, ast.Attribute) and ast.unparse(child) == "sys.stdout":
                what = "sys.stdout"
            if what:
                yield owner, child.lineno, what
            yield from visit(child, inner)

    yield from visit(ast.parse(source), "<module>")


def test_the_write_finder_sees_each_kind_of_writer():
    source = (
        "import os, sys\n"
        "def f(path):\n"
        "    print('x')\n"
        "    print('y', file=sys.stderr)\n"
        "    open(path, 'a')\n"
        "    open(path, mode='rb')\n"
        "    open(path)\n"
        "    os.open(path, os.O_WRONLY)\n"
        "    sys.stdout.write('z')\n"
    )
    assert list(_writes(source)) == [
        ("f", 3, "print"),
        ("f", 4, "print to stderr"),
        ("f", 5, "open for writing"),
        ("f", 8, "os.open"),
        ("f", 9, "sys.stdout"),
    ]


def test_write_output_is_the_only_writer_of_program_output():
    # another writer would escape write_output's flush and its exit 4; only
    # cli.main writes, to stderr, the one error line of exits 2, 3 and 4
    found = {}
    for path in sorted((pathlib.Path(__file__).resolve().parent.parent / "src" / "pulselab").glob("*.py")):
        for owner, line, what in _writes(path.read_text(encoding="utf-8")):
            found.setdefault((path.stem, owner, what), []).append(line)
    stderr_lines = found.pop(("cli", "main", "print to stderr"), [])
    assert len(stderr_lines) == 3
    allowed = {("serialize", "write_output", what) for what in ("sys.stdout", "open for writing", "os.open")}
    assert set(found) <= allowed, found


def test_write_table_csv_and_json():
    rows = [RobustnessRow("alpha", "RE", 0.99, 0.064, 0.94, 1.06, False)]
    text = write_table(rows, "csv").decode()
    assert text.splitlines()[0] == "channel,protocol,threshold,half_width,lo,hi,censored"
    assert "RE" in text
    doc = json.loads(write_table(rows, "json"))
    assert doc[0]["half_width"] == pytest.approx(0.064)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_result(small_result(), "parquet")


def _config_text(value):
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return str(value)


def test_json_meta_replays_through_build_config():
    cfg = IntegratorConfig(steps_per_pulse=400, unitarity_tol=1e-9, renormalize=False, convergence_tol=0.5)
    err = ErrorVector(
        alpha=0.9,
        duration_factor=1.1,
        delta=0.1,
        eta=-0.2,
        sigma=0.3,
        phase_offsets=(0.1,),
        centering="global",
        sta_alpha_scales_shortcut=False,
    )
    spec = nominal_spec("STA")
    res = sweep1d(spec, SweepAxis("delta", -0.1, 0.1, 2), err, cfg)
    meta = json.loads(write_result(res, "json"))["meta"]
    assert set(meta["integrator"]) == {f.name for f in fields(IntegratorConfig)}
    assert set(meta["base_errors"]) == {f.name for f in fields(ErrorVector)}
    raw = {"protocol": "STA", "workers": str(meta["workers"])}
    for section in ("integrator", "base_errors"):
        raw.update({key: _config_text(value) for key, value in meta[section].items()})
    replayed = build_config(raw)
    assert (replayed.integrator, replayed.errors, replayed.workers) == (cfg, err, meta["workers"])
