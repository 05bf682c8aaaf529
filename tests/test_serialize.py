"""CSV/JSON serialization: shape, determinism, round trips, and the one writer."""
import ast
import json
import pathlib
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulselab.channels import ErrorVector
from pulselab.config import build_config
from pulselab.core import InvalidWaveform
from pulselab.integrator import IntegratorConfig
from pulselab.protocols import PROTOCOL_KINDS, SQRT_PI, ProtocolSpec, nominal_spec
from pulselab.serialize import IoError, read_result, write_output, write_result, write_result_file, write_table
from pulselab.sweep import RobustnessRow, SweepAxis, SweepResult, sweep1d, sweep2d

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
    back = read_result(write_result(res, "json"), "json")
    assert back.values == res.values
    assert back.axes == res.axes
    assert back.protocol == res.protocol


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_json_round_trip_restores_every_nominal_spec(kind):
    spec = nominal_spec(kind)
    res = SweepResult((SweepAxis("alpha", 1.0, 1.0, 1),), spec, (1.0,), {})
    assert read_result(write_result(res, "json"), "json").protocol == spec


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
    doc = json.loads(write_result(res, "json"))
    assert set(doc["protocol"]) == {f.name for f in fields(type(spec))}
    doc["protocol"] = _SPARSE_PROTOCOLS[kind]
    assert read_result(json.dumps(doc), "json").protocol == spec


def test_json_reader_rejects_unknown_protocol_fields():
    spec = ProtocolSpec("CAP", SQRT_PI, 1.0, beta=1.0, phases=(0.0, 1.0, 0.0))
    doc = json.loads(write_result(SweepResult((SweepAxis("alpha", 1.0, 1.0, 1),), spec, (1.0,), {}), "json"))
    doc["protocol"]["phase"] = doc["protocol"].pop("phases")  # misspelled key
    with pytest.raises(ValueError, match="'phase'"):
        read_result(json.dumps(doc), "json")


def test_csv_round_trip_values_exact(fast_cfg):
    ucp = nominal_spec("UCP")
    res = sweep1d(ucp, SweepAxis("alpha", 0.0, 2.0, 7), cfg=fast_cfg)
    data = write_result(res, "csv")
    back = read_result(data, "csv", protocol=ucp)
    assert back.values == res.values
    assert back.axes == res.axes
    assert back.protocol == ucp
    with pytest.raises(ValueError, match="protocol"):
        read_result(data, "csv")


def test_json_reader_checks_a_shaped_pulse_like_the_spec():
    res = SweepResult((SweepAxis("alpha", 1.0, 1.0, 1),), nominal_spec("SP"), (1.0,), {})
    doc = json.loads(write_result(res, "json"))
    doc["protocol"]["sp_coeffs"] = [1e200]
    with pytest.raises(InvalidWaveform):
        read_result(json.dumps(doc), "json")


@pytest.mark.parametrize("key", ("axes", "protocol", "values", "meta"))
def test_json_reader_names_a_missing_key(key):
    doc = json.loads(write_result(small_result(), "json"))
    del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        read_result(json.dumps(doc), "json")


@pytest.mark.parametrize("obj, key", (("axis", "hi"), ("protocol", "T")))
def test_json_reader_names_a_missing_nested_field(obj, key):
    doc = json.loads(write_result(small_result(), "json"))
    del (doc["axes"][0] if obj == "axis" else doc["protocol"])[key]
    with pytest.raises(ValueError, match=f"JSON {obj} needs {key!r}"):
        read_result(json.dumps(doc), "json")


@pytest.mark.parametrize(
    "edit, match",
    (
        (lambda doc: 5, "a JSON result must be an object, got int"),
        (lambda doc: {**doc, "axes": 3}, "'axes' must be a list, got int"),
        (lambda doc: {**doc, "axes": [1]}, "a JSON axis must be an object, got int"),
        (lambda doc: {**doc, "values": 5}, "'values' must be a list, got int"),
        (lambda doc: {**doc, "meta": [1]}, "'meta' must be a dict, got list"),
        (lambda doc: {**doc, "protocol": [1]}, "a JSON protocol must be an object, got list"),
        (lambda doc: {**doc, "values": [None, 0.5, 1.0]}, "'values' holds a value of the wrong type"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "lo": None}]}, "'axes' holds a value of the wrong type"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "omega0": "2"}}, "'protocol' holds a value of the"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "points": float("inf")}]}, "'axes' holds a value of the"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "points": 3.5}]}, "'axes' .* points must be an integer"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "points": "3"}]}, "'axes' .* points must be an integer"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "points": True}]}, "'axes' .* points must be an integer"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "omega0": 10**400}}, "omega0 must be positive and"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "T": 10**400}}, "T must be positive and finite"),
        # a boolean or a string is not a number, though bool is an int and float() reads "0.5"
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "omega0": True}}, "'protocol' .* omega0 is true"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "T": True}}, "'protocol' .* T is true"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "beta": "0"}}, "'protocol' .* beta is \"0\""),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "phases": [0, False]}}, "phases\\[1\\] is false"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "phases": "0"}}, "'protocol' .* phases is \"0\""),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "sp_coeffs": ["-3.46"]}}, "sp_coeffs\\[0\\] is"),
        (lambda doc: {**doc, "protocol": {**doc["protocol"], "sta_nominal": [1, 4, True]}}, "sta_nominal\\[2\\]"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "lo": False}]}, "'axes' .* lo is false, not a number"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "lo": "0.5"}]}, "'axes' .* lo is \"0.5\", not a number"),
        (lambda doc: {**doc, "axes": [{**doc["axes"][0], "hi": True}]}, "'axes' .* hi is true, not a number"),
        (lambda doc: {**doc, "values": [0.1, True, 0.3]}, "'values' .* values\\[1\\] is true, not a number"),
    ),
    ids=("top-level-5", "axes-3", "axes-[1]", "values-5", "meta-[1]", "protocol-[1]", "values-[null]",
         "axis-lo-null", "protocol-omega0-string", "axis-points-Infinity", "axis-points-3.5", "axis-points-string",
         "axis-points-true", "protocol-omega0-10**400", "protocol-T-10**400", "protocol-omega0-true",
         "protocol-T-true", "protocol-beta-string", "protocol-phases-false", "protocol-phases-string",
         "protocol-sp_coeffs-string", "protocol-sta_nominal-true", "axis-lo-false", "axis-lo-string", "axis-hi-true",
         "values-true"),
)
def test_json_reader_names_a_member_of_the_wrong_type(edit, match):
    doc = edit(json.loads(write_result(small_result(), "json")))
    with pytest.raises(ValueError, match=match):
        read_result(json.dumps(doc), "json")


@pytest.mark.parametrize(
    "text", ("[" * 100_000 + "]" * 100_000, '{"axes": ' * 100_000 + "1" + "}" * 100_000), ids=("lists", "objects")
)
def test_json_reader_rejects_a_document_nested_too_deeply(text):
    with pytest.raises(ValueError, match="nests too deeply"):
        read_result(text, "json")


@pytest.mark.parametrize(
    "text, match",
    (
        ("alpha,P\r\n", "rows"),
        ("alpha,P\r\n0.0,0.25\r\n1.0,0.5,0.7\r\n", "as wide as its header"),
        ("alpha,P\r\n0.0,0.1\r\n1.0,0.2\r\n3.0,0.3\r\n", "grid"),  # not the grid 0, 1.5, 3
        ("alpha,delta\r\n1.0,0.5\r\n", "'P'"),
        ("alpha,P\r\n0.0,0\r.25\r\n", "well-formed CSV"),  # a lone carriage return inside a row
    ),
    ids=("header-only", "row-wider-than-header", "column-off-its-grid", "last-column-not-P", "lone-CR"),
)
def test_csv_reader_rejects_a_malformed_file(text, match):
    with pytest.raises(ValueError, match=match):
        read_result(text, "csv", protocol=RE)


def test_csv_reader_rejects_a_transposed_2d_file():
    res = SweepResult(
        (SweepAxis("alpha", 0.0, 1.0, 2), SweepAxis("delta", -1.0, 1.0, 3)), RE, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), {}
    )
    data = write_result(res, "csv").decode()
    assert read_result(data, "csv", protocol=RE).values == res.values
    header, *rows = data.splitlines()
    delta_outer = [rows[i + 3 * j] for i in range(3) for j in range(2)]
    with pytest.raises(ValueError, match="grid"):
        read_result("\r\n".join([header, *delta_outer]) + "\r\n", "csv", protocol=RE)


GOLDENS = sorted((pathlib.Path(__file__).resolve().parent.parent / "goldens").glob("fig*.csv"))


@pytest.mark.parametrize("path", GOLDENS, ids=[p.stem for p in GOLDENS])
def test_every_golden_reads_back_under_the_grid_check(path):
    data = path.read_bytes()
    res = read_result(data, "csv", protocol=RE)
    assert write_result(res, "csv") == data


MUTATED = {path.name: path.read_bytes() for path in GOLDENS}
MUTATED.update(
    (f"{kind}.json", write_result(SweepResult(small_result().axes, nominal_spec(kind), (0.25, 0.5, 1.0), {}), "json"))
    for kind in PROTOCOL_KINDS
)
# up to four byte edits, at a position taken modulo the length, of bytes that matter to CSV, JSON or UTF-8
EDITS = st.lists(
    st.tuples(
        st.integers(0, 10**5), st.sampled_from(("set", "insert", "delete")), st.sampled_from(b'0159.,-e"[]{}:\r\n\x00\xff')
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(MUTATED)), EDITS)
def test_the_reader_returns_a_result_or_raises_value_error(name, edits):
    data = bytearray(MUTATED[name])
    for at, edit, byte in edits:
        at %= len(data) + 1
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            data[at : at + 1] = bytes([byte]) if edit == "set" else b""
    try:
        if name.endswith(".csv"):
            read_result(bytes(data), "csv", protocol=RE)
        else:
            read_result(bytes(data), "json")
    except ValueError:
        pass


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
