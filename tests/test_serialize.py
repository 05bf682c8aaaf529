"""CSV/JSON serialization: shape, determinism, round trips."""
import json
from dataclasses import fields

import pytest

from pulselab.channels import ErrorVector
from pulselab.config import build_config
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
