"""CLI surface: subcommands, flag/config precedence, exit codes."""
import contextlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from pulselab import cli
from pulselab.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_python(script):
    """Run ``script`` in a fresh interpreter that imports pulselab from this tree."""
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_simulate_stdout(capsys):
    code = main(["simulate", "--protocol", "RE", "--steps-per-pulse", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P = 1.0" in out
    assert "total_area_over_pi = 1.000000" in out


def test_simulate_with_error_flags(capsys):
    code = main(["simulate", "--protocol", "RE", "--alpha", "0.5", "--steps-per-pulse", "4000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P = 0.499999" in out or "P = 0.5" in out


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol = RE\nalpha = 1.0\nsteps_per_pulse = 4000\n")
    code = main(["simulate", "--config", str(cfg), "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P = 0.499999" in out or "P = 0.5" in out


def test_sweep_writes_csv_and_gnuplot(tmp_path):
    out = tmp_path / "sweep.csv"
    gp = tmp_path / "sweep.gp"
    code = main(
        [
            "sweep",
            "--protocol", "RE",
            "--sweep-channel", "alpha",
            "--sweep-lo", "0",
            "--sweep-hi", "2",
            "--sweep-points", "5",
            "--steps-per-pulse", "4000",
            "--output", str(out),
            "--gnuplot", str(gp),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,P"
    assert len(lines) == 6
    assert "plot" in gp.read_text()


def test_the_gnuplot_script_quotes_a_data_path_with_a_quote(tmp_path):
    out, gp = tmp_path / "it's.csv", tmp_path / "it's.gp"
    argv = ["sweep", "--protocol", "RE", *_SWEEP_FLAGS, "--steps-per-pulse", "400", "--output", str(out)]
    assert main([*argv, "--gnuplot", str(gp)]) == 0
    data = str(out).replace("'", "''")
    assert gp.read_text().splitlines() == [
        "set datafile separator ','",
        "set key top right",
        "set xlabel 'alpha'",
        "set ylabel 'P'",
        f"plot '{data}' skip 1 using 1:2 with lines title 'RE'",
    ]
    assert out.read_text().startswith("alpha,P\n")


@pytest.mark.parametrize("given_in", ("flag", "config"))
def test_sweep_rejects_gnuplot_with_json_before_any_point(given_in, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep1d", lambda *args, **kwargs: pytest.fail("a point was evaluated"))
    argv = ["sweep", "--protocol", "RE", *_SWEEP_FLAGS, "--steps-per-pulse", "400", "--output", str(tmp_path / "out")]
    if given_in == "flag":
        argv += ["--format", "json"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        argv += ["--config", str(cfg)]
    assert main([*argv, "--gnuplot", str(tmp_path / "out.gp")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: --gnuplot plots CSV rows, so format must be csv, got 'json'\n"
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("output", (None, "flag", "config", "empty-in-config"))
def test_sweep_rejects_gnuplot_with_stdout_output_before_any_point(output, tmp_path, capsys, monkeypatch):
    # no --output, --output -, output = - and an empty output in a config file all mean stdout
    monkeypatch.setattr(cli, "sweep1d", lambda *args, **kwargs: pytest.fail("a point was evaluated"))
    argv = ["sweep", "--protocol", "RE", *_SWEEP_FLAGS, "--steps-per-pulse", "400"]
    if output == "flag":
        argv += ["--output", "-"]
    elif output is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output = -\n" if output == "config" else "output =\n")
        argv += ["--config", str(cfg)]
    script = tmp_path / "out.gp"
    assert main([*argv, "--gnuplot", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration error: --gnuplot plots the output file, so it needs an output path, not stdout\n"
    )
    assert not script.exists()


def test_empty_output_in_a_sweep_config_means_stdout(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "protocol = RE\nsweep_channel = alpha\nsweep_lo = 0\nsweep_hi = 2\n"
        "sweep_points = 3\nsteps_per_pulse = 400\noutput =\n"
    )
    assert main(["sweep", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,P" and len(lines) == 4


def test_sweep_requires_axis(capsys):
    code = main(["sweep", "--protocol", "RE"])
    assert code == 2
    assert "sweep" in capsys.readouterr().err


def test_table_runs_for_one_protocol(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        [
            "table",
            "--protocols", "RE",
            "--steps-per-pulse", "4000",
            "--output", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("channel,protocol,threshold")
    assert text.count("RE") >= 15  # 5 channels x 3 thresholds


def test_table_writes_json(tmp_path):
    out = tmp_path / "table.json"
    argv = ["table", "--protocols", "RE", "--steps-per-pulse", "400", "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 15 and all(type(r["censored"]) is bool for r in rows)


def test_table_on_stdout_prints_the_given_format(tmp_path, capsys):
    argv = ["table", "--protocols", "RE", "--steps-per-pulse", "400"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("channel          protocol")  # the human table
    out = tmp_path / "table.json"
    assert main([*argv, "--format", "json", "--output", str(out)]) == 0
    assert main([*argv, "--format", "json"]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed) == json.loads(out.read_text()) and len(json.loads(printed)) == 15


@pytest.mark.parametrize(
    "flags",
    (
        ["--protocol", "RE"],  # the techniques come from --protocols
        ["--omega0", "3"],
        ["--beta", "1"],
        ["--phases", "0,1,0"],
        ["--sp-coeffs", "-1"],
        ["--sta-omega0a", "1"],
        ["--sta-betaa", "1"],
        ["--sta-ta", "1"],
        ["--sweep-channel", "alpha", "--sweep-lo", "0", "--sweep-hi", "1", "--sweep-points", "2"],
        ["--sweep2-points", "3"],
    ),
    ids=lambda flags: flags[0][2:],
)
def test_table_rejects_the_keys_it_ignores(flags, capsys):
    assert main(["table", "--protocols", "RE", "--steps-per-pulse", "400", *flags]) == 2
    assert repr(flags[0][2:].replace("-", "_")) in capsys.readouterr().err


def test_table_rejects_an_ignored_key_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("protocol = RE\nsteps_per_pulse = 400\n")
    assert main(["table", "--protocols", "RE", "--config", str(cfg)]) == 2
    assert "'protocol'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    (
        ["--sweep-channel", "alpha", "--sweep-lo", "0", "--sweep-hi", "2", "--sweep-points", "3"],
        ["--sweep-lo", "0"],
        ["--sweep2-channel", "delta"],
        ["--sweep2-points", "3"],
        ["--workers", "7"],
        ["--format", "json"],
    ),
    ids=lambda flags: flags[0][2:],
)
def test_simulate_rejects_the_keys_it_ignores(flags, capsys):
    assert main(["simulate", "--protocol", "RE", "--steps-per-pulse", "400", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"simulate does not use key {flags[0][2:].replace('-', '_')!r}" in captured.err


def test_simulate_rejects_an_ignored_key_from_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "simulate.cfg"
    cfg.write_text("protocol = RE\nsteps_per_pulse = 400\nworkers = 2\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "'workers'" in capsys.readouterr().err


_SWEEP_FLAGS = ["--sweep-channel", "alpha", "--sweep-lo", "0.9", "--sweep-hi", "1.1", "--sweep-points", "3"]


@pytest.mark.parametrize("given_in", ("flag", "config"))
@pytest.mark.parametrize("command", ("simulate", "sweep"))
@pytest.mark.parametrize("kind", ("RE", "AF", "SP", "CAP", "UCP"))
def test_sta_alpha_scales_shortcut_is_rejected_off_sta(kind, command, given_in, tmp_path, capsys):
    argv = [command, "--protocol", kind, "--steps-per-pulse", "400", *(_SWEEP_FLAGS if command == "sweep" else [])]
    if given_in == "flag":
        argv += ["--sta-alpha-scales-shortcut", "false"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sta_alpha_scales_shortcut = true\n")
        argv += ["--config", str(cfg)]
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    assert f"key 'sta_alpha_scales_shortcut' is not a parameter of the {kind} technique" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sta_alpha_scales_shortcut_is_read_by_sta_and_the_tables_sta_rows(tmp_path, capsys):
    point = ["simulate", "--protocol", "STA", "--steps-per-pulse", "400", "--alpha", "0.9"]
    assert main(point) == 0
    scaled = capsys.readouterr().out
    assert main([*point, "--sta-alpha-scales-shortcut", "false"]) == 0
    assert capsys.readouterr().out != scaled
    table = ["table", "--protocols", "STA", "--steps-per-pulse", "400", "--format", "csv"]
    assert main(table) == 0
    scaled = capsys.readouterr().out
    assert main([*table, "--sta-alpha-scales-shortcut", "false"]) == 0
    unscaled = capsys.readouterr().out
    assert unscaled != scaled and unscaled.startswith("channel,protocol,threshold")
    assert main([*table, "--protocols", "RE,STA", "--sta-alpha-scales-shortcut", "false"]) == 0
    assert [row for row in capsys.readouterr().out.splitlines() if ",STA," in row] == unscaled.splitlines()[1:]
    off_sta = ["table", "--protocols", "RE,CAP", "--steps-per-pulse", "400", "--sta-alpha-scales-shortcut", "false"]
    assert main(off_sta) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table does not use key 'sta_alpha_scales_shortcut': only STA rows read it" in captured.err


@pytest.mark.parametrize("protocols", ("RE,RE", "re, RE", "RE,CAP,UCP,CAP"))
def test_table_rejects_a_repeated_technique_before_any_point(protocols, capsys, monkeypatch):
    monkeypatch.setattr(cli, "comparison_table", lambda *args, **kwargs: pytest.fail("a point was evaluated"))
    assert main(["table", "--protocols", protocols, "--steps-per-pulse", "400"]) == 2
    repeated = protocols.upper().split(",")[-1].strip()
    captured = capsys.readouterr()
    assert captured.out == "" and f"repeated protocol {repeated!r} in --protocols" in captured.err


def test_exit_code_config_error(capsys):
    assert main(["simulate", "--protocol", "RE", "--sigma", "1.5"]) == 2
    assert "sigma" in capsys.readouterr().err
    assert main(["simulate", "--protocol", "RE", "--convergence-tol", "0"]) == 2
    assert "convergence_tol must be positive" in capsys.readouterr().err
    assert main(["table", "--protocols", "RE,XX", "--steps-per-pulse", "200"]) == 2
    assert "unknown protocol 'XX' in --protocols" in capsys.readouterr().err


def test_exit_code_unknown_key_in_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("protocol = RE\nomega_zero = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "omega0" in capsys.readouterr().err


def test_exit_code_numerical_failure(capsys):
    code = main(
        [
            "simulate",
            "--protocol", "AF",
            "--steps-per-pulse", "4000",
            "--convergence-tol", "1e-12",
        ]
    )
    assert code == 3
    assert "numerical" in capsys.readouterr().err


def test_singular_shaped_pulse_is_a_numerical_failure(capsys):
    assert main(["simulate", "--protocol", "SP", "--sp-coeffs", "1e200"]) == 3
    assert "numerical failure: shaped-pulse controls are not finite" in capsys.readouterr().err


_BLOWN = ["--protocol", "RE", "--steps-per-pulse", "400"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", *_BLOWN, "--alpha", "1e200", "--renormalize", "false"],
        ["simulate", *_BLOWN, "--alpha", "1e200"],
        ["sweep", *_BLOWN, "--renormalize", "false", "--sweep-channel", "alpha",
         "--sweep-lo", "1", "--sweep-hi", "1e200", "--sweep-points", "3"],
    ],
    ids=["simulate-raw", "simulate-renormalized", "sweep"],
)
def test_nan_propagator_is_a_numerical_failure(argv, capsys):
    # the overflowing drive gives a NaN pair; it must not print P = nan
    # or pass as a configuration error
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "flags",
    (
        ["--protocol", "RE", "--T", "1e-300"],
        ["--protocol", "AF", "--T", "1e-160"],
        ["--protocol", "RE", "--omega0", "1e200"],
        ["--protocol", "STA", "--T", "1e-300"],
        ["--protocol", "STA", "--sta-omega0a", "1e-300"],
        ["--protocol", "RE", "--eta", "1e308"],
        ["--protocol", "CAP", "--eta=-1e308"],
        ["--protocol", "RE", "--delta", "1e308", "--eta", "1e308"],
        ["--protocol", "RE", "--alpha", "1e308", "--sigma", "0.5"],
        ["--protocol", "STA", "--alpha", "1e308"],
        ["--protocol", "RE", "--alpha", "1e-160", "--duration-factor", "1e300"],
        ["--protocol", "RE", "--alpha", "1e-160", "--duration-factor", "1e300", "--delta", "1"],
        ["--protocol", "RE", "--duration-factor", "1e-160"],
        ["--protocol", "AF", "--duration-factor", "1e-300"],
    ),
    ids=lambda flags: "-".join([flags[1], *(f.lstrip("-") for f in flags[2:])]),
)
def test_overflowing_magnitudes_fail_with_one_line_and_no_warning(flags, capsys):
    # the squares overflow in the step pairs at the default resolution, whose
    # blocks run on threads; STA's shortcut and the channel arithmetic overflow
    # where the controls are sampled; a vanishing drive over a huge window
    # underflows its square, so its pairs overflow in the reduce, and the area
    # quadrature's step products overflow, or underflow in a vanishing window
    # (which would else print a NaN adiabaticity margin); any numpy warning
    # would fail this test
    assert main(["simulate", *flags]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("numerical failure")


_MAGNITUDES = (0.0, 1e-300, 1e-160, 0.5, 1.0, 1e160, 1e300, 1.7e308)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["RE", "AF", "STA", "SP", "CAP", "UCP"]),
    values=st.lists(
        st.sampled_from(_MAGNITUDES).flatmap(lambda m: st.sampled_from((m, -m))), min_size=5, max_size=5
    ),
)
def test_no_numpy_warning_escapes_a_simulate(kind, values):
    # every error channel at extreme magnitudes: a success, a configuration
    # error or a numerical failure, each with at most one stderr line; any
    # numpy warning fails the test (filterwarnings = error)
    channels = ("alpha", "duration-factor", "delta", "eta", "sigma")
    argv = ["simulate", "--protocol", kind, "--steps-per-pulse", "100"]
    argv += [f"--{channel}={value!r}" for channel, value in zip(channels, values)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert code == 0 or out.getvalue() == ""
    assert len(err.getvalue().splitlines()) <= (0 if code == 0 else 1)


@pytest.mark.parametrize(
    "flags",
    (
        *(["--protocol", "RE", flag, "inf"] for flag in ("--alpha", "--omega0", "--T", "--duration-factor", "--delta")),
        ["--protocol", "RE", "--eta", "nan"],
        ["--protocol", "AF", "--beta", "inf"],
        ["--protocol", "SP", "--sp-coeffs", "nan"],
        ["--protocol", "STA", "--sta-betaa", "inf"],
    ),
    ids=lambda flags: flags[2] if flags[1] == "RE" else f"{flags[1]}{flags[2]}",
)
def test_infinite_parameter_is_a_configuration_error(flags, capsys):
    assert main(["simulate", "--steps-per-pulse", "400", *flags]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", (["--sta-ta", "0"], ["--sta-ta=-1"], ["--sta-omega0a", "0"]), ids=" ".join)
def test_sta_frozen_triple_is_held_to_the_live_rules(flags, capsys):
    # each would reach the shortcut: a zero T divides by zero, a negative one
    # flips the shortcut's sign, and a zero omega0 gives 0/0 at the centre
    assert main(["simulate", "--protocol", "STA", "--steps-per-pulse", "400", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("configuration error: sta_nominal must be a finite (omega0, beta, T) triple")


@pytest.mark.parametrize(
    "flags",
    (
        ["--protocol", "CAP", "--phase-offsets", "nan,0,0"],
        ["--protocol", "CAP", "--phase-offsets", "0,inf,0"],
        ["--protocol", "CAP", "--phases", "nan,0,0"],
        ["--protocol", "UCP", "--phases", "0,0,-inf,0,0"],
    ),
    ids=lambda flags: f"{flags[2][2:]}-{flags[3]}",
)
def test_non_finite_phase_is_a_configuration_error(flags, capsys):
    assert main(["simulate", "--steps-per-pulse", "400", *flags]) == 2
    assert "must be finite" in capsys.readouterr().err


_AXIS = ["--protocol", "RE", "--sweep-channel", "alpha", "--sweep-lo", "0", "--sweep-hi", "1", "--sweep-points", "2",
         "--steps-per-pulse", "200"]


def test_exit_code_io_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert code == 4
    code = main(
        [
            "sweep",
            "--protocol", "RE",
            "--sweep-channel", "alpha",
            "--sweep-lo", "0",
            "--sweep-hi", "1",
            "--sweep-points", "2",
            "--steps-per-pulse", "4000",
            "--output", str(tmp_path / "no" / "dir.csv"),
        ]
    )
    assert code == 4
    missing = str(tmp_path / "no" / "dir.txt")
    assert main(["simulate", "--protocol", "RE", "--steps-per-pulse", "400", "--output", missing]) == 4
    table = ["table", "--protocols", "RE", "--steps-per-pulse", "400", "--output", missing]
    assert main(table) == 4
    sweep = ["sweep", *_AXIS, "--output", str(tmp_path / "sweep.csv")]
    assert main([*sweep, "--gnuplot", missing]) == 4
    assert len(capsys.readouterr().err.splitlines()) == 5


class _ClosedStdout:
    """A stdout whose reader is gone, with no file descriptor.

    Buffered, it takes each write and fails on the flush; unbuffered, it fails
    on the write.
    """

    def __init__(self, buffered):
        self.buffered = buffered

    def write(self, text):
        if not self.buffered:
            self.flush()
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "argv",
    (
        ["simulate", "--protocol", "RE", "--steps-per-pulse", "200"],
        ["sweep", *_AXIS],
        ["table", "--protocols", "RE", "--steps-per-pulse", "200"],
        ["table", "--protocols", "RE", "--steps-per-pulse", "200", "--format", "csv"],
        ["check"],
    ),
    ids=lambda argv: " ".join(a for a in argv if a in ("simulate", "sweep", "table", "check", "csv")),
)
def test_a_closed_stdout_is_an_io_error(argv, buffered, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(buffered))
    assert main(argv) == 4
    assert capsys.readouterr().err == "i/o error: cannot write '-': [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
def test_a_closed_pipe_exits_4_with_one_line(unbuffered):
    # unless fd 1 goes to devnull after the error, a buffered stdout's flush
    # at exit fails a second time (exit 120, "Exception ignored")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pulselab", "simulate", "--protocol", "RE", "--steps-per-pulse", "200"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("i/o error:")


def test_simulate_writes_output_file(tmp_path):
    out = tmp_path / "sim.txt"
    code = main(
        ["simulate", "--protocol", "STA", "--steps-per-pulse", "4000", "--output", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "shortcut_area_over_pi = 1.000000" in text
    assert "main_area_over_pi = 1.000000" in text


@pytest.mark.parametrize("alpha, area", (("1", "1.000000"), ("0", "0.000000")))
def test_simulate_diagnostics_follow_the_technique(alpha, area, capsys):
    # STA reports its two areas even when the field is zero; the others a margin
    argv = ["simulate", "--alpha", alpha, "--steps-per-pulse", "4000"]
    assert main(argv + ["--protocol", "STA"]) == 0
    out = capsys.readouterr().out
    assert f"main_area_over_pi = {area}" in out
    assert f"shortcut_area_over_pi = {area}" in out
    assert "adiabaticity_margin" not in out
    assert main(argv + ["--protocol", "RE"]) == 0
    out = capsys.readouterr().out
    assert "adiabaticity_margin = " in out
    assert "main_area_over_pi" not in out


def test_check_suite_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS  resonant_area_law" in out
    assert "PASS  shape_error_area_preservation" in out
    assert "FAIL" not in out


def test_check_lines_report_wall_time(capsys, monkeypatch):
    from pulselab import checks

    def failing():
        return checks.CheckResult("always_fails", False, "detail")

    monkeypatch.setattr(checks, "_CHECKS", [checks._check_unitarity_algebra, failing])
    assert main(["check"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ", 1)[0] for line in lines] == ["PASS", "FAIL"]
    assert lines[1].startswith("FAIL  always_fails: detail [")
    for line in lines:
        seconds = line.rsplit("[", 1)[1]
        assert seconds.endswith(" s]") and float(seconds[:-3]) >= 0.0


def test_no_command_loads_scipy_in_the_cli_or_its_pool_workers():
    # the table's workers are forked, so they run the wrapped item evaluator
    # and raise (a traceback, exit 1) if an item left scipy loaded
    out = run_python(
        "import contextlib, io, sys\n"
        "from pulselab import sweep\n"
        "from pulselab.cli import main\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "evaluate = sweep._eval_item\n"
        "def checked_item(item, base_err, cfg, floor):\n"
        "    values = evaluate(item, base_err, cfg, floor)\n"
        "    if scipy_loaded():\n"
        "        raise RuntimeError(f'a pool worker loaded {scipy_loaded()}')\n"
        "    return values\n"
        "sweep._eval_item = checked_item\n"
        "small = ['--steps-per-pulse', '200']\n"
        "axis = ['--sweep-channel', 'alpha', '--sweep-lo', '0.9', '--sweep-hi', '1.1', '--sweep-points', '3']\n"
        "for argv in (\n"
        "    ['simulate', '--protocol', 'SP', '--convergence-tol', '1e-8'],\n"
        "    ['sweep', '--protocol', 'SP', *axis, *small],\n"
        "    ['table', '--protocols', 'RE,SP', '--workers', '2', *small],\n"
        "    ['check'],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, scipy_loaded())\n"
    )
    assert out.splitlines() == [f"{command} 0 []" for command in ("simulate", "sweep", "table", "check")]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pulselab" in capsys.readouterr().out


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is set through glibc's mallopt")
def test_a_repeated_long_point_keeps_its_arrays_mapped():
    # without the heap policy the second certified 250k-step RE point faults
    # its freed arrays back in: about 15.5k minor faults per call
    out = run_python(
        "import contextlib, io, resource\n"
        "from pulselab.cli import main\n"
        "for _ in range(2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['simulate', '--protocol', 'RE', '--convergence-tol', '1e-8']) == 0\n"
        "    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "print(faults)\n"
    )
    assert int(out) < 1000


def test_importing_the_cli_leaves_scipy_unloaded_and_sp_still_runs():
    out = run_python(
        "import sys\n"
        "from pulselab.cli import main\n"
        "print([m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules])\n"
        "sys.exit(main(['simulate', '--protocol', 'SP', '--steps-per-pulse', '4000']))\n"
    )
    loaded, *lines = out.splitlines()
    assert loaded == "[]"
    assert "protocol = SP" in lines
    assert any(line.startswith("P = 0.99") for line in lines)
