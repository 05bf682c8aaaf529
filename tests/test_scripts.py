"""The shipped experiment scripts stay runnable."""
import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_make_figures_single_figure(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_figures.py"),
         "--fig", "2", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    figdir = tmp_path / "fig2"
    made = sorted(p.name for p in figdir.iterdir())
    assert made == ["af.csv", "cap.csv", "plot.gp", "re.csv", "sp.csv", "sta.csv", "ucp.csv"]
    header = (figdir / "ucp.csv").read_text().splitlines()[0]
    assert header == "alpha,P"


def test_make_goldens_check_reports_differences_and_never_writes(tmp_path):
    goldens = sorted((REPO / "goldens").glob("fig*.csv"))
    before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in goldens}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_goldens.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in goldens} == before

    spec = importlib.util.spec_from_file_location("make_goldens", REPO / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    lines = (REPO / "goldens" / "fig2.csv").read_text().splitlines(keepends=True)
    alpha, p = lines[5].rstrip("\r\n").split(",")
    lines[5] = f"{alpha},{float(p) + 1e-9!r}\r\n"
    new = tmp_path / "fig2.csv"
    new.write_text("".join(lines), newline="")
    same = tmp_path / "fig3.csv"
    same.write_bytes((REPO / "goldens" / "fig3.csv").read_bytes())
    (diff,) = make_goldens.differing([new, same], REPO / "goldens")
    assert diff[0] == "fig2" and diff[1] == pytest.approx(1e-9, rel=1e-3)
