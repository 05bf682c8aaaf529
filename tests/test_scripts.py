"""The shipped experiment scripts stay runnable."""
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import load_make_goldens

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


def test_make_figures_rejects_a_figure_without_a_config(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_figures.py"),
         "--fig", "9", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ") and "invalid choice: 9" in proc.stderr
    assert "Traceback" not in proc.stderr and not list(tmp_path.iterdir())


def test_make_goldens_check_reports_differences_and_never_writes(tmp_path, regenerated, monkeypatch, capsys):
    goldens = sorted((REPO / "goldens").glob("fig*.csv")) + [REPO / "perfbench" / "reference" / "table.csv"]
    before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in goldens}
    make_goldens = load_make_goldens()

    # the session's regenerated files stand in for a second regeneration
    def regenerate(outdir):
        assert outdir.resolve() != (REPO / "goldens").resolve()
        return [pathlib.Path(shutil.copy(f, outdir)) for f in sorted(regenerated.glob("fig*.csv"))]

    def regenerate_table(outdir):
        assert outdir.resolve() != (REPO / "goldens").resolve()
        return pathlib.Path(shutil.copy(regenerated / "table.csv", outdir))

    monkeypatch.setattr(make_goldens, "regenerate", regenerate)
    monkeypatch.setattr(make_goldens, "regenerate_table", regenerate_table)
    assert make_goldens.run(["--check"]) == 0
    assert capsys.readouterr().out == "all goldens and the reference table regenerate byte-identically\n"
    assert {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in goldens} == before

    lines = (REPO / "goldens" / "fig2.csv").read_text().splitlines(keepends=True)
    alpha, p = lines[5].rstrip("\r\n").split(",")
    lines[5] = f"{alpha},{float(p) + 1e-9!r}\r\n"
    new = tmp_path / "fig2.csv"
    new.write_text("".join(lines), newline="")
    same = tmp_path / "fig3.csv"
    same.write_bytes((REPO / "goldens" / "fig3.csv").read_bytes())
    (diff,) = make_goldens.differing([new, same], REPO / "goldens")
    assert diff[0] == "fig2" and diff[1] == pytest.approx(1e-9, rel=1e-3)


def test_make_goldens_check_prints_the_table_rows_that_differ(tmp_path):
    make_goldens = load_make_goldens()
    reference = make_goldens.TABLE_REFERENCE
    lines = reference.read_bytes().split(b"\r\n")
    assert make_goldens.table_differences(reference, reference) == []
    lines[3] = lines[3].replace(b",false", b",true")
    changed = tmp_path / "table.csv"
    changed.write_bytes(b"\r\n".join(lines))
    (diff,) = make_goldens.table_differences(changed, reference)
    assert diff.startswith("row 3: ") and "true" in diff
    unix = tmp_path / "unix.csv"
    unix.write_bytes(reference.read_bytes().replace(b"\r\n", b"\n"))
    assert make_goldens.table_differences(unix, reference) == ["bytes differ in line endings or quoting only"]
