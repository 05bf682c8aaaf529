"""The shipped experiment scripts stay runnable."""
import importlib.util
import json
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
    goldens = sorted((REPO / "goldens").glob("*")) + [REPO / "perfbench" / "reference" / "table.csv"]
    before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in goldens}
    make_goldens = load_make_goldens()

    # the session's regenerated files stand in for a second regeneration
    def regenerate(outdir):
        assert outdir.resolve() != (REPO / "goldens").resolve()
        return [pathlib.Path(shutil.copy(f, outdir)) for f in sorted(regenerated.glob("fig*.csv"))]

    def regenerate_simulate(outdir):
        assert outdir.resolve() != (REPO / "goldens").resolve()
        return pathlib.Path(shutil.copy(regenerated / "simulate.txt", outdir))

    def regenerate_table(outdir):
        assert outdir.resolve() != (REPO / "goldens").resolve()
        return pathlib.Path(shutil.copy(regenerated / "table.csv", outdir))

    monkeypatch.setattr(make_goldens, "regenerate", regenerate)
    monkeypatch.setattr(make_goldens, "regenerate_simulate", regenerate_simulate)
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


def test_make_goldens_check_prints_the_max_dp_of_the_simulate_p_lines(tmp_path, monkeypatch, capsys):
    make_goldens = load_make_goldens()
    golden = REPO / "goldens" / "simulate.txt"
    lines = golden.read_text(encoding="utf-8").splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if line.startswith("P = "))
    lines[k] = f"P = {float(lines[k][4:]) - 1e-9!r}\n"
    nudged = tmp_path / "nudged.txt"
    nudged.write_text("".join(lines), encoding="utf-8", newline="")
    assert make_goldens.simulate_max_dp(golden, golden) == 0.0
    assert make_goldens.simulate_max_dp(nudged, golden) == pytest.approx(1e-9, rel=1e-3)
    dropped = tmp_path / "dropped.txt"
    dropped.write_text("".join(lines[:k] + lines[k + 1:]), encoding="utf-8", newline="")
    assert make_goldens.simulate_max_dp(dropped, golden) == float("inf")

    monkeypatch.setattr(make_goldens, "regenerate", lambda outdir: [])
    monkeypatch.setattr(make_goldens, "regenerate_simulate", lambda outdir: nudged)
    monkeypatch.setattr(make_goldens, "regenerate_table", lambda outdir: make_goldens.TABLE_REFERENCE)
    assert make_goldens.run(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("simulate: max |dP| = 1.000e-09")


def test_make_goldens_check_prints_the_table_rows_that_differ(tmp_path):
    make_goldens = load_make_goldens()
    reference = make_goldens.TABLE_REFERENCE
    lines = reference.read_bytes().split(b"\r\n")
    assert make_goldens.row_differences(reference, reference) == []
    lines[3] = lines[3].replace(b",false", b",true")
    changed = tmp_path / "table.csv"
    changed.write_bytes(b"\r\n".join(lines))
    (diff,) = make_goldens.row_differences(changed, reference)
    assert diff.startswith("row 3: ") and "true" in diff
    unix = tmp_path / "unix.csv"
    unix.write_bytes(reference.read_bytes().replace(b"\r\n", b"\n"))
    assert make_goldens.row_differences(unix, reference) == ["bytes differ in line endings or quoting only"]


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def synthetic_run(points_per_s, p50, op_times_s=((1.0,),)):
    metrics = {"points_per_s": {"value": points_per_s, "unit": "1/s"}, "point_ms_p50": {"value": p50, "unit": "ms"}}
    run = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "wall_s": 1.0}
    return {**run, "op_times_s": [list(samples) for samples in op_times_s]}


SYNTHETIC_METRICS = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "point_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]


def test_bench_pairs_summarizes_each_metric_by_quartiles_and_pairs_won():
    bench_pairs = load_bench_pairs()
    runs = {
        "parent": [synthetic_run(v, p) for v, p in ((100, 2.0), (110, 2.0), (120, 3.0), (130, 3.0), (140, 4.0))],
        "change": [synthetic_run(v, p) for v, p in ((150, 1.0), (105, 2.0), (160, 3.5), (170, 2.5), (180, 3.0))],
    }
    rate, p50 = bench_pairs.summarize(SYNTHETIC_METRICS, runs)
    assert rate == (
        "points_per_s [1/s, higher is better]: parent median 120 (quartiles 110, 130);"
        " change median 160 (quartiles 150, 170); parent IQR 20; change +33.3%; change better in 4/5 pairs; within its 25% bound;"
        " no gain claimable: better in under 9/10 of the pairs"
    )
    # lower is better: pair 2 is a tie and pair 3 a loss
    assert p50 == (
        "point_ms_p50 [ms, lower is better]: parent median 3 (quartiles 2, 3);"
        " change median 2.5 (quartiles 2, 3); parent IQR 1; change -16.7%; change better in 3/5 pairs; within its 25% bound;"
        " no gain claimable: better in under 9/10 of the pairs"
    )
    # the sides swapped: a rate 25% lower is inside a 25% bound and outside a 20% one,
    # and a median 20% higher where lower is better is outside a 10% one
    swapped = {"parent": runs["change"], "change": runs["parent"]}
    bounds = [{**SYNTHETIC_METRICS[0], "bound": 0.25}, {**SYNTHETIC_METRICS[0], "bound": 0.2}]
    bounds.append({**SYNTHETIC_METRICS[1], "bound": 0.1})
    assert [line.split("; ")[-2] for line in bench_pairs.summarize(bounds, swapped)] == [
        "within its 25% bound", "worse than its 20% bound", "worse than its 10% bound"
    ]
    # a gain needs the change better in 9/10 of the pairs and the medians apart by more than the parent IQR
    parent = [synthetic_run(v, 3.0) for v in (100, 110, 120, 130, 140)]
    for change, claim in (
        ((150, 160, 170, 180, 190), "gain claimable"),  # 5/5 pairs, medians 50 apart, IQR 20
        ((150, 160, 170, 180, 139), "no gain claimable: better in under 9/10 of the pairs"),  # 4/5 pairs
        ((101, 111, 121, 131, 141), "no gain claimable: the medians differ by no more than the parent IQR"),
    ):
        runs = {"parent": parent, "change": [synthetic_run(v, 3.0) for v in change]}
        assert bench_pairs.summarize(SYNTHETIC_METRICS[:1], runs)[0].rsplit("; ", 1)[1] == claim


def test_bench_pairs_alternates_the_order_and_seeds_by_pair(tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SYNTHETIC_METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return synthetic_run(100.0 + len(calls), 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    parent, change = tmp_path / "p", tmp_path
    assert bench_pairs.main([str(parent), str(change), "--workload", "certificate", "--pairs", "3", "--seconds", "2"]) == 0
    order = [(name, seed) for name, _, seed, _ in calls]
    assert order == [("p", 0), (tmp_path.name, 0), (tmp_path.name, 1), ("p", 1), ("p", 2), (tmp_path.name, 2)]
    assert {(workload, seconds) for _, workload, _, seconds in calls} == {("certificate", 2)}
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "points_per_s [1/s, higher is better]", "point_ms_p50 [ms, lower is better]", "op 1 [reference s, lower is better]"
    ]
    assert len(err.splitlines()) == 6 and err.startswith("pair 0 parent: wall 1.0 s, correct True, failed 0/10, points_per_s 101, point_ms_p50 1\n")


@pytest.mark.parametrize("fault", ({"correct": False}, {"failed": 2}), ids=("incorrect", "failed-operations"))
def test_bench_pairs_summarizes_and_exits_1_naming_an_invalid_run(fault, tmp_path, monkeypatch, capsys):
    bench_pairs = load_bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SYNTHETIC_METRICS}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(checkout)
        run = synthetic_run(100.0 + len(calls), 1.0)
        return {**run, **fault} if (seed, checkout) == (1, tmp_path) else run

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = [str(tmp_path / "p"), str(tmp_path), "--workload", "robustness_table", "--pairs", "2", "--seconds", "2"]
    assert bench_pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == len(SYNTHETIC_METRICS) + 1  # the summary and the table's op are still printed
    assert err.splitlines()[-1] == "invalid runs (incorrect output or failed operations): pair 1 change"


def test_bench_pairs_reads_the_op_times_of_the_information_line(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    info = {"passes": 2, "op_times_s": [[0.5, 0.7], [0.2, 0.1]]}
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": {}}
    seen = []

    def fake_subprocess_run(cmd, cwd, capture_output, text):
        seen.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, f"ready\n{json.dumps(info)}\n{json.dumps(result)}\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    run = bench_pairs.run_once(tmp_path, "golden_sweeps", 3, 25)
    assert seen == [(["perfbench/run.py", "--workload", "golden_sweeps", "--seed", "3", "--seconds", "25"], tmp_path)]
    assert run["op_times_s"] == info["op_times_s"] and run["attempted"] == 12 and run["wall_s"] >= 0


def test_bench_pairs_summarizes_each_op_by_its_median_over_passes_and_runs():
    bench_pairs = load_bench_pairs()
    # each op's time in a run is its median over the run's passes: figs 2 and 4 get faster, fig6 does not
    parent = [[[1.0, 1.2, 0.9], [0.5], [2.0], [0.4], [3.0], [0.3]], [[1.1], [0.5], [2.2], [0.4], [3.1], [0.3]]]
    change = [[[0.8, 0.9, 5.0], [0.5], [1.8], [0.4], [3.0], [0.3]], [[0.9], [0.5], [1.9], [0.4], [3.2], [0.3]]]
    runs = {
        "parent": [synthetic_run(100, 1.0, ops) for ops in parent],
        "change": [synthetic_run(100, 1.0, ops) for ops in change],
    }
    lines = bench_pairs.summarize_ops("golden_sweeps", runs)
    assert [line.split(" [")[0] for line in lines] == ["op fig2", "op fig3", "op fig4", "op fig5", "op fig6", "op fig7"]
    assert lines[0] == (
        "op fig2 [reference s, lower is better]: parent median 1.05; change median 0.9; change -14.3%;"
        " change faster in 2/2 pairs"
    )
    assert lines[2].endswith("change median 1.85; change -11.9%; change faster in 2/2 pairs")
    assert lines[4].endswith("parent median 3.05; change median 3.1; change +1.6%; change faster in 0/2 pairs")
    certificate = bench_pairs.summarize_ops("certificate", {side: runs[side][:1] for side in runs})
    assert [line.split(" [")[0] for line in certificate] == ["op RE", "op AF", "op STA", "op SP", "op CAP", "op UCP"]
    # a workload without names, or whose op count differs, numbers its ops
    assert [line.split(" [")[0] for line in bench_pairs.summarize_ops("robustness_table", runs)][:2] == ["op 1", "op 2"]
