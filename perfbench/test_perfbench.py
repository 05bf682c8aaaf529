"""Self-tests of the benchmark: span arithmetic, correctness gates, seeded inputs."""
from __future__ import annotations

import json
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import client, spans, workloads  # noqa: E402


def test_self_time_of_nested_spans():
    synthetic = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 2],
        ["b", 11.0, 12.0, -1],
    ]
    st = spans.self_times(synthetic)
    assert st["a"].calls == 1 and st["a"].total == 10.0 and st["a"].own == 3.0
    assert st["b"].calls == 2 and st["b"].total == 4.0 and st["b"].own == 4.0
    assert st["c"].own == 3.0
    assert st["d"].own == 1.0


def test_self_time_counts_overlapping_children_once():
    synthetic = [["p", 0.0, 10.0, -1], ["x", 2.0, 6.0, 0], ["y", 4.0, 12.0, 0], ["z", 3.0, 5.0, 0]]
    assert spans.self_times(synthetic)["p"].own == 2.0


def test_golden_with_corrupted_byte_fails_one_point(tmp_path):
    for sub in ("configs", "goldens"):
        shutil.copytree(ROOT / sub, tmp_path / sub)
    golden = tmp_path / "goldens" / "fig5.csv"
    data = bytearray(golden.read_bytes())
    last_digit = data.index(b"\r\n", 200) - 1
    data[last_digit] = ord("9") if data[last_digit] != ord("9") else ord("8")
    golden.write_bytes(bytes(data))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    wl = workloads.golden_sweeps(tmp_path, out_dir, seed=0)
    op = next(op for op in wl.passes(0) if op.output.name == "fig5.csv")
    shutil.copy(ROOT / "goldens" / "fig5.csv", op.output)
    assert op.check(0, "") == 1
    op.output.unlink()
    assert op.check(0, "") == op.points == 201
    assert op.check(3, "") == 201


def test_table_with_perturbed_row_fails_that_sweep():
    reference = workloads.TABLE_REFERENCE.read_bytes()
    assert workloads.table_failures(reference, reference) == 0
    lines = reference.split(b"\r\n")
    channel, protocol, threshold, half_width, *rest = lines[5].split(b",")
    assert channel == b"alpha"
    lines[5] = b",".join([channel, protocol, threshold, half_width + b"1", *rest])
    assert workloads.table_failures(b"\r\n".join(lines), reference) == 201
    assert workloads.table_failures(None, reference) == 4986
    assert workloads.table_failures(b"\xff garbage", reference) == 4986


def test_raising_command_is_a_failed_op_not_a_crash():
    def broken_main(argv):
        raise RuntimeError("boom")

    op = workloads.Op(("simulate",), 7, lambda code, out: 0)
    wall, failed = client.issue(broken_main, op)
    assert failed == 7 and wall >= 0.0


def test_certificate_inputs_are_a_pure_function_of_the_seed():
    first = workloads.certificate_inputs(11, 3)
    assert first == workloads.certificate_inputs(11, 3)
    assert first != workloads.certificate_inputs(12, 3)
    assert first != workloads.certificate_inputs(11, 4)
    assert [kind for kind, _ in first] == list(workloads.CERT_KINDS)
    for _, errors in first:
        for channel, lo, hi in workloads.CERT_RANGES:
            assert lo <= errors[channel] <= hi


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    import pulselab.cli
    import pulselab.integrator

    original = pulselab.integrator.propagate
    out = tmp_path / "cap.csv"
    argv = [
        "sweep", "--protocol", "CAP", "--sweep-channel", "alpha", "--sweep-lo", "0.5",
        "--sweep-hi", "1.5", "--sweep-points", "3", "--steps-per-pulse", "200",
        "--output", str(out),
    ]
    op = workloads.Op(tuple(argv), 3, lambda code, stdout: 0 if code == 0 else 3, out)
    tracer = spans.Tracer()
    runs = []
    for _ in range(2):
        tracer.reset()
        with spans.instrument(tracer, []) as missing:
            assert missing == []
            assert pulselab.integrator.propagate is not original
            assert client.issue(pulselab.cli.main, op, tracer)[1] == 0
        runs.append(spans.layer_metrics(tracer))
    assert pulselab.integrator.propagate is original
    assert spans.counts_that_differ(runs) == []
    m = runs[0]
    assert m["sweep.points"] == 3
    assert m["integrator.propagate.calls"] == 9
    assert m["integrator.steps"] == 9 * 200
    assert m["protocols.sample.samples"] == 2 * 9 * 200
    assert m["core.compose.calls"] == 6
    assert m["serialize.bytes"] == out.stat().st_size


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER.items())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "points_per_s", "point_ms_p50", "point_ms_p90", "peak_rss_mib", "setup_s",
    }



def test_certificate_point_disagreeing_with_the_oracle_fails():
    from perfbench import oracle

    wl = workloads.certificate(ROOT, ROOT, seed=5)
    op = wl.passes(0)[0]
    kind, errors = workloads.certificate_inputs(5, 0)[0]
    assert op.argv[:3] == ("simulate", "--protocol", kind) == ("simulate", "--protocol", "RE")
    p = oracle.transition_probability(kind, errors)
    assert op.check(0, f"P = {p!r}\n") == 0
    assert op.check(0, f"P = {p + 1e-6!r}\n") == 0  # judged by verify()
    assert op.check(3, "numerical failure") == 1
    assert wl.verify() == 1
