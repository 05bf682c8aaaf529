#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarise each end-to-end metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

Pair i runs ``perfbench/run.py --workload W --seed i --seconds S`` once in
each checkout, the parent first in even pairs and the change first in odd
ones.  Each run's wall time, correctness, failed operations and metrics go
to stderr as it ends.  Then one line per end-to-end metric of the change's
BENCHMARK.json goes to stdout: each side's median and quartiles, the
parent's interquartile range, the change's median relative to the parent's,
the pairs in which the change reads better (ties count for neither), and
whether the change's median is worse than the parent's by no more than the
metric's ``bound``, a fraction of the parent's median: the gate every change
must pass.  Each line ends with whether a gain may be claimed: only when the
change is better in at least nine tenths of the pairs and its median is better
than the parent's by more than the parent's interquartile range.  One line per
op follows, from each run's information line (``op_times_s``): the op's time
in a run is its median over the run's passes, and the line gives each side's
median over the runs and the pairs in which the change's op is faster, so a
claim shows which ops moved.  The ops are fig2..fig7 on ``golden_sweeps``,
RE..UCP on ``certificate`` and the table on ``robustness_table``.  A run whose
output is not correct or that failed operations makes the script exit 1 after
the summary, naming the run on stderr.  The checkouts are only read and run.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

SIDES = ("parent", "change")

# The ops of one pass, in the order perfbench/workloads.py issues them
OP_NAMES = {
    "golden_sweeps": ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"),
    "robustness_table": ("table",),
    "certificate": ("RE", "AF", "STA", "SP", "CAP", "UCP"),
}


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: int) -> Dict[str, object]:
    """The result line of one benchmark run in ``checkout``, with its wall time as ``wall_s``
    and the ``op_times_s`` of its information line, the line before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the benchmark exited {proc.returncode}: {proc.stderr.strip()}")
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    result["wall_s"] = wall
    result["op_times_s"] = info["op_times_s"]
    return result


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile (inclusive method; one value is all three)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(end_to_end: Sequence[dict], runs: Dict[str, List[dict]]) -> List[str]:
    """One line per metric of ``end_to_end`` over the paired ``runs`` of each side."""
    lines = []
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        q = {side: quartiles(values[side]) for side in SIDES}
        better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        change = q["change"][1] / q["parent"][1] - 1.0 if q["parent"][1] else float("nan")
        within = -sign * change <= metric["bound"]  # False for a NaN change
        iqr = q["parent"][2] - q["parent"][0]
        if better < 0.9 * len(values["parent"]):
            claim = "no gain claimable: better in under 9/10 of the pairs"
        elif not sign * (q["change"][1] - q["parent"][1]) > iqr:
            claim = "no gain claimable: the medians differ by no more than the parent IQR"
        else:
            claim = "gain claimable"
        lines.append(
            f"{name} [{metric['unit']}, {metric['better']} is better]: "
            + "; ".join(f"{side} median {q[side][1]:.6g} (quartiles {q[side][0]:.6g}, {q[side][2]:.6g})" for side in SIDES)
            + f"; parent IQR {iqr:.6g}; change {change:+.1%};"
            + f" change better in {better}/{len(values['parent'])} pairs;"
            + f" {'within' if within else 'worse than'} its {100 * metric['bound']:g}% bound; {claim}"
        )
    return lines


def summarize_ops(workload: str, runs: Dict[str, List[dict]]) -> List[str]:
    """One line per op of ``workload``: each side's median op time over the paired ``runs``, and the pairs won."""
    times = {
        side: [[statistics.median(samples) for samples in run["op_times_s"]] for run in runs[side]] for side in SIDES
    }
    count = len(times["parent"][0])
    names = OP_NAMES.get(workload, ())
    if len(names) != count:
        names = tuple(str(k + 1) for k in range(count))
    lines = []
    for k, name in enumerate(names):
        op = {side: [run[k] for run in times[side]] for side in SIDES}
        median = {side: statistics.median(op[side]) for side in SIDES}
        faster = sum(c < p for p, c in zip(op["parent"], op["change"]))
        change = median["change"] / median["parent"] - 1.0 if median["parent"] else float("nan")
        lines.append(
            f"op {name} [reference s, lower is better]: parent median {median['parent']:.6g};"
            f" change median {median['change']:.6g}; change {change:+.1%};"
            f" change faster in {faster}/{len(op['parent'])} pairs"
        )
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent, "change": args.change}
    runs: Dict[str, List[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, pair, args.seconds)
            runs[side].append(result)
            values = ", ".join(f"{name} {m['value']:.6g}" for name, m in result["metrics"].items())
            print(
                f"pair {pair} {side}: wall {result['wall_s']:.1f} s, correct {result['correct']},"
                f" failed {result['failed']}/{result['attempted']}, {values}",
                file=sys.stderr,
            )
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(end_to_end, runs) + summarize_ops(args.workload, runs)))
    invalid = [
        f"pair {pair} {side}"
        for pair in range(args.pairs)
        for side in SIDES
        if not runs[side][pair]["correct"] or runs[side][pair]["failed"]
    ]
    if invalid:
        print(f"invalid runs (incorrect output or failed operations): {', '.join(invalid)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
