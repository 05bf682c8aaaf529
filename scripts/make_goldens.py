#!/usr/bin/env python3
"""Regenerate the golden CSVs in goldens/ from the committed run configs.

The Tier-1 test tests/test_goldens.py regenerates every figure config and
byte-compares it with these files, so rerun this script (and commit the
result) whenever a config or the simulation itself changes intentionally.

``--check`` regenerates into a temporary directory instead and compares:
it prints every figure whose bytes differ with its max |dP|.  It also
regenerates ``table --steps-per-pulse 4000 --workers 2`` and compares it
with perfbench/reference/table.csv, printing every row that differs.  It
exits 1 if anything differs and never writes to goldens/ or to the
reference table, which this script does not regenerate.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import pathlib
import sys
import tempfile
from typing import List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
TABLE_REFERENCE = REPO / "perfbench" / "reference" / "table.csv"
sys.path.insert(0, str(REPO / "src"))

from pulselab.cli import main  # noqa: E402


def regenerate(outdir: pathlib.Path) -> List[pathlib.Path]:
    """Run every figure config, writing figN.csv into ``outdir``."""
    written = []
    for cfg in sorted((REPO / "configs").glob("fig*.cfg")):
        out = outdir / (cfg.stem + ".csv")
        code = main(["sweep", "--config", str(cfg), "--output", str(out)])
        if code != 0:
            raise SystemExit(f"sweep failed for {cfg} (exit {code})")
        written.append(out)
    return written


def regenerate_table(outdir: pathlib.Path) -> pathlib.Path:
    """Run the robustness table the reference was recorded with, into ``outdir``."""
    out = outdir / "table.csv"
    code = main(["table", "--steps-per-pulse", "4000", "--workers", "2", "--output", str(out)])
    if code != 0:
        raise SystemExit(f"table failed (exit {code})")
    return out


def _rows(path: pathlib.Path) -> List[List[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def max_dp(new: pathlib.Path, golden: pathlib.Path) -> float:
    """Largest |P difference| between two result CSVs; inf if their grids differ."""
    a, b = _rows(new), _rows(golden)
    if len(a) != len(b) or a[0] != b[0] or any(x[:-1] != y[:-1] for x, y in zip(a[1:], b[1:])):
        return float("inf")
    return max((abs(float(x[-1]) - float(y[-1])) for x, y in zip(a[1:], b[1:])), default=0.0)


def differing(new_files: List[pathlib.Path], golden_dir: pathlib.Path) -> List[Tuple[str, float]]:
    """(figure, max |dP|) for every regenerated file whose bytes differ from its golden."""
    out = []
    for new in new_files:
        golden = golden_dir / new.name
        if not golden.exists():
            out.append((new.stem, float("inf")))
        elif new.read_bytes() != golden.read_bytes():
            out.append((new.stem, max_dp(new, golden)))
    return out


def table_differences(new: pathlib.Path, reference: pathlib.Path) -> List[str]:
    """One line per row of ``new`` that differs from ``reference``; [] if the bytes are equal."""
    if new.read_bytes() == reference.read_bytes():
        return []
    pairs = itertools.zip_longest(_rows(new), _rows(reference), fillvalue=[])
    lines = [
        f"row {i}: {','.join(a)!r} != reference {','.join(b)!r}"
        for i, (a, b) in enumerate(pairs)
        if a != b
    ]
    return lines or ["bytes differ in line endings or quoting only"]


def run(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with goldens/ and the reference table instead of overwriting goldens/",
    )
    args = parser.parse_args(argv)
    if not args.check:
        for out in regenerate(REPO / "goldens"):
            print(f"wrote {out}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        diffs = differing(regenerate(pathlib.Path(tmp)), REPO / "goldens")
        table = table_differences(regenerate_table(pathlib.Path(tmp)), TABLE_REFERENCE)
    for name, dp in diffs:
        print(f"{name}: differs from goldens/{name}.csv, max |dP| = {dp:.3e}")
    for line in table:
        print(f"table: {line}")
    if not diffs and not table:
        print("all goldens and the reference table regenerate byte-identically")
    return 1 if diffs or table else 0


if __name__ == "__main__":
    raise SystemExit(run())
