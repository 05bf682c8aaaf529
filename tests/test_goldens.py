"""Committed figure configs regenerate byte-identical golden CSVs.

The goldens are produced by scripts/make_goldens.py on the reference platform;
this check catches any unintended change to the simulation, the configs or
the serializer.  The robustness table is held to the benchmark's recorded
reference table the same way.
"""
import pathlib

import pytest

from pulselab.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("fig*.cfg"))


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_golden_regenerates_identically(cfg, tmp_path):
    golden = REPO / "goldens" / (cfg.stem + ".csv")
    out = tmp_path / "regen.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_table_regenerates_identically(tmp_path):
    reference = REPO / "perfbench" / "reference" / "table.csv"
    out = tmp_path / "table.csv"
    argv = ["table", "--steps-per-pulse", "4000", "--workers", "2", "--output", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == reference.read_bytes()
