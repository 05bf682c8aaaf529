"""Committed figure configs regenerate byte-identical golden CSVs.

The goldens are produced by scripts/make_goldens.py on the reference platform;
this check catches any unintended change to the simulation, the configs or
the serializer.  The robustness table is held to the benchmark's recorded
reference table the same way.  Both are regenerated once per session (the
``regenerated`` fixture) and compared byte for byte through make_goldens, so
a failure names the figure and its max |dP|, or the table rows that differ.
"""
import pathlib

import pytest

from conftest import load_make_goldens

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("fig*.cfg"))
make_goldens = load_make_goldens()


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_golden_regenerates_identically(cfg, regenerated):
    assert make_goldens.differing([regenerated / (cfg.stem + ".csv")], REPO / "goldens") == []


def test_table_regenerates_identically(regenerated):
    assert make_goldens.table_differences(regenerated / "table.csv", make_goldens.TABLE_REFERENCE) == []
