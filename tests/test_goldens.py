"""Committed figure configs regenerate byte-identical golden CSVs.

The goldens are produced by scripts/make_goldens.py on the reference platform;
this check catches any unintended change to the simulation, the configs or
the serializer.  The certified ``simulate`` outputs of goldens/simulate.txt
cover the default, blocked resolution, and the robustness table is held to
the benchmark's recorded reference table the same way.  All are regenerated
once per session (the ``regenerated`` fixture) and compared byte for byte
through make_goldens, so a failure names the figure and its max |dP|, or the
simulate lines or table rows that differ.

Each byte pin has a value twin: every figure's P column and every ``P =``
line of simulate.txt stay within 1e-12 of the committed file.  The bound
lies between the platform drift of the byte references (at most 3.5e-15
between SIMD levels) and the smallest nudge a parameter pin must see
(6.4e-8), so the twins hold on any platform and across a regeneration that
moves values by rounding only.
"""
import pathlib

import pytest

from conftest import load_make_goldens

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("fig*.cfg"))
make_goldens = load_make_goldens()
VALUE_TOL = 1e-12


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_golden_regenerates_identically(cfg, regenerated):
    assert make_goldens.differing([regenerated / (cfg.stem + ".csv")], REPO / "goldens") == []


def test_simulate_regenerates_identically(regenerated):
    assert make_goldens.row_differences(regenerated / "simulate.txt", REPO / "goldens" / "simulate.txt") == []


def test_table_regenerates_identically(regenerated):
    assert make_goldens.row_differences(regenerated / "table.csv", make_goldens.TABLE_REFERENCE) == []


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_golden_p_column_holds_its_values(cfg, regenerated):
    name = cfg.stem + ".csv"
    assert make_goldens.max_dp(regenerated / name, REPO / "goldens" / name) <= VALUE_TOL


def test_simulate_p_lines_hold_their_values(regenerated):
    assert make_goldens.simulate_max_dp(regenerated / "simulate.txt", REPO / "goldens" / "simulate.txt") <= VALUE_TOL
