import csv
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from pulselab import IntegratorConfig, Waveform  # noqa: E402
from pulselab.config import parse_config  # noqa: E402
from pulselab.sweep import _grid_points  # noqa: E402


def load_make_goldens():
    """scripts/make_goldens.py as a module."""
    spec = importlib.util.spec_from_file_location("make_goldens", REPO / "scripts" / "make_goldens.py")
    make_goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_goldens)
    return make_goldens


def read_golden(path):
    """The run config of the golden sweep CSV at ``path`` (configs/<stem>.cfg) and the file's P column.

    The file must be the grid of its own config: its header is the config's
    channels plus ``P``, every row is as wide as the header, and its point
    columns are exactly the row-major grid of the config's axes.
    """
    path = pathlib.Path(path)
    run = parse_config((REPO / "configs" / f"{path.stem}.cfg").read_text())
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [axis.channel for axis in run.axes] + ["P"], f"{path} has the header {header}"
    assert all(len(row) == len(header) for row in rows), f"{path} has a row not as wide as its header"
    points = [tuple(float(x) for x in row[:-1]) for row in rows]
    assert points == _grid_points(run.axes), f"{path} is not the row-major grid of its config"
    return run, tuple(float(row[-1]) for row in rows)


@pytest.fixture(scope="session")
def regenerated(tmp_path_factory):
    """A directory holding every figure config, the simulate reference and the table, regenerated once.

    ``make_goldens.regenerate`` writes figN.csv, ``regenerate_simulate``
    writes simulate.txt and ``regenerate_table`` writes table.csv, exactly as
    ``scripts/make_goldens.py --check`` does.
    """
    make_goldens = load_make_goldens()
    outdir = tmp_path_factory.mktemp("regenerated")
    make_goldens.regenerate(outdir)
    make_goldens.regenerate_simulate(outdir)
    make_goldens.regenerate_table(outdir)
    return outdir


@pytest.fixture(scope="session")
def fast_cfg():
    """Plot-grade resolution: plenty for 1e-6-level probabilities."""
    return IntegratorConfig(steps_per_pulse=4000)


@pytest.fixture(scope="session")
def mid_cfg():
    return IntegratorConfig(steps_per_pulse=20000)


def ck_matrix(u) -> np.ndarray:
    """The 2x2 matrix [[a, b], [-conj(b), conj(a)]] of a CK pair."""
    return np.array([[u.a, u.b], [-np.conj(u.b), np.conj(u.a)]], dtype=complex)


def solve_ivp_ck(w: Waveform, rtol=1e-12, atol=1e-14):
    """Independent oracle: adaptive RK (scipy DOP853) on the amplitude ODE.

    Returns the CK pair from the first propagator column, U @ [1, 0] = [a, -conj(b)].
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        c1, c2 = y[0] + 1j * y[1], y[2] + 1j * y[3]
        ta = np.array([t])
        W = complex(np.asarray(w.rabi(ta), dtype=complex)[0]) * np.exp(1j * w.phase)
        D = float(np.asarray(w.detuning(ta), dtype=float)[0])
        d1 = -0.5j * (-D * c1 + W * c2)
        d2 = -0.5j * (np.conj(W) * c1 + D * c2)
        return [d1.real, d1.imag, d2.real, d2.imag]

    sol = solve_ivp(rhs, w.window, [1.0, 0.0, 0.0, 0.0], method="DOP853", rtol=rtol, atol=atol)
    a = sol.y[0, -1] + 1j * sol.y[1, -1]
    b = -(sol.y[2, -1] - 1j * sol.y[3, -1])
    return a, b
