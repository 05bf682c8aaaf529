"""Independent DOP853 oracle for the certificate workload.

``solve_ivp_ck`` is the benchmark's own copy of the oracle in
``tests/conftest.py``, so that the benchmark does not depend on the test
tree.  Sequences are composed pulse by pulse, as the integrator does.
"""
from __future__ import annotations

from typing import Dict

import numpy as np


def solve_ivp_ck(w, rtol=1e-12, atol=1e-14):
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


def transition_probability(kind: str, errors: Dict[str, float]) -> float:
    """P of the nominal ``kind`` sequence under ``errors``, by the oracle."""
    from pulselab.channels import ErrorVector, apply_errors
    from pulselab.protocols import nominal_spec

    seq = apply_errors(nominal_spec(kind), ErrorVector(**errors))
    a, b = 1.0 + 0.0j, 0.0j
    for w in seq.pulses:
        a2, b2 = solve_ivp_ck(w)
        a, b = a2 * a - b2 * np.conj(b), a2 * b + b2 * np.conj(a)
    return float(abs(b) ** 2)
