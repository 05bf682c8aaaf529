"""pulselab: robustness laboratory for two-state coherent control.

Six control techniques (resonant excitation, adiabatic following,
counterdiabatic shortcut, shaped pulse, composite adiabatic passage and
universal composite pulses), six parameterized experimental error channels,
an exactly-unitary propagator integrator, and a sweep engine that maps
transition probability over error-parameter grids.
"""

__version__ = "0.1.0"

from .channels import ErrorVector, apply_errors
from .core import (
    CKPropagator,
    PulseSequence,
    Waveform,
    compose,
    phase_shifted,
    pulse_area,
    sequence_area,
    transition_probability,
)
from .integrator import IntegratorConfig, convergence_check, propagate, propagate_sequence
from .protocols import (
    ProtocolSpec,
    adiabaticity_margin,
    mixing_angle_rate,
    nominal_spec,
)
from .sweep import SweepAxis, SweepResult, comparison_table, sweep1d, sweep2d

__all__ = [
    "__version__",
    "CKPropagator",
    "Waveform",
    "PulseSequence",
    "transition_probability",
    "compose",
    "phase_shifted",
    "pulse_area",
    "sequence_area",
    "IntegratorConfig",
    "propagate",
    "propagate_sequence",
    "convergence_check",
    "ProtocolSpec",
    "nominal_spec",
    "mixing_angle_rate",
    "adiabaticity_margin",
    "ErrorVector",
    "apply_errors",
    "SweepAxis",
    "SweepResult",
    "sweep1d",
    "sweep2d",
    "comparison_table",
]
