"""Entanglement sudden death of two decaying qubits, and how to delay it.

Two qubits decay independently (amplitude damping); an initially entangled
X state loses its entanglement at a finite time.  Timed local Pauli-x
switches reshuffle the populations and can postpone that end or avert it
altogether.  This package evolves the states (closed form and Kraus),
measures entanglement (negativity, concurrence), and locates the critical
times, with a CSV-emitting command line on top.
"""

from .channel import (
    amplitude_damping_kraus,
    evolve_kraus,
    evolve_xstate_closed,
    gamma_factor,
)
from .deathclock import (
    BracketError,
    DeathReport,
    Fate,
    NoCrossingError,
    SweepCurve,
    Trajectory,
    discriminant,
    end_times,
    find_ad_crossing,
    find_aversion_threshold,
    find_end_time,
    single_switch_curve,
    state_at,
    sweep_switch_times,
    trajectory,
)
from .intervention import (
    GeneralUnitary,
    LocalUnitary,
    Schedule,
    Switch,
    SwitchEvent,
    apply_unitary,
    apply_xstate,
    unitary_matrix,
)
from .qstate import (
    UnsupportedShapeError,
    XState,
    concurrence,
    negativity,
    negativity_xstate,
    partial_transpose,
    to_density_matrix,
    von_neumann_entropy,
    xstate_measures,
)

__version__ = "0.1.0"

__all__ = [
    "amplitude_damping_kraus",
    "evolve_kraus",
    "evolve_xstate_closed",
    "gamma_factor",
    "BracketError",
    "DeathReport",
    "Fate",
    "NoCrossingError",
    "SweepCurve",
    "Trajectory",
    "discriminant",
    "end_times",
    "find_ad_crossing",
    "find_aversion_threshold",
    "find_end_time",
    "single_switch_curve",
    "state_at",
    "sweep_switch_times",
    "trajectory",
    "GeneralUnitary",
    "LocalUnitary",
    "Schedule",
    "Switch",
    "SwitchEvent",
    "apply_unitary",
    "apply_xstate",
    "unitary_matrix",
    "UnsupportedShapeError",
    "XState",
    "concurrence",
    "negativity",
    "negativity_xstate",
    "partial_transpose",
    "to_density_matrix",
    "von_neumann_entropy",
    "xstate_measures",
    "__version__",
]
