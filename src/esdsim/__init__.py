"""Entanglement sudden death of two decaying qubits, and how to delay it.

Two qubits decay independently (amplitude damping); an initially entangled
X state loses its entanglement at a finite time.  Timed local Pauli-x
switches reshuffle the populations and can postpone that end or avert it
altogether.  This package evolves the states in closed form, measures
entanglement (negativity, concurrence, entropy), and locates the critical
times, with a CSV-emitting command line on top.  The package namespace holds
the X-state engine; the generic matrix route the tests check it against
(Kraus channel, switch matrices, eigenvalue measures) stays importable
from ``esdsim.channel``, ``esdsim.intervention`` and ``esdsim.qstate``.
"""

from .channel import evolve_xstate_closed
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
from .intervention import Schedule, Switch, SwitchEvent, apply_xstate
from .qstate import UnsupportedShapeError, XState, xstate_measures

__version__ = "0.1.0"

__all__ = [
    "evolve_xstate_closed",
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
    "Schedule",
    "Switch",
    "SwitchEvent",
    "apply_xstate",
    "UnsupportedShapeError",
    "XState",
    "xstate_measures",
    "__version__",
]
