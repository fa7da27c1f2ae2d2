"""Instantaneous local-unitary interventions ("switches") and their schedules.

A switch flips one or both qubits with the Pauli-x gate at a chosen instant,
exchanging the excited and ground levels so that subsequent decay acts on the
swapped populations.  On X states every named switch is a pure permutation of
the coefficients, which the ``apply_xstate`` fast path implements exactly;
``apply_unitary`` conjugates a density matrix by the same switch, the matrix
route the tests check it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

from .qstate import _COEFFICIENTS, XState, validate_density_matrix

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class Switch(Enum):
    """Named Pauli-x switches: flip both qubits, or only Alice's / Bob's."""

    BOTH = "both"
    ALICE = "alice"
    BOB = "bob"


def unitary_matrix(op: Switch) -> np.ndarray:
    """The 4x4 matrix a named switch applies (u_a tensor u_b)."""
    if not isinstance(op, Switch):
        raise TypeError(f"expected a named Switch, got {op!r}")
    identity = np.eye(2, dtype=complex)  # on the qubit a single switch leaves alone
    return np.kron(identity if op is Switch.BOB else PAULI_X,
                   identity if op is Switch.ALICE else PAULI_X)


def apply_unitary(m: np.ndarray, op: Switch) -> np.ndarray:
    """Conjugate a density matrix by a named switch: U m U^dagger."""
    m = validate_density_matrix(m)
    u = unitary_matrix(op)
    return u @ m @ u.conj().T


# Where each of (a, b, c, d, z_inner, z_corner) comes from after a named
# switch.  Flipping both qubits reverses the occupation order and keeps each
# coherence in its slot; flipping a single qubit exchanges the inner and
# corner slots instead.  Keyed by the switch's value: a str caches its
# hash, where Enum.__hash__ runs in Python on every lookup.
_SWITCHED = {
    Switch.BOTH.value: itemgetter(3, 2, 1, 0, 4, 5),
    Switch.ALICE.value: itemgetter(2, 3, 0, 1, 5, 4),
    Switch.BOB.value: itemgetter(1, 0, 3, 2, 5, 4),
}


def switch_coefficients(switch: Switch, coefficients: tuple) -> tuple:
    """The coefficient permutation a named switch performs on an X state.

    ``coefficients`` is (a, b, c, d, z_inner, z_corner), as floats or as
    numpy arrays of one shape; the same entries come back reordered.
    """
    if not isinstance(switch, Switch):
        raise TypeError(f"expected a named Switch, got {switch!r}")
    return _SWITCHED[switch._value_](coefficients)


def apply_xstate(state: XState, switch: Switch) -> XState:
    """Exact coefficient permutation a named switch performs on an X state."""
    return XState(*switch_coefficients(switch, _COEFFICIENTS(state)))


@dataclass(frozen=True, slots=True)
class SwitchEvent:
    """One intervention: the named switch ``op`` at dimensionless time ``tau``."""

    tau: float
    op: Switch

    def __post_init__(self) -> None:
        tau = self.tau
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ValueError(f"SwitchEvent.tau must be >= 0, got {tau!r}")
        if not isinstance(self.op, Switch):
            raise TypeError(f"SwitchEvent.op must be a named Switch, got {self.op!r}")


@dataclass(frozen=True, slots=True)
class Schedule:
    """A time-ordered sequence of switch events (times strictly increasing)."""

    events: tuple[SwitchEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for earlier, later in zip(events, events[1:]):
            if not later.tau > earlier.tau:
                raise ValueError(
                    f"schedule times must strictly increase, got "
                    f"{earlier.tau!r} then {later.tau!r}"
                )

    @classmethod
    def single(cls, tau: float, op: Switch) -> "Schedule":
        return cls((SwitchEvent(tau, op),))
