"""Amplitude damping of two independently decaying qubits.

Each qubit decays |+> -> |-> at a rate Gamma; time enters only through the
dimensionless combination tau = Gamma * t (the command line converts
physical times with its ``gamma`` field).  The single-qubit amplitude
survival factor is gamma = exp(-tau / 2), so populations decay by gamma**2
per excited qubit.  Two equivalent propagators are provided: a closed form
on X states (the family is preserved) and a Kraus-operator channel on
arbitrary density matrices, the tests' and the benchmark oracle's check.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import XState, _constants, _is_finite, validate_density_matrix


def _check_tau(tau: float) -> float:
    """tau as a float, checked to be finite and non-negative: the one time
    check.  An int beyond float range, or text, is not finite."""
    if not (_is_finite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and non-negative, got {tau!r}")
    return float(tau)


def evolve_xstate_closed(state: XState, tau: float) -> XState:
    """Closed-form amplitude damping of an X state for a duration tau.

    With u = exp(-tau) the occupations follow
        a(u) = a0 * u**2
        b(u) = b0 * u + a0 * (u - u**2)
        c(u) = c0 * u + a0 * (u - u**2)
    (the doubly excited level feeds both singly excited ones), d gains what
    the others lose,
        d(u) = d0 + (1 - u) * (b0 + c0 + a0 * (1 - u)),
    and both coherences are damped by the same factor u.  At tau = 0 every
    coefficient comes back unchanged, bit for bit.
    """
    u = float(np.exp(-_check_tau(tau)))
    return XState(*damped_coefficients(*_constants(state)[0], u))


def damped_coefficients(a, b, c, d, z_inner, z_corner, u):
    """The closed-form flow of ``evolve_xstate_closed`` at u = exp(-tau).

    Plain arithmetic on the six coefficients, so floats and numpy arrays
    (one entry per time) go through the same operations in the same order
    and agree bit for bit.  Every engine path takes u from ``np.exp``,
    which gives the same bits on a float as on an array.
    """
    feed = a * (u - u * u)
    loss = 1.0 - u
    return (
        a * u * u,
        b * u + feed,
        c * u + feed,
        d + loss * (b + c + a * loss),
        z_inner * u,
        z_corner * u,
    )


def evolve_kraus(m: np.ndarray, tau: float) -> np.ndarray:
    """Amplitude-damp an arbitrary two-qubit density matrix for tau.

    Applies the product channel sum_ij (K_i x K_j) m (K_i x K_j)^dagger with
    the same Kraus pair on both qubits, at survival factor exp(-tau/2).
    """
    m = validate_density_matrix(m)
    gamma = math.exp(-_check_tau(tau) / 2.0)
    kraus = (np.array([[gamma, 0.0], [0.0, 1.0]], dtype=complex),
             np.array([[0.0, 0.0], [math.sqrt(1.0 - gamma * gamma), 0.0]], dtype=complex))
    out = np.zeros((4, 4), dtype=complex)
    for ka in kraus:
        for kb in kraus:
            k = np.kron(ka, kb)
            out += k @ m @ k.conj().T
    return out
