"""Amplitude damping of two independently decaying qubits.

Each qubit decays |+> -> |-> at a rate Gamma; time enters only through the
dimensionless combination tau = Gamma * t (the command line converts
physical times with its ``gamma`` field).  The single-qubit amplitude
survival factor is gamma = exp(-tau / 2), so populations decay by gamma**2
per excited qubit.  Two equivalent propagators are provided: a closed form
on X states (the family is preserved) and a Kraus-operator channel on
arbitrary density matrices, kept as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import _COEFFICIENTS, XState, _is_finite, validate_density_matrix


def _check_tau(tau: float) -> float:
    """tau, checked to be finite and non-negative: the one time check.  An
    int beyond float range is not finite."""
    if not (_is_finite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and non-negative, got {tau!r}")
    return tau


def gamma_factor(tau: float) -> float:
    """Amplitude survival factor exp(-tau/2); lies in (0, 1] for tau >= 0."""
    return math.exp(-_check_tau(tau) / 2.0)


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
    return XState(*_flow(_COEFFICIENTS(state), tau))


def _flow(coefficients: tuple, tau: float) -> tuple:
    """``evolve_xstate_closed`` on a coefficient tuple, unchecked: the tau
    check, then the flow at u = np.exp(-tau).  Callers run the ``XState``
    checks on the result, as ``XState`` or ``check_coefficients``.
    """
    return damped_coefficients(*coefficients, float(np.exp(-_check_tau(tau))))


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


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    """Single-qubit Kraus pair for amplitude damping at survival factor gamma."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma!r}")
    k0 = np.array([[gamma, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [math.sqrt(1.0 - gamma * gamma), 0.0]], dtype=complex)
    return [k0, k1]


def evolve_kraus(m: np.ndarray, tau: float) -> np.ndarray:
    """Amplitude-damp an arbitrary two-qubit density matrix for tau.

    Applies the product channel sum_ij (K_i x K_j) m (K_i x K_j)^dagger with
    the same damping factor on both qubits.
    """
    m = validate_density_matrix(m)
    kraus = amplitude_damping_kraus(gamma_factor(tau))
    out = np.zeros((4, 4), dtype=complex)
    for ka in kraus:
        for kb in kraus:
            k = np.kron(ka, kb)
            out += k @ m @ k.conj().T
    return out
