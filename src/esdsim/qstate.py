"""Two-qubit states in the X form and their entanglement measures.

Everything works in the product basis (|++>, |+->, |-+>, |-->), where |+> is
the excited single-qubit level, |-> the ground level, and the first slot
belongs to Alice.  The X family keeps only the four occupations plus the two
coherences that sit on the anti-diagonal: the "inner" one between |+-> and
|-+>, and the "corner" one between |++> and |-->.

Coefficients are stored scaled by 3 (so the occupations sum to 3, not 1, and
the density matrix is the coefficient matrix divided by 3).  That keeps the
canonical initial state at small integers, a = b = c = z_inner = 1, d = 0.

The X form splits the density matrix into two 2x2 blocks, the outer (a, d,
z_corner) and the inner (b, c, z_inner), so ``xstate_measures`` gives
negativity, concurrence and entropy in closed form, elementwise on whole
coefficient arrays.  The generic matrix functions (``negativity``,
``concurrence``, ``von_neumann_entropy``) take any two-qubit density matrix
through an eigensolve; they are the independent oracle the tests hold the
closed forms to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

# Tolerances for validating matrices that should be exact up to round-off.
HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Slack for XState coefficient invariants; absorbs round-off from the
# closed-form evolution, never real physicality violations.
_XSTATE_ATOL = 1e-12

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


class UnsupportedShapeError(ValueError):
    """A closed form was asked for a state outside its family.

    The X-state fast paths assume at most one of the two coherence slots is
    populated; states with both slots active need the generic matrix route.
    """


@dataclass(frozen=True, slots=True)
class XState:
    """X-form two-qubit state with occupations scaled to sum to 3.

    ``a``, ``b``, ``c``, ``d`` are (3x) the occupations of |++>, |+->, |-+>,
    |-->; ``z_inner`` is (3x) the real |+-><-+| coherence and ``z_corner``
    (3x) the real |++><--| one.  Positivity of the physical matrix requires
    ``z_inner**2 <= b*c`` and ``z_corner**2 <= a*d``.
    """

    a: float
    b: float
    c: float
    d: float
    z_inner: float = 0.0
    z_corner: float = 0.0

    def __post_init__(self) -> None:
        check_coefficients(
            self.a, self.b, self.c, self.d, self.z_inner, self.z_corner)


_FIELDS = ("a", "b", "c", "d", "z_inner", "z_corner")
_COEFFICIENTS = attrgetter(*_FIELDS)  # an XState's six, the engine's coefficient tuple


def check_coefficients(a, b, c, d, z_inner, z_corner) -> tuple:
    """The ``XState`` checks on six coefficients; returns them as a tuple.

    Straight-line checks: a failing one walks the fields in order to name
    the first offender.  Every state and every coefficient tuple the engine
    derives (a flow, a switch) runs these.
    """
    isfinite, atol = math.isfinite, _XSTATE_ATOL
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)
            and isfinite(z_inner) and isfinite(z_corner)):
        for name, value in zip(_FIELDS, (a, b, c, d, z_inner, z_corner)):
            if not isfinite(value):
                raise ValueError(f"XState.{name} must be finite, got {value!r}")
    if a < -atol or b < -atol or c < -atol or d < -atol:
        for name, value in zip(_FIELDS, (a, b, c, d)):
            if value < -atol:
                raise ValueError(f"XState.{name} must be non-negative, got {value!r}")
    total = a + b + c + d
    if abs(total - 3.0) > 3e-12:
        raise ValueError(f"XState occupations must sum to 3, got {total!r}")
    if z_inner**2 > b * c + atol:
        raise ValueError(
            f"XState positivity violated: z_inner^2 = {z_inner**2!r} "
            f"exceeds b*c = {b * c!r}"
        )
    if z_corner**2 > a * d + atol:
        raise ValueError(
            f"XState positivity violated: z_corner^2 = {z_corner**2!r} "
            f"exceeds a*d = {a * d!r}"
        )
    return a, b, c, d, z_inner, z_corner


def to_density_matrix(state: XState) -> np.ndarray:
    """Physical 4x4 density matrix for an X state (coefficients / 3)."""
    m = np.zeros((4, 4))
    m[0, 0] = state.a
    m[1, 1] = state.b
    m[2, 2] = state.c
    m[3, 3] = state.d
    m[1, 2] = m[2, 1] = state.z_inner
    m[0, 3] = m[3, 0] = state.z_corner
    return m / 3.0


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex 4x4 array, or raise if it is not Hermitian."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.abs(m - m.conj().T) <= HERMITIAN_ATOL):
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def validate_density_matrix(m: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants: Hermitian, unit trace, PSD."""
    m = require_hermitian(m)
    trace = m.trace().real
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace must be 1, got {trace!r}")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {smallest!r}")
    return m


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose Bob's qubit of a two-qubit operator.

    Accepts any Hermitian unit-trace matrix, not only density matrices: the
    partial transpose of an entangled state is itself not positive (that is
    exactly what negativity measures), and the map must stay applicable to
    its own output.  For X-form inputs it swaps the inner coherence pair
    with the corner pair.  Transposing Alice's qubit instead gives the
    transpose of this result, so the same spectrum.
    """
    m = require_hermitian(m)
    trace = m.trace().real
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"matrix trace must be 1, got {trace!r}")
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(m: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    Zero exactly when the state is separable; for two qubits the partial
    transpose has at most one negative eigenvalue.
    """
    m = validate_density_matrix(m)
    eigenvalues = np.linalg.eigvalsh(partial_transpose(m))
    return float(-eigenvalues[eigenvalues < 0.0].sum())


def _block_entropy(p: np.ndarray, q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """-sum(lam ln lam) over the spectrum of the block [[p, z], [z, q]] / 3.

    The smaller eigenvalue is rationalized, (p q - z**2) / (larger), because
    the plain difference cancels when the block is nearly singular; an
    eigenvalue that is zero or (by round-off) negative contributes nothing.
    """
    larger = 0.5 * (p + q) + np.sqrt((0.5 * (p - q)) ** 2 + z * z)
    smaller = np.divide(p * q - z * z, larger, out=np.zeros_like(larger),
                        where=larger > 0.0)
    lam = np.stack((larger, smaller)) / 3.0
    ln_lam = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    return 0.0 - (lam * ln_lam).sum(axis=0)  # +0, not -0, for a pure block


def xstate_measures(
    a, b, c, d, z_inner, z_corner
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negativity, concurrence and von Neumann entropy of X states.

    Takes the six (3x-scaled) coefficients as arrays of one shape, or
    scalars, and returns three float arrays of that shape.  Each element
    may populate at most one coherence slot (UnsupportedShapeError
    otherwise).

    * Negativity: the partial transpose moves the inner coherence to the
      corner slot and vice versa, where it pairs with the (a, d) or (b, c)
      occupations in a 2x2 block whose lower eigenvalue, rationalized to
      avoid cancellation at late times, is
      2 (z**2 - p q) / (sqrt((p-q)**2 + 4 z**2) + p + q); its sign
      therefore matches the sign of z**2 - p*q exactly.  Where that is 0/0
      (z**2 underflows beside p = q = 0), the negativity is 0.
    * Concurrence: (2/3) max(0, |z_inner| - sqrt(a d), |z_corner| - sqrt(b c))
      (Wootters, PRL 80, 2245 (1998); Yu and Eberly, QIC 7, 459 (2007)).
      An occupation may sit a round-off below 0, and a d or b c with it, so
      the roots are taken of the products clipped at 0.
    * Entropy: from the spectra of the outer and inner blocks, in natural-log
      units, with 0 ln 0 = 0.
    """
    a, b, c, d, z_inner, z_corner = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, c, d, z_inner, z_corner))
    )
    corner = z_corner != 0.0
    if np.any(corner & (z_inner != 0.0)):
        raise UnsupportedShapeError(
            "closed-form measures need at most one active coherence slot"
        )
    p, q = np.where(corner, b, a), np.where(corner, c, d)
    z = np.where(corner, z_corner, z_inner)
    span = np.sqrt((p - q) ** 2 + 4.0 * z * z) + p + q
    negativity_ = np.maximum(0.0, np.divide(
        2.0 * (z * z - p * q), 3.0 * span,
        out=np.zeros_like(z), where=(z != 0.0) & (span != 0.0),
    ))
    concurrence_ = (2.0 / 3.0) * np.maximum(0.0, np.maximum(
        np.abs(z_inner) - np.sqrt(np.maximum(a * d, 0.0)),
        np.abs(z_corner) - np.sqrt(np.maximum(b * c, 0.0)),
    ))
    entropy = _block_entropy(a, d, z_corner) + _block_entropy(b, c, z_inner)
    return negativity_, concurrence_, entropy


def negativity_xstate(state: XState) -> float:
    """Closed-form negativity of one X state; see ``xstate_measures``."""
    negativity_, _, _ = xstate_measures(
        state.a, state.b, state.c, state.d, state.z_inner, state.z_corner
    )
    return float(negativity_)


def concurrence(m: np.ndarray) -> float:
    """Concurrence of a two-qubit density matrix (spin-flip construction).

    Takes square roots of the eigenvalues of ``m @ flipped``, so an
    eigenvalue that is zero only up to round-off (~1e-17) comes back as
    ~3e-9: on X states at the positivity edge ``z**2 = b*c`` this route
    keeps only about half the digits of the closed form in
    ``xstate_measures`` (off by 2e-9 to 6e-9 on random such states; exact
    only where the products are exact, as for b = 1, c = 0.25, z = 0.5).
    """
    m = validate_density_matrix(m)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    flipped = yy @ m.conj() @ yy
    eigenvalues = np.linalg.eigvals(m @ flipped)
    lam = np.sort(np.sqrt(np.clip(eigenvalues.real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def von_neumann_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy -sum(p ln p) in natural-log units."""
    eigenvalues = np.linalg.eigvalsh(validate_density_matrix(m))
    p = eigenvalues[eigenvalues > 0.0]
    return float(-(p * np.log(p)).sum())
