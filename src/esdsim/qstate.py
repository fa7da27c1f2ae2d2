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
through an eigensolve or a factorization; they are the independent oracle
the tests hold the closed forms to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Slack for XState coefficient invariants; absorbs round-off from the
# closed-form evolution, never real physicality violations.
_XSTATE_ATOL = 1e-12


class UnsupportedShapeError(ValueError):
    """Both coherence slots active, outside the closed forms' family.

    ``XState`` refuses such a state when it is built, and ``xstate_measures``
    such array elements; the generic matrix route takes any density matrix.
    """


@dataclass(frozen=True, slots=True)
class XState:
    """X-form two-qubit state with occupations scaled to sum to 3.

    ``a``, ``b``, ``c``, ``d`` are (3x) the occupations of |++>, |+->, |-+>,
    |-->; ``z_inner`` is (3x) the real |+-><-+| coherence and ``z_corner``
    (3x) the real |++><--| one.  Positivity of the physical matrix requires
    ``z_inner**2 <= b*c`` and ``z_corner**2 <= a*d``.  At most one of the
    two coherences may be nonzero (``UnsupportedShapeError`` otherwise).

    Beside its six fields a state keeps what the engine reads of it,
    derived once when it is built, right after the checks: the checked
    coefficients as a tuple of floats, the discriminant at tau = 0
    (``_discriminant``) and the first stretch's (p2, p1, p0)
    (``_quadratic``), all three read through ``_constants``.  They take no
    part in the constructor, ``repr``, ``==``, ``hash`` or
    ``__match_args__``; ``dataclasses.replace`` derives them anew, and
    copies and pickles carry them.
    """

    a: float
    b: float
    c: float
    d: float
    z_inner: float = 0.0
    z_corner: float = 0.0
    _coefficients: tuple = field(init=False, repr=False, compare=False)
    _d0: float = field(init=False, repr=False, compare=False)
    _q: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coefficients = tuple(map(float, check_coefficients(
            self.a, self.b, self.c, self.d, self.z_inner, self.z_corner)))
        _SET_D0(self, _discriminant(coefficients))
        _SET_COEFFICIENTS(self, coefficients)
        _SET_Q(self, _quadratic(coefficients))


# The engine's constants, stored through the slots' descriptors: the class
# is frozen.
_SET_COEFFICIENTS, _SET_D0 = XState._coefficients.__set__, XState._d0.__set__
_SET_Q = XState._q.__set__
_FIELDS = ("a", "b", "c", "d", "z_inner", "z_corner")


def _constants(state: XState) -> tuple:
    """What the engine reads of a state: (coefficients, d0, Q), as built.
    Anything but an ``XState`` raises TypeError, as a bad schedule does."""
    try:
        return state._coefficients, state._d0, state._q
    except AttributeError:
        raise TypeError(f"state must be an XState, got {state!r}") from None


def _discriminant(coefficients: tuple) -> float:
    """The discriminant of a coefficient tuple: ``a*d - z_inner*z_inner``, or
    ``b*c - z_corner*z_corner`` when the corner slot is active; both slots
    active raise UnsupportedShapeError.  Squared as ``z * z``, as
    ``xstate_measures`` squares."""
    a, b, c, d, z_inner, z_corner = coefficients
    if z_corner == 0.0:
        return a * d - z_inner * z_inner
    if z_inner == 0.0:
        return b * c - z_corner * z_corner
    raise UnsupportedShapeError(f"XState needs at most one active coherence slot, got "
                                f"z_inner = {z_inner!r} and z_corner = {z_corner!r}")


def _quadratic(coefficients: tuple) -> tuple[float, float, float]:
    """Coefficients (p2, p1, p0) of Q with disc(tau) = u**2 Q(u), u = e^-tau.

    Quadratic and linear terms are common to both coherence slots; only the
    constant term differs.  The vertex -p1 / (2 p2) = (b+c+2a) / (2a) >= 1,
    so Q never decreases along the flow (u falling from 1 toward 0).
    Coherences are squared as ``z * z``, as ``end_times`` squares arrays.
    """
    a, b, c, _, z_inner, z_corner = coefficients
    p2 = a * a
    p1 = -a * (b + c + 2.0 * a)
    if z_corner != 0.0:  # then z_inner is 0: XState holds one slot at most
        p0 = (b + a) * (c + a) - z_corner * z_corner
    else:
        p0 = 3.0 * a - z_inner * z_inner
    return p2, p1, p0


def _is_finite(value) -> bool:
    """``math.isfinite``, with an int past float range, text or a signalling NaN not finite."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError, ValueError):
        return False


def check_coefficients(a, b, c, d, z_inner, z_corner) -> tuple:
    """The ``XState`` checks on six coefficients; returns them as a tuple.

    One chained test first, which accepts only valid tuples: bounded
    occupations with a finite sum, and finite squares bounded by finite
    products, leave no field infinite or NaN.  Its bounds are literals
    (``_XSTATE_ATOL`` and three of it).  Where it fails or raises (an int
    beyond float range, or a sum of ints past it), the ordered checks run,
    and a failing one walks the fields in order to name the first offender;
    an int beyond float range is not finite.  Past the finiteness check
    they decide in floats, on the six values converted once, and square as
    ``z * z``, as the one-pass test, ``xstate_measures`` and the engine
    square: so the two accept the same floats, and every refused tuple
    raises ValueError, never OverflowError (a sum or a square past float
    range is inf).  A tuple that passes comes back as it went in.  Every
    state and every coefficient tuple the engine derives (a flow, a switch)
    runs these.
    """
    try:
        if (-1e-12 <= a and -1e-12 <= b and -1e-12 <= c and -1e-12 <= d
                and -3e-12 <= a + b + c + d - 3.0 <= 3e-12
                and z_inner * z_inner <= b * c + 1e-12
                and z_corner * z_corner <= a * d + 1e-12):
            return a, b, c, d, z_inner, z_corner
    except (ArithmeticError, TypeError, ValueError):
        pass
    atol, fields = _XSTATE_ATOL, (a, b, c, d, z_inner, z_corner)
    for name, value in zip(_FIELDS, fields):
        if not _is_finite(value):
            raise ValueError(f"XState.{name} must be finite, got {value!r}")
    a, b, c, d, z_inner, z_corner = map(float, fields)  # finite, so each converts
    for name, value in zip(_FIELDS, (a, b, c, d)):
        if value < -atol:
            raise ValueError(f"XState.{name} must be non-negative, got {value!r}")
    total = a + b + c + d
    if abs(total - 3.0) > 3e-12:
        raise ValueError(f"XState occupations must sum to 3, got {total!r}")
    if z_inner * z_inner > b * c + atol:
        raise ValueError(
            f"XState positivity violated: z_inner^2 = {z_inner * z_inner!r} "
            f"exceeds b*c = {b * c!r}"
        )
    if z_corner * z_corner > a * d + atol:
        raise ValueError(
            f"XState positivity violated: z_corner^2 = {z_corner * z_corner!r} "
            f"exceeds a*d = {a * d!r}"
        )
    return fields


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


def _unit_trace_hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` as a complex 4x4 array, checked Hermitian with unit trace, both
    to 1e-12 (round-off, never a real violation)."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.abs(m - m.conj().T) <= 1e-12):
        raise ValueError("matrix is not Hermitian within tolerance")
    trace = m.trace().real
    if abs(trace - 1.0) > 1e-12:
        raise ValueError(f"matrix trace must be 1, got {trace!r}")
    return m


def validate_density_matrix(m: np.ndarray) -> np.ndarray:
    """Check the density-matrix invariants: Hermitian, unit trace, and no
    eigenvalue below -1e-10."""
    m = _unit_trace_hermitian(m)
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < -1e-10:
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
    m = _unit_trace_hermitian(m)
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
    half_gap = 0.5 * (p - q)
    larger = 0.5 * (p + q) + np.sqrt(half_gap * half_gap + z * z)
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
    * Concurrence: (2/3) max(0, |z| - sqrt(p q)) on the same block (Wootters,
      PRL 80, 2245 (1998); Yu and Eberly, QIC 7, 459 (2007), whose term for
      the inactive coherence, -sqrt of the other block's product, is never
      positive).  p q may sit a round-off below 0, so its root is clipped.
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
    gap, pq = p - q, p * q
    span = np.sqrt(gap * gap + 4.0 * z * z) + p + q
    negativity_ = np.maximum(0.0, np.divide(
        2.0 * (z * z - pq), 3.0 * span,
        out=np.zeros_like(z), where=(z != 0.0) & (span != 0.0),
    ))
    concurrence_ = (2.0 / 3.0) * np.maximum(0.0, np.abs(z) - np.sqrt(np.maximum(pq, 0.0)))
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

    With m = W @ W^dagger, Wootters' lambdas, the square roots of the
    eigenvalues of m @ yy @ m.conj() @ yy, are the singular values of
    W.T @ yy @ W (Wootters, PRL 80, 2245 (1998)), so no root is taken of a
    computed eigenvalue.  W comes from a Cholesky factorization with
    diagonal pivoting: each step pivots on the largest remaining diagonal
    entry of the Schur complement, each index once, and stops where none is
    positive.  An occupation near 1e-16 then enters W as its own square
    root, and on X states, at the positivity edge ``z*z = b*c`` and beside
    such an occupation alike, this route keeps the digits of the closed
    form in ``xstate_measures``.
    """
    rest = validate_density_matrix(m).copy()
    w, free = np.zeros((4, 4), dtype=complex), [0, 1, 2, 3]
    for k in range(4):
        j = max(free, key=lambda i: rest[i, i].real)
        pivot = rest[j, j].real
        if not pivot > 0.0:
            break
        free.remove(j)
        w[j, k] = root = math.sqrt(pivot)
        w[free, k] = rest[free, j] / root
        rest -= np.outer(w[:, k], w[:, k].conj())
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    lam = np.linalg.svd(w.T @ np.kron(sigma_y, sigma_y) @ w, compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def von_neumann_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy -sum(p ln p) in natural-log units."""
    eigenvalues = np.linalg.eigvalsh(validate_density_matrix(m))
    p = eigenvalues[eigenvalues > 0.0]
    return float(-(p * np.log(p)).sum())
