"""Independent checks for the benchmark's outputs, run outside the timed region.

The reference is the generic matrix route the test suite also trusts: the
Kraus channel on 4x4 density matrices, local unitaries as matrices, and the
eigenvalue-based measures.  None of it goes through the X-state closed
forms or the root finders being timed.  The functions are bound at import,
before any tracing is installed, so oracle work never shows up in a trace.
"""

from __future__ import annotations

import math

import numpy as np

from esdsim.channel import evolve_kraus
from esdsim.deathclock import single_switch_curve
from esdsim.intervention import apply_unitary
from esdsim.qstate import (
    XState,
    concurrence,
    negativity,
    partial_transpose,
    von_neumann_entropy,
)

# Closed-form anchors for the canonical state a = b = c = z_inner = 1, d = 0.
# The both-qubit threshold solves 2u^2 - 12u + 9 = 0 for u = exp(-tau_sw):
# after the swap the tail constant term of the discriminant is 9 - 12u + 2u^2.
BASELINE_END = math.log(1.0 + 1.0 / math.sqrt(2.0))
AD_CROSSING = math.log(4.0 / 3.0)
THRESHOLD_BOTH = -math.log(3.0 - 3.0 / math.sqrt(2.0))
MIN_SWITCH_BOTH = math.log(7.0 / (3.0 * (3.0 - math.sqrt(2.0))))
MIN_END_BOTH = math.log(2.0 * (1.0 + math.sqrt(2.0)) / 3.0)

CANONICAL = XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0)

# Distance either side of a reported end time at which the matrix route must
# show the state still entangled (before) and separable (after).  Far above
# the root-finding tolerance, far below any feature of the trajectories.
SIGN_OFFSET = 1e-6


def rho_at(rho0: np.ndarray, events, tau: float) -> np.ndarray:
    """Density matrix at tau; ``events`` are (time, Switch) in time order.

    A switch at exactly tau is already applied, as in ``state_at``.
    """
    rho, t_prev = rho0, 0.0
    for t, kind in events:
        if t > tau:
            break
        rho = apply_unitary(evolve_kraus(rho, t - t_prev), kind)
        t_prev = t
    return evolve_kraus(rho, tau - t_prev)


def pt_min_eig(rho: np.ndarray) -> float:
    """Lowest eigenvalue of the partial transpose: negative iff entangled."""
    return float(np.linalg.eigvalsh(partial_transpose(rho))[0])


def matrix_row(rho: np.ndarray) -> tuple[float, ...]:
    """The evolve CSV columns after tau, from a density matrix."""
    m = rho.real * 3.0
    return (m[0, 0], m[1, 1], m[2, 2], m[3, 3], m[1, 2], m[0, 3],
            negativity(rho), concurrence(rho), von_neumann_entropy(rho))


def kraus_end_time(rho0: np.ndarray, events, lo: float, hi: float) -> float:
    """Bisect the PT sign change on [lo, hi] down to float resolution."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pt_min_eig(rho_at(rho0, events, mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_end(rho0: np.ndarray, events, fate: int, tau_end: float | None) -> tuple[bool, float]:
    """Check one death query against the matrix route.

    FINITE_END (0): entangled just before ``tau_end``, separable just after,
    and the error is the distance to the bisected matrix-route root.
    AVERTED (1): still entangled one and three time units after the last
    switch.  Returns (passed, abs error).
    """
    if fate == 0:
        lo, hi = max(tau_end - SIGN_OFFSET, 0.0), tau_end + SIGN_OFFSET
        before = pt_min_eig(rho_at(rho0, events, lo))
        after = pt_min_eig(rho_at(rho0, events, hi))
        if not (before < 0.0 <= after):
            return False, math.inf
        return True, abs(kraus_end_time(rho0, events, lo, hi) - tau_end)
    if fate == 1:
        t_last = events[-1][0] if events else 0.0
        ok = all(pt_min_eig(rho_at(rho0, events, t_last + h)) < 0.0 for h in (1.0, 3.0))
        return ok, 0.0
    return False, math.inf


def single_switch_end(tau_sw: float) -> float:
    """Exact end time after one single-qubit flip of the canonical state."""
    return -math.log(single_switch_curve(math.exp(-tau_sw)))


def single_switch_argmin() -> float:
    """Switch time of the earliest death on the single-flip curve.

    Ternary search for the maximum of the closed-form y(x), which is unimodal
    on (exp(-BASELINE_END), 1]; independent of the library's golden search.
    """
    lo, hi = math.exp(-BASELINE_END), 1.0
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if single_switch_curve(m1) < single_switch_curve(m2):
            lo = m1
        else:
            hi = m2
    return -math.log(0.5 * (lo + hi))


def ad_crossing_closed(state: XState) -> float | None:
    """a(tau) = d(tau) in closed form: a - d = (2a0 + b0 + c0) u - 3."""
    s = 2.0 * state.a + state.b + state.c
    return math.log(s / 3.0) if s >= 3.0 else None

