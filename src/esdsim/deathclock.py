"""Locating and classifying the finite-time end of entanglement.

For X states under amplitude damping the partially transposed density matrix
has exactly one eigenvalue that can go negative, and its sign is the sign of
a *discriminant*: ``a*d - z_inner**2`` when the inner coherence is active,
``b*c - z_corner**2`` when the corner one is.  Entanglement ends at the first
time the discriminant reaches zero from below.

Along any switch-free stretch the discriminant is ``u**2 * Q(u)`` with
``u = exp(-tau)`` and ``Q`` a quadratic whose vertex never lies left of
``u = 1``; ``Q`` therefore only increases along the flow, so each stretch
admits at most one sign change and, once non-negative, the discriminant can
never return below zero (the named swaps preserve its value at the switch
instant).  Death times therefore come in closed form: the first stretch
whose ``Q`` turns non-negative dies at the smaller root of ``Q``, and the
open-ended tail dies iff its ``u -> 0`` limit ``Q(0)`` is positive.  The
aversion threshold and the sweep minimum come from one bracketed secant
search (``_search``) down to neighbouring floats, on the exact fate test and
on the sign of the end time's slope; neither has a tolerance, and the
threshold's starts at a closed-form root (``_threshold_root``).

``find_end_time`` walks one schedule's stretches in one flat loop, with one
``np.exp`` per finite stretch and the helpers' operations written out, so
that its only Python-level calls are ``check_coefficients`` and
``DeathReport``.  ``state_at`` and ``trajectory`` walk the same stretches
through ``_stretches``, and ``end_times`` decides a single switch at an
array of switch times with the same arithmetic, which the sweep
(``sweep_switch_times``) calls block by block on times it has checked once.
exp and log come from numpy on every path, floats and arrays alike, so all
of them agree bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import _check_tau, damped_coefficients
from .intervention import _SWITCHED, Schedule, Switch, switch_coefficients
from .qstate import (
    _COEFFICIENTS, UnsupportedShapeError, XState, check_coefficients, xstate_measures,
)


BLOCK_ROWS = 1 << 14  # rows per block of the sweep and of evolve: bounded temporaries
_exp, _log = np.exp, np.log  # bound once: np's attribute lookup is a fifth of a float call


class Fate(IntEnum):
    """Outcome of a death search; the integer values appear in CSV output."""

    FINITE_END = 0
    AVERTED = 1
    NEVER_ENTANGLED = 2


# The members as plain module globals: an Enum class attribute lookup costs
# more than a whole stretch test on the scalar path.
_FINITE_END, _AVERTED, _NEVER_ENTANGLED = Fate


class NoCrossingError(RuntimeError):
    """The searched-for sign change provably does not occur."""


class BracketError(ValueError):
    """The supplied (or default) bracket does not straddle the feature."""


@dataclass(frozen=True, slots=True)
class DeathReport:
    """Result of a death search.

    ``tau_end`` is the first time the discriminant reaches zero, from the
    closed-form root of the dying stretch (None unless the fate is
    FINITE_END).  ``witness`` is a sign certificate: the discriminant at
    ``tau_end`` (zero up to round-off) for FINITE_END, the discriminant
    at tau = 0 (non-negative) for NEVER_ENTANGLED, and for AVERTED the
    ``u -> 0`` limit of the tail quadratic ``Q`` (non-positive; its distance
    from zero measures how far the schedule is from allowing death).
    """

    fate: Fate
    tau_end: float | None
    witness: float

    def __init__(self, fate: Fate, tau_end: float | None, witness: float) -> None:
        _SET_FATE(self, fate)
        _SET_TAU_END(self, tau_end)
        _SET_WITNESS(self, witness)


# Stored through the slots' descriptors, as intervention's value types are.
_SET_FATE, _SET_TAU_END = DeathReport.fate.__set__, DeathReport.tau_end.__set__
_SET_WITNESS = DeathReport.witness.__set__


@dataclass(frozen=True)
class SweepCurve:
    """End-time-versus-switch-time curve plus the features located on it.

    ``tau_sw``, ``fate`` and ``tau_end`` are arrays with one entry per
    switch time, as ``end_times`` returns them (``fate`` holds ``Fate``
    values, ``tau_end`` is NaN unless the fate is FINITE_END).
    ``ad_crossing`` is the time where the outer occupations meet (a = d),
    after which a both-qubit swap no longer helps; ``aversion_threshold`` is
    the largest switch time below which death is averted (None when the
    sweep's switch kind never averts); ``min_tau_sw``/``min_tau_end`` locate
    the sweep minimum of the end time, refined between the grid rows by the
    sign of its slope, and never above the grid's own lowest row.  Where
    round-off turns the computed fate, or the slope's sign, back and forth
    over a few floats, the threshold and the minimum are the turn the
    search's path meets, which need not be the first in the bracket.
    """

    kind: Switch
    tau_sw: np.ndarray
    fate: np.ndarray
    tau_end: np.ndarray
    baseline_end: float | None
    ad_crossing: float | None
    aversion_threshold: float | None
    min_tau_sw: float | None
    min_tau_end: float | None


def discriminant(state: XState) -> float:
    """Sign witness for entanglement: negative iff the state is entangled.

    Uses ``a*d - z_inner**2`` for inner-coherence states (including diagonal
    ones, where it is non-negative anyway) and ``b*c - z_corner**2`` for
    corner-coherence states.  Every named swap permutes the coefficients so
    that this value is unchanged at the switch instant.  The coherence is
    squared as ``z * z``, as ``xstate_measures`` squares it, so at
    z**2 = a*d exactly the fate and the measures agree.
    """
    a, b, c, d, z_inner, z_corner = _COEFFICIENTS(state)
    if z_inner != 0.0 and z_corner != 0.0:
        raise UnsupportedShapeError("discriminant needs at most one active coherence slot")
    return b * c - z_corner * z_corner if z_corner != 0.0 else a * d - z_inner * z_inner


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
    if z_corner != 0.0:  # discriminant() rejects two active slots
        p0 = (b + a) * (c + a) - z_corner * z_corner
    else:
        p0 = 3.0 * a - z_inner * z_inner
    return p2, p1, p0


def _smaller_root(r2, r1, r0):
    """Smaller root of r2 u**2 + r1 u + r0 when Q(1) < 0 <= Q(u) for some
    u in [0, 1), in the cancellation-free form 2 r0 / (-r1 + sqrt(r1**2 -
    4 r2 r0)).  Those signs rule out r1 = 0 (a constant Q); the root is
    scaled by -r1 > 0 because r1**2 and r2 underflow once a < ~1e-154.
    Floats or arrays: sqrt is correctly rounded, so both agree bit for bit.
    """
    w, r = r0 / -r1, r2 / -r1
    return 2.0 * w / (1.0 + np.sqrt(np.maximum(1.0 - 4.0 * r * w, 0.0)))


def _stretches(
    state: XState, schedule: Schedule
) -> Iterator[tuple[float, float, tuple]]:
    """The schedule's switch-free stretches, in order, as they are reached.

    Yields (start, end, coefficients at start) for each stretch: from tau =
    0 to the first switch, between switches, and the open-ended tail last
    (end = inf).  A switch at ``start`` is already applied.  Lazy, so a walk
    that stops early flows no later stretch.  The flow to u = e^-tau and the
    switch are each checked as ``evolve_xstate_closed`` and ``apply_xstate``
    check theirs, with no ``XState`` built.
    """
    try:
        events = schedule.events
    except AttributeError:
        raise TypeError(f"schedule must be a Schedule, got {schedule!r}") from None
    start, coefficients = 0.0, _COEFFICIENTS(state)
    for event in events:
        yield start, event.tau, coefficients
        u = float(np.exp(-_check_tau(event.tau - start)))
        coefficients = check_coefficients(*switch_coefficients(
            event.op, check_coefficients(*damped_coefficients(*coefficients, u))))
        start = event.tau
    yield start, math.inf, coefficients


def state_at(state: XState, schedule: Schedule = Schedule(), tau: float = 0.0) -> XState:
    """State at time tau under the schedule (switches at tau already applied)."""
    _check_tau(tau)
    for start, end, current in _stretches(state, schedule):
        if tau < end:
            return XState(*damped_coefficients(*current, float(_exp(start - tau))))


@dataclass(frozen=True)
class Trajectory:
    """Coefficients and measures of an X state sampled on a time grid.

    Every field is a float array with one entry per grid time ``tau``;
    entry i equals ``state_at(state, schedule, tau[i])`` and the measures
    ``xstate_measures`` gives for it.
    """

    tau: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    z_inner: np.ndarray
    z_corner: np.ndarray
    negativity: np.ndarray
    concurrence: np.ndarray
    entropy: np.ndarray


def trajectory(
    state: XState,
    schedule: Schedule = Schedule(),
    grid: Sequence[float] = (),
) -> Trajectory:
    """The state and its measures on a strictly increasing time grid.

    Evaluated on whole arrays: each grid time falls in a switch-free
    stretch (a switch at that very time already applied, as in
    ``state_at``), and the closed-form flow runs from the state at the
    stretch's start.  ``u = exp(-offset)`` is taken with ``np.exp``, as on
    every engine path, and the flow is ``evolve_xstate_closed``'s
    ``damped_coefficients``, so every entry equals ``state_at`` bit for bit.
    """
    taus = _times(grid, "trajectory grid", increasing=True)
    starts, _, initial = zip(*_stretches(state, schedule))
    stretch = np.searchsorted(starts[1:], taus, side="right")
    u = np.exp(np.array(starts)[stretch] - taus)
    coefficients = damped_coefficients(*np.array(initial)[stretch].T, u)
    measures = xstate_measures(*coefficients)
    return Trajectory(taus, *coefficients, *measures)


def find_end_time(state: XState, schedule: Schedule = Schedule()) -> DeathReport:
    """First time the discriminant reaches zero, walking the schedule.

    Each switch-free stretch, the open-ended tail last, is decided in closed
    form.  Along a stretch Q only rises, from Q(1) at its start to Q(u_end)
    at its end (u_end = 0 for the tail), so the stretch dies iff
    Q(u_end) >= 0, at the smaller root of Q (``_smaller_root``, clamped to
    the stretch against round-off); where u_end is 0, the tail's or one
    underflowed past tau ~ 745, iff p0 = Q(0) > 0, as p0 = 0 leaves
    Q(u) = u (p1 + p2 u) < 0 at the true u_end.  A stretch whose Q is
    already non-negative at its start (a switch landing where the
    discriminant is zero to round-off) dies at its start.  A tail that does
    not die averts death.  The witness is the discriminant of the dying
    stretch's state flowed to the end time.

    One loop, with one ``np.exp`` per finite stretch: its u_end =
    e^-(end - start) serves the death test and, if the stretch lives, the
    checked flow and switch of ``_stretches``; it has the bits of
    ``trajectory``'s np.exp(start - end), as fl(s - e) = -fl(e - s).  The
    helpers' operations are written out in their order, so only
    ``check_coefficients`` and ``DeathReport`` are called in Python.  A
    ``schedule`` that is not a ``Schedule`` raises TypeError, as in ``_stretches``.
    """
    try:
        events = (*schedule.events, None)
    except AttributeError:
        raise TypeError(f"schedule must be a Schedule, got {schedule!r}") from None
    a, b, c, d, z_inner, z_corner = _COEFFICIENTS(state)
    if z_inner != 0.0 and z_corner != 0.0:
        discriminant(state)  # raises
    d0 = b * c - z_corner * z_corner if z_corner != 0.0 else a * d - z_inner * z_inner
    if d0 >= 0.0:
        return DeathReport(_NEVER_ENTANGLED, None, d0)

    start = 0.0
    for event in events:
        p2, p1 = a * a, -a * (b + c + 2.0 * a)
        p0 = ((b + a) * (c + a) - z_corner * z_corner if z_corner != 0.0
              else 3.0 * a - z_inner * z_inner)
        if event is None:  # the tail, from u = 1 at start down to u_end = 0
            if p0 <= 0.0:  # it never reaches Q = 0
                return DeathReport(_AVERTED, None, p0)
            u_end = 0.0
            break
        if not 0.0 <= (tau := event.tau - start) < math.inf:
            _check_tau(tau)  # raises
        u_end = float(_exp(-tau))
        q_end = (p2 * u_end + p1) * u_end + p0
        if q_end > 0.0 or q_end == 0.0 and u_end > 0.0:
            break
        feed, loss = a * (u_end - u_end * u_end), 1.0 - u_end
        a, b, c, d, z_inner, z_corner = check_coefficients(
            *_SWITCHED[event.op._value_](check_coefficients(
                a * u_end * u_end, b * u_end + feed, c * u_end + feed,
                d + loss * (b + c + a * loss), z_inner * u_end, z_corner * u_end)))
        start = event.tau
    if p2 + p1 + p0 >= 0.0:
        u_root = 1.0
    else:
        w, r = p0 / -p1, p2 / -p1  # _smaller_root, then min(max(., u_end), 1); u_end <= 1
        t = 1.0 - 4.0 * r * w
        u_root = 2.0 * w / (1.0 + math.sqrt(0.0 if 0.0 > t else t))
        u_root = u_end if u_end > u_root else 1.0 if 1.0 < u_root else u_root
    tau_end = start - float(_log(u_root))
    if not 0.0 <= (tau := tau_end - start) < math.inf:
        _check_tau(tau)  # raises
    u = float(_exp(-tau))  # the witness: the flow to tau_end and its discriminant
    feed, loss = a * (u - u * u), 1.0 - u
    a, b, c, d, z_inner, z_corner = check_coefficients(
        a * u * u, b * u + feed, c * u + feed, d + loss * (b + c + a * loss),
        z_inner * u, z_corner * u)
    witness = b * c - z_corner * z_corner if z_corner != 0.0 else a * d - z_inner * z_inner
    return DeathReport(_FINITE_END, tau_end, witness)


def _times(grid: Sequence[float], name: str, increasing: bool = False) -> np.ndarray:
    try:
        taus = np.array(grid, dtype=float)
    except OverflowError as exc:  # an int beyond float range
        raise ValueError(f"{name} must be finite and >= 0: {exc}") from None
    if taus.ndim != 1:
        raise ValueError(f"{name} must be a flat sequence of times")
    bad = ~(np.isfinite(taus) & (taus >= 0.0))
    if bad.any():
        raise ValueError(f"{name} must be finite and >= 0, got {taus[bad][0].item()!r}")
    if increasing and not np.all(taus[1:] > taus[:-1]):
        raise ValueError(f"{name} must be strictly increasing")
    return taus


def _single_switch(state: XState, kind: Switch, u: np.ndarray):
    """First-stretch fate and the tail after one ``kind`` switch at u = e^-tau_sw.

    Whether the first stretch dies (``find_end_time``'s test at u) and the
    tail's (q2, q1, q0), on arrays; the tail's slot is read off z_corner.
    """
    p2, p1, p0 = _quadratic(_COEFFICIENTS(state))
    a, b, c, _, z_inner, z_corner = switch_coefficients(
        kind, damped_coefficients(*_COEFFICIENTS(state), u))
    q0 = np.where(z_corner != 0.0, (b + a) * (c + a) - z_corner * z_corner,
                  3.0 * a - z_inner * z_inner)
    q_end = (p2 * u + p1) * u + p0
    return (q_end > 0.0) | ((q_end == 0.0) & (u > 0.0)), (a * a, -a * (b + c + 2.0 * a), q0)


def _probe(state: XState, kind: Switch, slope: bool = False) -> Callable:
    """``_single_switch`` at a float tau_sw, with the state's constants hoisted.

    Float arithmetic on x = e^-tau_sw from ``np.exp``, with the tail's root
    from ``_smaller_root``, so it agrees with ``end_times`` bit for bit.
    Gives the threshold's (dies, max(Q(x), q0), x), positive where the
    switch ends in death.  With ``slope``, the minimum's (rising, g, v, x):
    the end time -ln(x v), v the tail's root, falls iff g = x Q_x - v Q_v
    < 0, as dv/dx = -Q_x / Q_v and Q_v < 0.
    Deaths before the tail or at its start do not fall (g NaN, v None).
    """
    s = tuple(map(float, _COEFFICIENTS(state)))  # plain floats, as numpy's would be slow
    p2, p1, p0 = _quadratic(s)
    switched = itemgetter(*switch_coefficients(kind, range(6)))
    entangled = discriminant(state) < 0.0

    def probe(tau_sw: float) -> tuple:
        x = float(_exp(-tau_sw))
        tail = switched(damped_coefficients(*s, x))
        q2, q1, q0 = _quadratic(tail)
        q_end = (p2 * x + p1) * x + p0
        first = q_end > 0.0 or q_end == 0.0 and x > 0.0
        if not slope:
            return entangled and (first or q0 > 0.0), max(q_end, q0), x
        if first or not q2 + q1 + q0 < 0.0 < q0:
            return True, math.nan, None, x
        v = min(float(_smaller_root(q2, q1, q0)), 1.0)
        a, b, c, _, z_inner, z_corner = tail
        ramp = s[0] * (1.0 - 2.0 * x)  # x-derivatives of the switched coefficients
        da, db, dc, _, dz_inner, dz_corner = switched((
            2.0 * s[0] * x, s[1] + ramp, s[2] + ramp,
            -(s[1] + s[2] + 2.0 * s[0] * (1.0 - x)), s[4], s[5]))
        d0 = ((db + da) * (c + a) + (b + a) * (dc + da) - 2.0 * z_corner * dz_corner
              if z_corner != 0.0 else 3.0 * da - 2.0 * z_inner * dz_inner)
        d2, d1 = 2.0 * a * da, -da * (b + c + 2.0 * a) - a * (db + dc + 2.0 * da)
        falls, flat = x * ((d2 * v + d1) * v + d0), v * (2.0 * q2 * v + q1)
        return falls >= flat, falls - flat, v, x

    return probe


def end_times(
    state: XState, kind: Switch, switch_times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Fate and end time after one ``kind`` switch at each given switch time.

    Entry i is what ``find_end_time(state, Schedule.single(switch_times[i],
    kind))`` reports, bit for bit, decided on whole arrays with its
    arithmetic: the closed-form flow to each switch time, the switch as a
    coefficient permutation, the first stretch dying as ``find_end_time``
    decides at u_sw, the tail after the switch dying iff its p0 > 0, and
    each death at the stable root of its stretch.  exp and log are
    ``np.exp`` and ``np.log`` on both paths, which give the same bits on a
    float as on an array.
    Returns ``fate`` (int8 ``Fate`` values) and ``tau_end`` (NaN where the
    fate is not FINITE_END); no witness is kept.
    """
    return _end_times(state, kind, _times(switch_times, "switch times"))


def _end_times(
    state: XState, kind: Switch, tau_sw: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``end_times`` on switch times already checked.

    Every row computes its dying stretch's root, clamp and log, so no row is
    gathered or scattered; a row that does not die computes a value (or
    NaN) that is never kept.
    """
    if not isinstance(kind, Switch):
        raise TypeError(f"expected a named Switch, got {kind!r}")
    if discriminant(state) >= 0.0:
        fate = np.full(tau_sw.size, Fate.NEVER_ENTANGLED, np.int8)
        return fate, np.full(tau_sw.size, np.nan)

    u_sw = np.exp(-tau_sw)
    first, (r2, r1, r0) = _single_switch(state, kind, u_sw)
    dies = first | (r0 > 0.0)
    fate = (~dies).view(np.int8)  # FINITE_END is 0, AVERTED 1

    # The dying stretch: the first, from u = 1 at tau = 0 down to u_sw, or
    # the tail, from u = 1 at tau_sw down to u = 0.
    for r, p in zip((r2, r1, r0), _quadratic(_COEFFICIENTS(state))):
        np.copyto(r, p, where=first)
    u_end, start = np.where(first, u_sw, 0.0), np.where(first, 0.0, tau_sw)
    with np.errstate(all="ignore"):
        u_root = np.minimum(np.maximum(_smaller_root(r2, r1, r0), u_end), 1.0)
        u_root = np.where(r2 + r1 + r0 < 0.0, u_root, 1.0)  # else death at the stretch start
        tau_end = np.where(dies, start - np.log(u_root), np.nan)
    return fate, tau_end


def find_ad_crossing(state: XState) -> float:
    """Time at which the outer occupations meet, a(tau) = d(tau).

    a - d = (2a + b + c) u - 3 along the flow, so the crossing is unique, at
    tau = ln((2a + b + c) / 3); raises NoCrossingError when a < d already at
    tau = 0 (then a both-qubit swap is counterproductive from the start).
    """
    slope = 2.0 * state.a + state.b + state.c
    if slope < 3.0:
        raise NoCrossingError("a < d already at tau = 0; no crossing ahead")
    return math.log(slope / 3.0)


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")  # a float's bit pattern
SLACK = 8  # probes a search may spend beyond bisection's
TAU_ZERO = 745.1332191019412  # the first tau where u = np.exp(-tau) is 0


def _bits(x: float) -> int:
    return _I64.unpack(_F64.pack(x))[0]


def _tau_of(j: int) -> float:
    """-ln of the float with bit pattern j, clamped to [0, 1]; inf for 0."""
    u = _F64.unpack(_I64.pack(min(max(j, 0), _bits(1.0))))[0]
    return -math.log(u) + 0.0 if u else math.inf


def _search(probe: Callable, lo: float, hi: float, at_lo: tuple, at_hi: tuple):
    """Neighbouring floats where ``probe``'s flag turns from at_lo's to at_hi's.

    ``probe(t)`` gives (flag, value, ..., u), at_lo and at_hi at 0 <= lo < hi,
    and reads t only through u = np.exp(-t), kept with each end.  Each
    probe lands inside the bracket and replaces the end its flag matches:
    at the secant root in u of the two latest values, 1, 2, 4, ... floats
    of t or of u on (the further) where that stalls, and at the t of the
    ends' u bit patterns' midpoint once those are a few apart.  Ends whose
    u are neighbouring floats need no probe: the flag turns at the first t
    where np.exp(-t) is at most the lower u (``_first_tau_at_most``).  As
    in ITP, the j-th probe stays within 2**(n - j) bit patterns of both
    ends, so they meet within n = SLACK + log2(their distance) probes.
    Returns them as (t, probe(t)).
    """
    ends, steer = [(lo, at_lo), (hi, at_hi)], [(at_lo[1], at_lo[-1]), (at_hi[1], at_hi[-1])]
    k = [_bits(t + 0.0) for t in (lo, hi)]  # the ends' bit patterns, -0.0 as 0.0
    j = [_bits(at_lo[-1]), _bits(at_hi[-1])]  # and those of their u
    cap, side, stride = 1 << ((k[1] - k[0] - 1).bit_length() + SLACK - 1), 1, 1
    while k[1] - k[0] > 1:
        if j[0] - j[1] == 1:
            t = _first_tau_at_most(ends[1][1][-1], ends[0][0], ends[1][0])
            return [(math.nextafter(t, 0.0), ends[0][1]), (t, ends[1][1])]
        at, ((g0, u0), (g1, u1)) = (k[0] + k[1]) // 2, steer
        if 1 < j[0] - j[1] <= 4:  # a few floats of u apart
            at = _bits(_tau_of((j[0] + j[1]) // 2))
        else:
            r = g1 / (g1 - g0) if g0 != g1 else 0.0  # equal values stall at u1
            if (root := u1 + r * (u0 - u1)) > 0.0 and lo < (s := -math.log(root)) < hi:
                way = 1 - 2 * side  # from the latest probe toward the other end
                ahead = (_bits(s) - k[side]) * way
                if ahead > stride:
                    stride = 1
                else:  # stalled: stride floats of t or of u on, the further
                    s = _tau_of(j[side] - stride * way)
                    ahead, stride = max(stride, (_bits(s) - k[side]) * way), 2 * stride
                at = k[side] + ahead * way
        at = min(max(at, k[0] + 1, k[1] - cap), k[1] - 1, k[0] + cap)
        cap //= 2
        result = probe(t := _F64.unpack(_I64.pack(at))[0])
        if side != (side := int(result[0] != at_lo[0])):
            stride = 1
        ends[side], k[side], j[side] = (t, result), at, _bits(result[-1])
        steer = [steer[1], (result[1], result[-1])]
    return ends


def _first_tau_at_most(u: float, lo: float, hi: float) -> float:
    """The first float tau in (lo, hi] where np.exp(-tau) <= u, given that it
    is above u at lo and u at hi, by bisection on tau's bit patterns."""
    k = [_bits(lo + 0.0), _bits(hi)]
    while k[1] - k[0] > 1:
        at = (k[0] + k[1]) // 2
        k[int(np.exp(-_F64.unpack(_I64.pack(at))[0]) <= u)] = at
    return _F64.unpack(_I64.pack(k[1]))[0]


def _tail_q0(state: XState, kind: Switch) -> tuple[float, float, float]:
    """(g2, g1, g0): the tail's q0 = g2 x**2 + g1 x + g0 after one ``kind``
    switch at x = e^-tau_sw, S = a + b + c + d.  A single flip moves the
    coherence to the other slot; Bob's forms are Alice's, b and c swapped."""
    a, b, c, d, z_inner, z_corner = map(float, _COEFFICIENTS(state))
    s = a + b + c + d
    if kind is Switch.BOB:
        b, c = c, b
    if kind is Switch.BOTH:
        if z_corner != 0.0:
            return (a + b) * (a + c) - z_corner * z_corner, -s * (2.0 * a + b + c), s * s
        return 3.0 * a - z_inner * z_inner, -3.0 * (2.0 * a + b + c), 3.0 * s
    if z_corner != 0.0:
        return -(3.0 * a + z_corner * z_corner), 3.0 * (a + c), 0.0
    return -((a + c) * (a + b) + z_inner * z_inner), (a + c) * s, 0.0


def _threshold_root(state: XState, kind: Switch, x_hi: float, x_lo: float) -> float:
    """The closed-form x = e^-tau_sw in [x_hi, x_lo] where a ``kind`` switch
    first turns its fate: the largest root there of the tail's q0 or of the
    first stretch's Q (it dies below its smaller root), else the nearest."""
    roots = []
    for r2, r1, r0 in (_tail_q0(state, kind), _quadratic(_COEFFICIENTS(state))):
        disc = r1 * r1 - 4.0 * r2 * r0  # the roots in the cancellation-free form
        if disc >= 0.0 and (q := -0.5 * (r1 + math.copysign(math.sqrt(disc), r1))):
            roots += [r0 / q, q / r2] if r2 else [r0 / q]
    if inside := [x for x in roots if x_hi <= x <= x_lo]:
        return max(inside)
    nearest = min(roots, key=lambda x: max(x_hi - x, x - x_lo), default=x_hi)
    return min(max(nearest, x_hi), x_lo)


def find_aversion_threshold(
    state: XState,
    kind: Switch = Switch.BOTH,
    bracket: tuple[float, float] | None = None,
) -> float:
    """Switch time separating averted death from finite-time death.

    The first switch time whose fate differs from that at the bracket's
    lower end, on the fate test of ``end_times``, down to neighbouring
    floats.  By default brackets with [0, baseline end time]; raises
    BracketError when no default bracket exists or both ends classify
    alike as non-finite, and NoCrossingError when death is finite across
    the whole bracket (the switch kind never averts it there).  A bracket
    past TAU_ZERO ends there, where u = e^-tau turns 0.  The search starts
    at the closed-form root (``_threshold_root``) of x = e^-tau_sw.  Around
    it a bracket of m = 2, 32, 512, ... ulps of x either way, mapped to tau
    by -ln and clamped to the bracket, grows until its ends have the fates
    of the bracket's ends, and ``_search`` finds the float where the
    computed fate turns inside it: a median of 6 probes, ends included.
    Where round-off turns the computed fate back and forth over a few
    floats (single flips of states with a or d near 0), the result is the
    turn the search's path meets, which need not be the first turn in the
    bracket.
    """
    if bracket is None:
        baseline = find_end_time(state)
        if baseline.fate is not Fate.FINITE_END:
            raise BracketError("unswitched evolution never dies; pass an explicit bracket")
        lo, hi = 0.0, baseline.tau_end
    else:
        try:
            lo, hi = float(bracket[0]), float(bracket[1])
        except OverflowError:  # an int beyond float range
            lo = hi = math.nan
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
            raise BracketError(f"bad bracket {bracket!r}")
    probe = _probe(state, kind)
    at_lo, at_hi = probe(lo), probe(hi)
    if at_lo[0] == at_hi[0]:
        if at_lo[0]:
            raise NoCrossingError(f"death is finite at both bracket ends; a "
                                  f"{kind.value} switch never averts it there")
        raise BracketError("death averted at both bracket ends; widen the bracket")
    ends, m = [(lo, at_lo), (min(hi, TAU_ZERO), at_hi)], 2
    x = _bits(_threshold_root(state, kind, float(np.exp(-hi)), float(np.exp(-lo))) + 0.0)
    while True:
        near, far = (min(max(lo, _tau_of(j)), hi) for j in (x + m, x - m))
        for t in (near, far):
            if ends[0][0] < t < ends[1][0]:
                result = probe(t)
                ends[result[0] != at_lo[0]] = (t, result)
        if ends[0][0] >= near and ends[1][0] <= far:
            break
        m *= 16
    return _search(probe, ends[0][0], ends[1][0], ends[0][1], ends[1][1])[1][0]


def single_switch_curve(x):
    """Damping factor y = exp(-tau_end) after one single-qubit flip.

    Closed form for the canonical initial state (a = b = c = z_inner = 1,
    d = 0): flipping either qubit alone at the time where exp(-tau_sw) = x
    leads to death at y = (3 - sqrt(9 - 24 x + 20 x**2)) / (2 (2 - x)).
    The radicand is positive for every real x, and the curve has the fixed
    point y = x at x = 2 - sqrt(2).  Takes a float (returns a float) or an
    array (returns an array of the same shape).
    """
    try:
        x = np.asarray(x, dtype=float)
    except OverflowError:  # an int beyond float range
        raise ValueError(f"x = exp(-tau_sw) must lie in (0, 1], got {x!r}") from None
    outside = ~((0.0 < x) & (x <= 1.0))
    if outside.any():
        raise ValueError(
            f"x = exp(-tau_sw) must lie in (0, 1], got {x[outside][0].item()!r}"
        )
    y = (3.0 - np.sqrt(9.0 - 24.0 * x + 20.0 * x * x)) / (2.0 * (2.0 - x))
    return y if y.ndim else float(y)


def sweep_switch_times(
    state: XState,
    kind: Switch = Switch.BOTH,
    grid: Sequence[float] | None = None,
) -> SweepCurve:
    """End time as a function of switch time, with located features.

    The default grid is 400 evenly spaced switch times in [0, baseline end);
    an explicit grid must be strictly increasing and stay below the baseline
    end time when that is finite.  ``end_times`` decides the rows,
    ``BLOCK_ROWS`` per call; only the baseline calls ``find_end_time``.  If
    the end time falls at the lower and rises at the upper of the grid
    minimum's dying neighbours, the minimum is searched between them on the
    sign of its slope; otherwise it is the grid row itself.
    """
    baseline = find_end_time(state)
    taus = None if grid is None else _times(grid, "switch-time grid", increasing=True)
    return _sweep_switch_times(state, kind, taus, baseline)


def _sweep_switch_times(
    state: XState, kind: Switch, taus: np.ndarray | None, baseline: DeathReport
) -> SweepCurve:
    """``sweep_switch_times`` on switch times already checked to be finite,
    >= 0 and strictly increasing (None for the default grid), given the
    state's unswitched ``find_end_time`` report.  The threshold and the
    minimum are each the turn, of the fate or of the slope's sign, that
    ``_search``'s path meets; where round-off makes either turn back and
    forth over a few floats, that need not be the first turn in the bracket.
    """
    baseline_end = baseline.tau_end if baseline.fate is Fate.FINITE_END else None
    if taus is None:
        if baseline_end is None:
            raise ValueError("unswitched evolution never dies; pass an explicit "
                             "switch-time grid")
        taus = np.linspace(0.0, baseline_end, 400, endpoint=False)
    else:
        if not taus.size:
            raise ValueError("switch-time grid must not be empty")
        if baseline_end is not None and taus[-1] >= baseline_end:
            raise ValueError(f"switch times must precede the unswitched end time "
                             f"{baseline_end!r}, got {taus[-1].item()!r}")
    fate, tau_end = np.empty(taus.size, np.int8), np.empty(taus.size)
    for rows in (slice(i, i + BLOCK_ROWS) for i in range(0, taus.size, BLOCK_ROWS)):
        fate[rows], tau_end[rows] = _end_times(state, kind, taus[rows])

    ad_crossing = threshold = None
    with contextlib.suppress(NoCrossingError):
        ad_crossing = find_ad_crossing(state)
    if baseline_end is not None:  # the default bracket, with no second search
        with contextlib.suppress(BracketError, NoCrossingError):
            threshold = find_aversion_threshold(state, kind, (0.0, baseline_end))

    dies = fate == Fate.FINITE_END
    min_tau_sw = min_tau_end = None
    if dies.any():
        i = int(np.argmin(np.where(dies, tau_end, np.inf)))
        lo = float(taus[i - 1] if i > 0 and dies[i - 1] else taus[i])
        hi = float(taus[i + 1] if i + 1 < taus.size and dies[i + 1] else taus[i])
        min_tau_sw, min_tau_end = float(taus[i]), float(tau_end[i])
        probe = _probe(state, kind, slope=True)
        if lo < hi and not (at_lo := probe(lo))[0] and (at_hi := probe(hi))[0]:
            for tau_sw, (_, _, v, _) in _search(probe, lo, hi, at_lo, at_hi):
                # A tail death's end time as end_times has it; NaN never wins.
                end = (tau_sw - float(np.log(v)) if v is not None
                       else end_times(state, kind, [tau_sw])[1].item())
                if end < min_tau_end:
                    min_tau_sw, min_tau_end = tau_sw, end

    return SweepCurve(kind, taus, fate, tau_end, baseline_end, ad_crossing, threshold,
                      min_tau_sw, min_tau_end)
