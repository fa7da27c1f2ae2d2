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
aversion threshold and the sweep minimum come from one bisection (``_turn``)
on x = e^-tau_sw's bit patterns down to neighbouring floats, on the exact
fate test and on the sign of the end time's slope, in a fixed band around
a closed-form root; neither has a tolerance.

An ``XState`` keeps, from when it was built, its coefficients as floats, its
discriminant at tau = 0 and its first stretch's Q (``qstate._constants``
reads all three), and the engine reads them rather than derive them per
query.  ``find_end_time`` walks one schedule's events in one flat
loop, the tail after it, with one ``np.exp`` per finite stretch and the
helpers' operations written out, so that its only Python-level calls are
``check_coefficients`` and ``DeathReport``.  ``state_at`` and
``trajectory`` walk the same stretches through ``_stretches``, and
``end_times`` decides a single switch at an array of switch times with the
same arithmetic, ``BLOCK_ROWS`` rows at a time; the sweep
(``sweep_switch_times``) calls it once, on times it has checked.  exp and
log come from numpy on every path, floats and arrays alike, so all of them
agree bit for bit.  Every public function here that takes a state raises
TypeError for one that is not an ``XState``, and refuses times that are
not real numbers.
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
from .qstate import (XState, _constants, _is_finite, _quadratic, check_coefficients,
                     xstate_measures)


BLOCK_ROWS = 1 << 14  # rows per block of end_times and of evolve: bounded temporaries
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
    sign of its slope, and never above the grid's own lowest row.  Each is
    where ``_turn`` finds the fate or the slope's sign turn from a closed-form
    root: a function of the state and the kind wherever the bracket holds
    the band, also where round-off turns either back and forth.
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
    z**2 = a*d exactly the fate and the measures agree.  The state keeps it
    from when it was built (``qstate._discriminant``).
    """
    return _constants(state)[1]


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
    that stops early flows no later stretch.  The flowed and the switched
    coefficients are checked as ``evolve_xstate_closed`` and ``apply_xstate``
    check theirs, with no ``XState`` built; the times, by ``Schedule``.
    """
    try:
        events = schedule.events
    except AttributeError:
        raise TypeError(f"schedule must be a Schedule, got {schedule!r}") from None
    start, coefficients = 0.0, _constants(state)[0]
    for event in events:
        yield start, event.tau, coefficients
        u = float(np.exp(start - event.tau))
        coefficients = check_coefficients(*switch_coefficients(
            event.op, check_coefficients(*damped_coefficients(*coefficients, u))))
        start = event.tau
    yield start, math.inf, coefficients


def state_at(state: XState, schedule: Schedule = Schedule(), tau: float = 0.0) -> XState:
    """State at time tau under the schedule (switches at tau already applied)."""
    tau = _check_tau(tau)
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
    stretch's state flowed to the end time.  The end time needs no check: a
    root is taken only where p0 > 0 > Q(1), so -p1 > 0 is at most 6a or
    2(b+a)(c+a) while p0 keeps half an ulp of 3a or (b+a)(c+a), and the root
    is at least p0 / -p1 >= ~2**-55, so tau_end - start lies in [0, 38.2].

    One loop over the schedule's events, with one ``np.exp`` per finite
    stretch, and the tail after it: u_end = np.exp(start - end), as
    ``_stretches`` and ``trajectory`` take it, serves the death test and, if
    the stretch lives, the checked flow and switch of ``_stretches``.  The
    schedule's times are the floats ``SwitchEvent`` checked.  The state's
    coefficients, its discriminant at tau = 0 and the first stretch's Q are
    the ones it keeps from when it was built; each later stretch's Q is
    computed right after its switch.  The helpers' operations are written
    out in their order, so only ``check_coefficients`` and ``DeathReport``
    are called in Python.  A ``schedule`` that is not a ``Schedule``, or a
    ``state`` that is not an ``XState``, raises TypeError.
    """
    try:
        events = schedule.events
    except AttributeError:
        raise TypeError(f"schedule must be a Schedule, got {schedule!r}") from None
    try:
        d0 = state._d0
    except AttributeError:
        raise TypeError(f"state must be an XState, got {state!r}") from None
    if d0 >= 0.0:
        return DeathReport(_NEVER_ENTANGLED, None, d0)

    a, b, c, d, z_inner, z_corner = state._coefficients
    p2, p1, p0 = state._q
    start = 0.0
    for event in events:
        u_end = float(_exp(start - event.tau))
        q_end = (p2 * u_end + p1) * u_end + p0
        if q_end > 0.0 or q_end == 0.0 and u_end > 0.0:
            break
        feed, loss = a * (u_end - u_end * u_end), 1.0 - u_end
        a, b, c, d, z_inner, z_corner = check_coefficients(
            *_SWITCHED[event.op._value_](check_coefficients(
                a * u_end * u_end, b * u_end + feed, c * u_end + feed,
                d + loss * (b + c + a * loss), z_inner * u_end, z_corner * u_end)))
        start = event.tau
        p2, p1 = a * a, -a * (b + c + 2.0 * a)
        p0 = ((b + a) * (c + a) - z_corner * z_corner if z_corner != 0.0
              else 3.0 * a - z_inner * z_inner)
    else:  # the tail, from u = 1 at start down to u_end = 0
        if p0 <= 0.0:  # it never reaches Q = 0
            return DeathReport(_AVERTED, None, p0)
        u_end = 0.0
    if p2 + p1 + p0 >= 0.0:
        u_root = 1.0
    else:
        w, r = p0 / -p1, p2 / -p1  # _smaller_root, then min(max(., u_end), 1); u_end <= 1
        t = 1.0 - 4.0 * r * w
        u_root = 2.0 * w / (1.0 + math.sqrt(0.0 if 0.0 > t else t))
        u_root = u_end if u_end > u_root else 1.0 if 1.0 < u_root else u_root
    tau_end = start - float(_log(u_root))
    u = float(_exp(start - tau_end))  # the witness: the flow to tau_end and its discriminant
    feed, loss = a * (u - u * u), 1.0 - u
    a, b, c, d, z_inner, z_corner = check_coefficients(
        a * u * u, b * u + feed, c * u + feed, d + loss * (b + c + a * loss),
        z_inner * u, z_corner * u)
    witness = b * c - z_corner * z_corner if z_corner != 0.0 else a * d - z_inner * z_inner
    return DeathReport(_FINITE_END, tau_end, witness)


def _times(grid: Sequence[float], name: str, increasing: bool = False) -> np.ndarray:
    values = np.asarray(grid)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a flat sequence of times")
    for value in values.tolist() if values.dtype.kind not in "biuf" else ():
        try:  # each time as _is_finite takes it: what float() takes, bar text
            math.isfinite(value)
        except TypeError:  # text, bytes, None and complex are no time
            raise ValueError(f"{name} must be real numbers, got {value!r}") from None
        except (OverflowError, ValueError) as exc:  # an int beyond float range, an sNaN
            raise ValueError(f"{name} must be finite and >= 0: {exc}") from None
    taus = np.array(values, dtype=float)
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
    p2, p1, p0 = state._q
    a, b, c, _, z_inner, z_corner = switch_coefficients(
        kind, damped_coefficients(*state._coefficients, u))
    q0 = np.where(z_corner != 0.0, (b + a) * (c + a) - z_corner * z_corner,
                  3.0 * a - z_inner * z_inner)
    q_end = (p2 * u + p1) * u + p0
    return (q_end > 0.0) | ((q_end == 0.0) & (u > 0.0)), (a * a, -a * (b + c + 2.0 * a), q0)


def _probe(state: XState, kind: Switch, slope: bool = False) -> Callable:
    """``_single_switch`` at a float tau_sw, on the constants the state keeps.

    Float arithmetic on x = e^-tau_sw from ``np.exp``, with the tail's root
    from ``_smaller_root``, so it agrees with ``end_times`` bit for bit.
    Gives the threshold's (dies, x).  With ``slope``, the minimum's
    (rising, v, x): the end time -ln(x v), v the tail's root, falls iff
    x Q_x - v Q_v < 0, as dv/dx = -Q_x / Q_v and Q_v < 0.
    Deaths before the tail or at its start do not fall (v None).
    """
    s, d0, (p2, p1, p0) = _constants(state)
    entangled = d0 < 0.0
    switched = itemgetter(*switch_coefficients(kind, range(6)))

    def probe(tau_sw: float) -> tuple:
        x = float(_exp(-tau_sw))
        tail = switched(damped_coefficients(*s, x))
        q2, q1, q0 = _quadratic(tail)
        q_end = (p2 * x + p1) * x + p0
        first = q_end > 0.0 or q_end == 0.0 and x > 0.0
        if not slope:
            return entangled and (first or q0 > 0.0), x
        if first or not q2 + q1 + q0 < 0.0 < q0:
            return True, None, x
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
        return falls >= flat, v, x

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

    Decided ``BLOCK_ROWS`` rows at a time, so that its temporaries stay
    bounded whatever the number of rows.  Every row computes its dying
    stretch's root, clamp and log, so no row is gathered or scattered; a
    row that does not die computes a value (or NaN) that is never kept.
    """
    if not isinstance(kind, Switch):
        raise TypeError(f"expected a named Switch, got {kind!r}")
    if discriminant(state) >= 0.0:
        fate = np.full(tau_sw.size, Fate.NEVER_ENTANGLED, np.int8)
        return fate, np.full(tau_sw.size, np.nan)

    fate, tau_end = np.empty(tau_sw.size, np.int8), np.empty(tau_sw.size)
    for rows in (slice(i, i + BLOCK_ROWS) for i in range(0, tau_sw.size, BLOCK_ROWS)):
        u_sw = np.exp(-tau_sw[rows])
        first, (r2, r1, r0) = _single_switch(state, kind, u_sw)
        dies = first | (r0 > 0.0)
        fate[rows] = ~dies  # FINITE_END is 0, AVERTED 1

        # The dying stretch: the first, from u = 1 at tau = 0 down to u_sw,
        # or the tail, from u = 1 at tau_sw down to u = 0.
        for r, p in zip((r2, r1, r0), state._q):
            np.copyto(r, p, where=first)
        u_end, start = np.where(first, u_sw, 0.0), np.where(first, 0.0, tau_sw[rows])
        with np.errstate(all="ignore"):
            u_root = np.minimum(np.maximum(_smaller_root(r2, r1, r0), u_end), 1.0)
            u_root = np.where(r2 + r1 + r0 < 0.0, u_root, 1.0)  # else death at the start
            tau_end[rows] = np.where(dies, start - np.log(u_root), np.nan)
    return fate, tau_end


def find_ad_crossing(state: XState) -> float:
    """Time at which the outer occupations meet, a(tau) = d(tau).

    a - d = (2a + b + c) u - 3 along the flow, so the crossing is unique, at
    tau = ln((2a + b + c) / 3); raises NoCrossingError when a < d already at
    tau = 0 (then a both-qubit swap is counterproductive from the start).
    """
    a, b, c, *_ = _constants(state)[0]
    slope = 2.0 * a + b + c
    if slope < 3.0:
        raise NoCrossingError("a < d already at tau = 0; no crossing ahead")
    return math.log(slope / 3.0)


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")  # a float's bit pattern
TAU_ZERO = 745.1332191019412  # the first tau where u = np.exp(-tau) is 0


def _bits(x: float) -> int:
    return _I64.unpack(_F64.pack(x))[0]


def _tau_of(j: int) -> float:
    """-ln of the float with bit pattern j, clamped to [0, 1]; inf for 0."""
    u = _F64.unpack(_I64.pack(min(max(j, 0), _bits(1.0))))[0]
    return -math.log(u) + 0.0 if u else math.inf


def _turn(probe: Callable, lo: float, hi: float, at_lo: tuple, at_hi: tuple, x0: float):
    """Neighbouring floats where ``probe``'s flag turns from at_lo's to at_hi's.

    ``probe(t)`` gives (flag, ..., x), at_lo and at_hi at 0 <= lo < hi, and
    reads t only through x = np.exp(-t); a bracket past TAU_ZERO ends there.
    Around the closed-form start x0 in [0, 1] a band of m = 2, 32, ..., 2**17
    ulps of x either way (then the whole bracket), mapped to t by ``_tau_of``
    and clamped to the bracket, grows until its ends carry the flags of lo
    and hi.  Each later probe halves the ends' x bit patterns, at the t of their
    midpoint, or of the ends' t bit patterns where that t is no inner point,
    so every probe shrinks the bracket; ends whose x are neighbouring floats
    need no probe: the flag turns at the first t where np.exp(-t) is at most
    the lower x.  Returns the ends as (t, probe(t)).
    """
    ends, m, x = [(lo, at_lo), (min(hi, TAU_ZERO), at_hi)], 2, _bits(x0 + 0.0)
    while True:
        near, far = (min(max(lo, _tau_of(j)), hi) for j in (x + m, x - m))
        for t in (near, far):
            if ends[0][0] < t < ends[1][0]:
                result = probe(t)
                ends[result[0] != at_lo[0]] = (t, result)
        if ends[0][0] >= near and ends[1][0] <= far:
            break
        m = m * 16 if m < 1 << 17 else 1 << 62  # then the whole bracket
    while (k := _bits(ends[1][0]) - _bits(ends[0][0] + 0.0)) > 1:
        (t0, r0), (t1, r1) = ends
        j0, j1 = _bits(r0[-1]), _bits(r1[-1])
        if j0 - j1 == 1:
            t = _first_tau_at_most(r1[-1], t0, t1)
            return [(math.nextafter(t, 0.0), r0), (t, r1)]
        if not t0 < (t := _tau_of((j0 + j1) // 2)) < t1:
            t = _F64.unpack(_I64.pack(_bits(t0 + 0.0) + k // 2))[0]
        result = probe(t)
        ends[result[0] != at_lo[0]] = (t, result)
    return ends


def _first_tau_at_most(u: float, lo: float, hi: float) -> float:
    """The first float tau in (lo, hi] where np.exp(-tau) <= u, given that it
    is above u at lo and u at hi, by bisection on tau's bit patterns."""
    k = [_bits(lo + 0.0), _bits(hi)]
    while k[1] - k[0] > 1:
        at = (k[0] + k[1]) // 2
        k[int(np.exp(-_F64.unpack(_I64.pack(at))[0]) <= u)] = at
    return _F64.unpack(_I64.pack(k[1]))[0]


def _roots(r2: float, r1: float, r0: float) -> list[float]:
    """The real roots of r2 t**2 + r1 t + r0, in the cancellation-free form."""
    disc = r1 * r1 - 4.0 * r2 * r0
    if disc >= 0.0 and (q := -0.5 * (r1 + math.copysign(math.sqrt(disc), r1))):
        return [r0 / q, q / r2] if r2 else [r0 / q]
    return []


def _tail_q0_roots(state: XState, kind: Switch) -> list[float]:
    """The x = e^-tau_sw where the tail's q0 turns 0 after one ``kind``
    switch (README's table): after both in l = 1 - x, as the engine forms q0
    from A = d + l (b + c + a l) and B + A = c + d + (a + b) l; after a
    single flip in x.  Bob's forms are Alice's, b and c swapped."""
    a, b, c, d, z_inner, z_corner = state._coefficients
    if kind is Switch.BOB:
        b, c = c, b
    z = z_inner or z_corner
    w = z * z
    if kind is Switch.BOTH:
        return [1.0 - l for l in _roots(*(
            ((a + b) * (a + c) - w, (c + d) * (a + c) + (b + d) * (a + b) + 2.0 * w,
             (c + d) * (b + d) - w) if z_corner != 0.0
            else (3.0 * a - w, 3.0 * (b + c) + 2.0 * w, 3.0 * d - w)))]
    if z_corner != 0.0:
        return _roots(-(3.0 * a + w), 3.0 * (a + c), 0.0)
    return _roots(-((a + c) * (a + b) + w), (a + c) * (a + b + c + d), 0.0)


def _stationary(state: XState, kind: Switch) -> list[float]:
    """The x = e^-tau_sw where the end time after one ``kind`` switch is
    stationary (README's table): the root of a factor of the resultant in v
    of the tail's Q(v; x) = 0 and x Q_x - v Q_v = 0 at which v is the tail's
    smaller root, the one it dies at; NaN where that root is not real."""
    a, b, c, d, z_inner, z_corner = state._coefficients
    if kind is Switch.BOB:
        b, c = c, b
    z = abs(z_inner or z_corner)
    w, e, p = z * z, b * c - a * d, a + c
    root = (lambda v: math.sqrt(v) if v >= 0.0 else math.nan)
    if kind is Switch.BOTH:
        den = 2.0 * a + b + c + (root((b - c) * (b - c) + 4.0 * w) + 2.0 * root(w - e)
                                 if z_corner != 0.0
                                 else 2.0 * z + root((b - c) * (b - c) + 4.0 * (e + w)))
        return [6.0 / den] if den else []
    den = ((p * p + e) * w + (3.0 * a * e if z_corner != 0.0 else e * p * (p + a + b))
           - (p * p - e) * z * root(w - e if z_corner != 0.0 else w + e))
    return [3.0 * p * e / den] if den else []


def _root_in(roots: list[float], x_hi: float, x_lo: float) -> float:
    """The largest of the roots in [x_hi, x_lo], else the nearest, clamped
    into it: a search's closed-form start."""
    roots = [x for x in roots if x == x]  # a NaN is no root
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
    past TAU_ZERO ends there, where u = e^-tau turns 0, and one that is not
    a pair of finite real numbers raises BracketError too; each end is
    taken as its float.  ``_turn`` searches from the closed-form start: the
    largest root in the bracket of x = e^-tau_sw of the tail's q0 or of the
    first stretch's Q (it dies below its smaller root), else the nearest; a
    median of 6 probes, ends included.  Where round-off turns the computed
    fate back and forth over a few floats (single flips of states with a
    or d near 0), the result is the turn that bisection from the start's
    band finds: a function of the state and the kind wherever the bracket
    holds the band.
    """
    if bracket is None:
        baseline = find_end_time(state)
        if baseline.fate is not Fate.FINITE_END:
            raise BracketError("unswitched evolution never dies; pass an explicit bracket")
        lo, hi = 0.0, baseline.tau_end
    else:
        try:
            lo, hi = bracket
        except (TypeError, ValueError):  # not a pair
            lo = hi = None
        if not (_is_finite(lo) and _is_finite(hi) and 0.0 <= float(lo) < float(hi)):
            raise BracketError(f"bad bracket {bracket!r}")
        lo, hi = float(lo), float(hi)
    probe = _probe(state, kind)
    at_lo, at_hi = probe(lo), probe(hi)
    if at_lo[0] == at_hi[0]:
        if at_lo[0]:
            raise NoCrossingError(f"death is finite at both bracket ends; a "
                                  f"{kind.value} switch never averts it there")
        raise BracketError("death averted at both bracket ends; widen the bracket")
    start = _root_in(_tail_q0_roots(state, kind) + _roots(*state._q), at_hi[-1], at_lo[-1])
    return _turn(probe, lo, hi, at_lo, at_hi, start)[1][0]


def single_switch_curve(x):
    """Damping factor y = exp(-tau_end) after one single-qubit flip.

    Closed form for the canonical initial state (a = b = c = z_inner = 1,
    d = 0): flipping either qubit alone at the time where exp(-tau_sw) = x
    leads to death at y = (3 - sqrt(9 - 24 x + 20 x**2)) / (2 (2 - x)).
    The radicand is positive for every real x, and the curve has the fixed
    point y = x at x = 2 - sqrt(2).  Takes a float (returns a float) or an
    array (returns an array of the same shape) of real numbers.
    """
    values = np.asarray(x)
    if values.dtype.kind not in "biuf":  # text, None, complex, an int beyond float range
        raise ValueError(f"x = exp(-tau_sw) must lie in (0, 1], got {x!r}")
    x = values.astype(float)
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
    end time when that is finite.  ``end_times`` decides the rows, in one
    call; only the baseline calls ``find_end_time``.  If
    the end time falls at the lower and rises at the upper of the grid
    minimum's dying neighbours, the minimum is searched between them on the
    sign of its slope, from the closed-form root of its stationarity
    (``_stationary``); otherwise it is the grid row itself.
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
    ``_turn`` finds; the minimum is the lower end time of the turn's two
    floats, where that is below every row.
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
    fate, tau_end = _end_times(state, kind, taus)

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
            start = _root_in(_stationary(state, kind), at_hi[-1], at_lo[-1])
            for tau_sw, (_, v, _) in _turn(probe, lo, hi, at_lo, at_hi, start):
                # A tail death's end time as end_times has it; NaN never wins.
                end = (tau_sw - float(np.log(v)) if v is not None
                       else end_times(state, kind, [tau_sw])[1].item())
                if end < min_tau_end:
                    min_tau_sw, min_tau_end = tau_sw, end

    return SweepCurve(kind, taus, fate, tau_end, baseline_end, ad_crossing, threshold,
                      min_tau_sw, min_tau_end)
