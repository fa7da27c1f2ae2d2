import contextlib
import copy
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from esdsim import (
    BracketError,
    DeathReport,
    Fate,
    NoCrossingError,
    Schedule,
    Switch,
    SwitchEvent,
    UnsupportedShapeError,
    XState,
    apply_xstate,
    discriminant,
    end_times,
    evolve_xstate_closed,
    find_ad_crossing,
    find_aversion_threshold,
    find_end_time,
    state_at,
    sweep_switch_times,
    trajectory,
)
from esdsim.channel import damped_coefficients, evolve_kraus
from esdsim.intervention import apply_unitary, switch_coefficients
from esdsim.qstate import (
    concurrence,
    negativity,
    negativity_xstate,
    partial_transpose,
    to_density_matrix,
    von_neumann_entropy,
)
import esdsim.cli
from esdsim import deathclock, qstate
from esdsim.cli import main as cli_main
from esdsim.deathclock import single_switch_curve
from esdsim.qstate import _quadratic

from conftest import random_xstate

CANONICAL = XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0)
COLUMNS = ("a", "b", "c", "d", "z_inner", "z_corner",
           "negativity", "concurrence", "entropy")
TAU_0 = math.log(1.0 + 1.0 / math.sqrt(2.0))

# End times frozen from the per-branch closed forms (independently
# reproduced by the matrix-path oracle below).
END_BOTH_015 = 1.7303031988449562
END_BOTH_0223 = 0.7172770796795973
END_BOTH_03 = 0.5183361000316491
END_ALICE_01 = 0.7003754682442952
MIN_BOTH = (0.38621740095322066, 0.47590847891137866)
MIN_ALICE = (0.3781349374580251, 0.49351944447290497)
THRESHOLD_BOTH = -math.log(3.0 - 3.0 / math.sqrt(2.0))


def matrix_end_time(state, kind, tau_sw, horizon=4.0):
    """Independent death locator: Kraus propagation + matrix negativity."""
    m_sw = apply_unitary(evolve_kraus(to_density_matrix(state), tau_sw), kind)

    def entangled(tau):
        if tau < tau_sw:
            return negativity(evolve_kraus(to_density_matrix(state), tau)) > 1e-14
        return negativity(evolve_kraus(m_sw, tau - tau_sw)) > 1e-14

    taus = np.linspace(tau_sw, horizon, 1200)
    dead = [t for t in taus if not entangled(t)]
    if not dead:
        return None
    lo, hi = tau_sw, dead[0]
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if entangled(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kraus_rho_at(m0, schedule, tau):
    """Density matrix at tau on the matrix route; switches at tau applied."""
    m, t_prev = m0, 0.0
    for event in schedule.events:
        if event.tau > tau:
            break
        m = apply_unitary(evolve_kraus(m, event.tau - t_prev), event.op)
        t_prev = event.tau
    return evolve_kraus(m, tau - t_prev)


def pt_min_eig(m):
    """Lowest partial-transpose eigenvalue: negative iff entangled."""
    return float(np.linalg.eigvalsh(partial_transpose(m))[0])


# -- discriminant -----------------------------------------------------------

def test_discriminant_canonical_is_minus_one():
    assert discriminant(CANONICAL) == -1.0


def test_discriminant_sign_matches_negativity():
    rng = np.random.default_rng(61)
    for _ in range(300):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        s = random_xstate(rng, slot=slot)
        disc = discriminant(s)
        if abs(disc) < 1e-12:
            continue
        assert (disc < 0.0) == (negativity_xstate(s) > 0.0)


def test_discriminant_rejects_two_active_slots():
    # The discriminant reads one coherence slot, so a state with both active
    # is refused when it is built; no query sees one.  -0.0 is no coherence.
    with pytest.raises(UnsupportedShapeError, match=(
            r"^XState needs at most one active coherence slot, "
            r"got z_inner = 0\.3 and z_corner = 0\.3$")):
        XState(0.75, 0.75, 0.75, 0.75, z_inner=0.3, z_corner=0.3)
    assert discriminant(XState(0.75, 0.75, 0.75, 0.75, z_inner=0.3, z_corner=-0.0)) == (
        0.75 * 0.75 - 0.3 * 0.3)


@pytest.mark.parametrize("kind", list(Switch))
def test_discriminant_unchanged_by_swaps(kind):
    rng = np.random.default_rng(67)
    for _ in range(100):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        s = random_xstate(rng, slot=slot)
        assert discriminant(apply_xstate(s, kind)) == pytest.approx(
            discriminant(s), abs=1e-14
        )


def test_segment_quadratic_reproduces_discriminant():
    rng = np.random.default_rng(71)
    for _ in range(200):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        s = random_xstate(rng, slot=slot)
        p2, p1, p0 = _quadratic(s._coefficients)
        tau = rng.uniform(0.0, 4.0)
        u = math.exp(-tau)
        direct = discriminant(evolve_xstate_closed(s, tau))
        assert u * u * ((p2 * u + p1) * u + p0) == pytest.approx(direct, abs=1e-12)


# -- state_at / trajectory ---------------------------------------------------

def test_state_at_composes_evolution_and_switches():
    schedule = Schedule(
        (SwitchEvent(0.2, Switch.BOTH), SwitchEvent(0.5, Switch.ALICE))
    )
    by_hand = evolve_xstate_closed(CANONICAL, 0.2)
    by_hand = apply_xstate(by_hand, Switch.BOTH)
    by_hand = evolve_xstate_closed(by_hand, 0.3)
    by_hand = apply_xstate(by_hand, Switch.ALICE)
    by_hand = evolve_xstate_closed(by_hand, 0.35)
    assert state_at(CANONICAL, schedule, 0.85) == by_hand


def test_state_at_is_right_continuous_at_events():
    schedule = Schedule.single(0.2, Switch.BOTH)
    at_event = state_at(CANONICAL, schedule, 0.2)
    expected = apply_xstate(evolve_xstate_closed(CANONICAL, 0.2), Switch.BOTH)
    assert at_event == expected


def test_state_at_matches_matrix_route():
    schedule = Schedule(
        (SwitchEvent(0.15, Switch.ALICE), SwitchEvent(0.6, Switch.BOB))
    )
    rng = np.random.default_rng(73)
    for _ in range(40):
        s0 = random_xstate(rng, slot="inner")
        tau = rng.uniform(0.0, 1.5)
        m = kraus_rho_at(to_density_matrix(s0), schedule, tau)
        assert np.max(np.abs(to_density_matrix(state_at(s0, schedule, tau)) - m)) <= 1e-12


def test_state_at_rejects_negative_time():
    with pytest.raises(ValueError):
        state_at(CANONICAL, Schedule(), -0.1)


def test_trajectory_matches_pointwise_negativity():
    grid = [0.0, 0.1, 0.3, 0.8]
    schedule = Schedule.single(0.223, Switch.BOTH)
    traj = trajectory(CANONICAL, schedule, grid)
    assert traj.tau.tolist() == grid
    for tau, value in zip(grid, traj.negativity.tolist()):
        assert value == negativity_xstate(state_at(CANONICAL, schedule, tau))


def test_trajectory_matches_matrix_route():
    # Every column against the Kraus route and the eigenvalue measures, and
    # the coefficients bit for bit against state_at.  The edge states put
    # z**2 = b*c exactly in floating point (inner and corner slots), a = 0
    # and d = 0; tau = 800 underflows u = exp(-tau) to zero.
    rng = np.random.default_rng(79)
    edges = [
        XState(1.0, 1.0, 0.25, 0.75, z_inner=0.5),
        XState(0.75, 1.0, 0.25, 1.0, z_inner=-0.5),
        XState(1.0, 0.75, 1.0, 0.25, z_corner=0.5),
        XState(0.0, 1.25, 1.5, 0.25, z_inner=-1.25),
        XState(0.5, 1.0, 1.5, 0.0, z_inner=1.2),
        CANONICAL,
    ]
    randoms = [random_xstate(rng, slot=slot) for slot in ("inner", "corner") * 12]
    kinds = list(Switch)
    for s0 in edges + randoms:
        t1 = float(rng.uniform(0.05, 0.6))
        t2 = t1 + float(rng.uniform(0.05, 0.8))
        schedule = Schedule((
            SwitchEvent(t1, kinds[rng.integers(3)]),
            SwitchEvent(t2, kinds[rng.integers(3)]),
        ))
        # Straddles both switches (and lands on them) and, for most
        # states, the death time.
        grid = np.unique(np.r_[np.linspace(0.0, 3.0, 31), t1, t2, 800.0])
        traj = trajectory(s0, schedule, grid)
        assert traj.a[-1] == 0.0  # u = exp(-800) underflows
        m0 = to_density_matrix(s0)
        for k, tau in enumerate(grid.tolist()):
            m = kraus_rho_at(m0, schedule, tau)
            expected = (
                3.0 * m[0, 0].real, 3.0 * m[1, 1].real, 3.0 * m[2, 2].real,
                3.0 * m[3, 3].real, 3.0 * m[1, 2].real, 3.0 * m[0, 3].real,
                negativity(m), concurrence(m), von_neumann_entropy(m),
            )
            got = tuple(float(getattr(traj, name)[k]) for name in COLUMNS)
            assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12, (s0, tau)
            s = state_at(s0, schedule, tau)
            assert got[:6] == (s.a, s.b, s.c, s.d, s.z_inner, s.z_corner)


def test_trajectory_rejects_two_active_slots():
    # No state with two active slots reaches trajectory, not even as a copy
    # of one with the other slot filled, and none arises on the way: a flow
    # keeps each coherence in its slot and a switch keeps it or moves it.
    one = XState(0.75, 0.75, 0.75, 0.75, z_inner=0.3)
    with pytest.raises(UnsupportedShapeError):
        dataclasses.replace(one, z_corner=0.3)
    rng = np.random.default_rng(239)
    for _ in range(50):
        state = random_xstate(rng, slot=rng.choice(["inner", "corner"]))
        times = np.sort(rng.uniform(0.0, 2.0, size=2))
        schedule = Schedule(tuple(SwitchEvent(float(t), kind)
                                  for t, kind in zip(times, rng.choice(list(Switch), 2))))
        traj = trajectory(state, schedule, np.linspace(0.0, 3.0, 31))
        assert not np.any((traj.z_inner != 0.0) & (traj.z_corner != 0.0))


def test_evolve_makes_no_eigen_call(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("evolve must not call an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    argv = ["evolve", "--switch", "both", "--t-sw", "0.223", "--grid", "0:2:201"]
    assert cli_main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 201


def test_trajectory_rejects_unsorted_grid():
    with pytest.raises(ValueError, match="increasing"):
        trajectory(CANONICAL, Schedule(), [0.0, 0.5, 0.5])


# -- find_end_time -----------------------------------------------------------

def test_baseline_death_time():
    report = find_end_time(CANONICAL)
    assert report.fate is Fate.FINITE_END
    assert report.tau_end == pytest.approx(TAU_0, abs=1e-9)
    assert abs(report.witness) <= 1e-9


def test_never_entangled_reported_with_witness():
    report = find_end_time(XState(1.0, 1.0, 1.0, 0.0))
    assert report.fate is Fate.NEVER_ENTANGLED
    assert report.tau_end is None
    assert report.witness >= 0.0


def test_no_doubly_excited_population_means_no_death():
    # With a = 0 the discriminant stays strictly negative forever.
    state = XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0)
    report = find_end_time(state)
    assert report.fate is Fate.AVERTED
    assert report.witness < 0.0
    for tau in np.linspace(0.0, 30.0, 40):
        assert negativity_xstate(evolve_xstate_closed(state, tau)) > 0.0


@pytest.mark.parametrize(
    "tau_sw,expected",
    [(0.15, END_BOTH_015), (0.223, END_BOTH_0223), (0.3, END_BOTH_03)],
)
def test_end_time_with_both_switch(tau_sw, expected):
    report = find_end_time(CANONICAL, Schedule.single(tau_sw, Switch.BOTH))
    assert report.fate is Fate.FINITE_END
    assert report.tau_end == pytest.approx(expected, abs=1e-9)


def test_end_time_with_alice_switch():
    report = find_end_time(CANONICAL, Schedule.single(0.1, Switch.ALICE))
    assert report.fate is Fate.FINITE_END
    assert report.tau_end == pytest.approx(END_ALICE_01, abs=1e-9)


def test_early_both_switch_averts_death():
    report = find_end_time(CANONICAL, Schedule.single(0.10, Switch.BOTH))
    assert report.fate is Fate.AVERTED
    assert report.tau_end is None
    assert report.witness < 0.0


def test_end_time_agrees_with_matrix_oracle():
    for kind, tau_sw in ((Switch.BOTH, 0.223), (Switch.BOTH, 0.45),
                         (Switch.ALICE, 0.3)):
        fast = find_end_time(CANONICAL, Schedule.single(tau_sw, kind))
        slow = matrix_end_time(CANONICAL, kind, tau_sw)
        assert fast.fate is Fate.FINITE_END
        assert fast.tau_end == pytest.approx(slow, abs=1e-7)
    assert matrix_end_time(CANONICAL, Switch.BOTH, 0.10, horizon=12.0) is None


def test_no_entanglement_revival_after_death():
    for schedule in (Schedule(), Schedule.single(0.223, Switch.BOTH)):
        report = find_end_time(CANONICAL, schedule)
        for tau in np.linspace(report.tau_end + 1e-6, report.tau_end + 5.0, 60):
            s = state_at(CANONICAL, schedule, tau)
            assert discriminant(s) >= 0.0
            assert negativity_xstate(s) == 0.0


def test_death_during_intermediate_segment():
    # A switch scheduled after the unswitched death time: the root must be
    # found inside the first segment and the later event ignored.
    report = find_end_time(CANONICAL, Schedule.single(2.0, Switch.BOTH))
    assert report.fate is Fate.FINITE_END
    assert report.tau_end == pytest.approx(TAU_0, abs=1e-9)


def test_multi_switch_schedule():
    # Two swap-both events straddling the balance point delay death twice;
    # verify against the matrix oracle.
    schedule = Schedule((SwitchEvent(0.2, Switch.BOTH), SwitchEvent(0.6, Switch.BOTH)))
    report = find_end_time(CANONICAL, schedule)
    assert report.fate is Fate.FINITE_END

    m0 = to_density_matrix(CANONICAL)

    def entangled(tau):
        return negativity(kraus_rho_at(m0, schedule, tau)) > 1e-14

    lo, hi = 0.6, 4.0
    assert entangled(lo) and not entangled(hi)
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if entangled(mid) else (lo, mid)
    assert report.tau_end == pytest.approx(0.5 * (lo + hi), abs=1e-7)


def test_end_time_is_exact():
    assert abs(find_end_time(CANONICAL).tau_end - TAU_0) <= 1e-12


def test_switch_landing_on_zero_discriminant_dies_at_the_switch():
    # Switching at the located end time starts the tail where the
    # discriminant is zero to round-off; that stretch dies at its start.
    # The default threshold bracket ends with the same switch.
    state = XState(
        a=0.18948721813361247, b=0.7236946564399099, c=1.8611373350515408,
        d=0.22568079037493693, z_inner=0.751690567684598,
    )
    tau0 = find_end_time(state).tau_end
    report = find_end_time(state, Schedule.single(tau0, Switch.BOTH))
    assert report.fate is Fate.FINITE_END
    assert abs(report.tau_end - tau0) <= 1e-12
    with pytest.raises(NoCrossingError):  # no both-qubit swap averts this death
        find_aversion_threshold(state, Switch.BOTH)


def test_end_time_survives_underflow_of_the_quadratic():
    # With a = 1e-300 the term a**2 of Q and p1**2 in its radicand
    # underflow.  Up to terms in a**2 the discriminant along the flow is
    # u**2 (a (3 - 0.1 u) - z0**2), and z0**2 = 2.95 a puts its zero at
    # u = 1/2.
    a, b, c = 1e-300, 0.05, 0.05
    state = XState(a, b, c, 3.0 - a - b - c, z_inner=math.sqrt(2.95e-300))
    report = find_end_time(state)
    assert report.fate is Fate.FINITE_END
    assert abs(report.tau_end - math.log(2.0)) <= 1e-12


def test_stretch_ending_past_exp_underflow_dies_only_if_p0_is_positive():
    # p0 = 3a - z_inner**2 = 0, so Q(u) = u (p1 + p2 u) stays negative on
    # (0, 1] and the first stretch survives, also where its end u = e^-800
    # underflows to 0 and Q(0) = p0 reads 0.  A both-qubit switch at 800
    # lands on a state whose discriminant is zero in floats, which dies at
    # its start; a one-sided switch averts death.
    state = XState(0.1875, 0.9, 0.9, 1.0125, z_inner=0.75)
    assert find_end_time(state).fate is Fate.AVERTED
    expected = {Switch.BOTH: (Fate.FINITE_END, 800.0),
                Switch.ALICE: (Fate.AVERTED, None), Switch.BOB: (Fate.AVERTED, None)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # once a log(0) made the end time inf
        for kind, (fate, tau_end) in expected.items():
            report = find_end_time(state, Schedule.single(800.0, kind))
            assert (report.fate, report.tau_end) == (fate, tau_end)
            fates, ends = end_times(state, kind, [800.0])
            assert fates.tolist() == [fate]
            assert ends[0] == tau_end if tau_end is not None else math.isnan(ends[0])


def test_end_time_matches_kraus_route_on_random_states():
    # Random entangled states of both coherence slots, one- and two-switch
    # schedules of every kind.  Switch times in the first half of the
    # unswitched life, where early swaps can avert death.
    rng = np.random.default_rng(89)
    kinds = list(Switch)
    fates = []
    for i in range(48):
        state = random_xstate(rng, slot="inner" if i % 2 else "corner")
        while discriminant(state) >= 0.0:
            state = random_xstate(rng, slot="inner" if i % 2 else "corner")
        baseline = find_end_time(state)
        scale = baseline.tau_end if baseline.fate is Fate.FINITE_END else 1.0
        t1, t2 = sorted(rng.uniform(0.0, 0.5 * scale, size=2))
        k1, k2 = kinds[i % 3], kinds[(i // 3) % 3]
        m0 = to_density_matrix(state)
        for schedule in (
            Schedule.single(t1, k1),
            Schedule((SwitchEvent(t1, k1), SwitchEvent(t2, k2))),
        ):
            report = find_end_time(state, schedule)
            fates.append(report.fate)
            if report.fate is Fate.AVERTED:
                t_last = schedule.events[-1].tau
                for later in (t_last + 1.0, t_last + 3.0):
                    assert pt_min_eig(kraus_rho_at(m0, schedule, later)) < 0.0
                continue
            assert report.fate is Fate.FINITE_END
            lo, hi = max(report.tau_end - 1e-6, 0.0), report.tau_end + 1e-6
            assert pt_min_eig(kraus_rho_at(m0, schedule, lo)) < 0.0
            assert pt_min_eig(kraus_rho_at(m0, schedule, hi)) >= 0.0
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if pt_min_eig(kraus_rho_at(m0, schedule, mid)) < 0.0:
                    lo = mid
                else:
                    hi = mid
            assert report.tau_end == pytest.approx(mid, abs=1e-9)
    assert Fate.AVERTED in fates and Fate.FINITE_END in fates


def test_witness_comes_from_the_dying_stretch(monkeypatch):
    # The witness is the discriminant of the dying stretch's state at the
    # end time, so find_end_time walks the schedule once, never via state_at.
    schedules = (
        Schedule(),
        Schedule.single(0.223, Switch.BOTH),
        Schedule((SwitchEvent(0.2, Switch.BOTH), SwitchEvent(0.6, Switch.BOTH))),
    )
    expected = [find_end_time(CANONICAL, schedule) for schedule in schedules]

    def refuse(*args, **kwargs):
        raise AssertionError("find_end_time must not call state_at")

    monkeypatch.setattr(deathclock, "state_at", refuse)
    for schedule, before in zip(schedules, expected):
        report = find_end_time(CANONICAL, schedule)
        assert report.fate is before.fate is Fate.FINITE_END
        assert report.tau_end == before.tau_end
        assert abs(report.witness) <= 1e-12
    assert expected[1].tau_end == pytest.approx(END_BOTH_0223, abs=1e-12)


def test_find_end_time_rejects_general_unitaries():
    # Schedules hold named switches only, so a general unitary never
    # reaches the closed-form walk.
    op = np.eye(4)  # the identity product unitary, as a matrix
    with pytest.raises(TypeError, match="named Switch"):
        SwitchEvent(0.1, op)
    with pytest.raises(TypeError, match="named Switch"):
        find_end_time(CANONICAL, Schedule.single(0.1, op))


def test_a_schedule_that_is_not_a_schedule_names_the_field():
    # Each ended in AttributeError: ... has no attribute 'events'.
    events = [SwitchEvent(0.1, Switch.BOTH)]
    never = XState(1.5, 0.0, 0.0, 1.5)
    for query in (lambda: find_end_time(CANONICAL, events),
                  lambda: find_end_time(never, events),
                  lambda: state_at(CANONICAL, events, 0.2),
                  lambda: trajectory(CANONICAL, None, [0.1])):
        with pytest.raises(TypeError, match=r"^schedule must be a Schedule, got "):
            query()


# md5 of scalar_query_results(): any bit that moves shows.
SCALAR_QUERY_MD5 = "ba298169b6eda9e7c2452bb62ed55a04"


def scalar_query_family():
    """A seeded family of entangled X states with the schedules the phase
    map asks about, as (state, unswitched report, single switch times,
    schedules): 192 inner and corner states, each with one switch of every
    kind at three fractions of its unswitched end time and two switches of
    every pair of kinds, 18 schedules in all.
    """
    rng, count = np.random.default_rng(1511), 0
    while count < 192:
        state = random_xstate(rng, slot=("inner", "corner")[count % 2])
        if discriminant(state) >= 0.0:
            continue
        count += 1
        baseline = find_end_time(state)
        end = min(baseline.tau_end or 1.0, 8.0)
        singles, pair = [end * (k + 0.5) / 3 for k in range(3)], (end / 4, 3 * end / 4)
        schedules = [Schedule.single(t, kind) for kind in Switch for t in singles]
        schedules += [Schedule((SwitchEvent(pair[0], k1), SwitchEvent(pair[1], k2)))
                      for k1 in Switch for k2 in Switch]
        yield state, baseline, singles, schedules


def scalar_query_results():
    """Every scalar query on ``scalar_query_family``, as text.

    Each schedule's end time, plus the aversion threshold of each kind on
    the default bracket and on one ending at the last switch time, and the
    a = d crossing.  A query that raises gives its exception's name.
    """
    def answer(query, *args):
        try:
            return query(*args)
        except (BracketError, NoCrossingError) as exc:
            return type(exc).__name__

    lines = []
    for state, baseline, singles, schedules in scalar_query_family():
        reports = [baseline] + [find_end_time(state, s) for s in schedules]
        values = [v for r in reports for v in (int(r.fate), r.tau_end, r.witness)]
        values += [answer(find_aversion_threshold, state, kind, bracket)
                   for kind in Switch for bracket in (None, (0.0, singles[-1]))]
        values.append(answer(find_ad_crossing, state))
        lines.append(" ".join(
            repr(v if v is None or isinstance(v, (int, str)) else float(v))
            for v in [*state._coefficients, *values]))
    return "\n".join(lines)


def test_value_types_are_slotted_and_frozen(monkeypatch):
    # SwitchEvent, Schedule and DeathReport store through their slots'
    # descriptors in a hand-written __init__; what dataclass gives them
    # otherwise holds, as it does for XState.
    event = SwitchEvent(0.2, Switch.ALICE)
    schedule = Schedule([event, SwitchEvent(tau=0.5, op=Switch.BOB)])
    report = find_end_time(CANONICAL, Schedule.single(0.2, Switch.ALICE))
    for value in (CANONICAL, event, schedule, Schedule(), report):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            value.__setattr__(value.__slots__[0], None)
        # Python 3.11's frozen __setattr__ raises TypeError for a slotted
        # class's unknown name; later versions raise FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            value.note = "no new attributes"
        with pytest.raises(AttributeError):
            object.__setattr__(value, "note", "not even past the frozen check")
        twin = dataclasses.replace(value)
        assert twin == value and twin is not value and hash(twin) == hash(value)
    assert type(schedule.events) is tuple and schedule.events[0] is event
    assert repr(event) == "SwitchEvent(tau=0.2, op=<Switch.ALICE: 'alice'>)"
    assert type(SwitchEvent(1, Switch.ALICE).tau) is float
    assert repr(SwitchEvent(1, Switch.BOTH)) == "SwitchEvent(tau=1.0, op=<Switch.BOTH: 'both'>)"
    assert repr(Schedule((event,))) == f"Schedule(events=({event!r},))"
    assert repr(DeathReport(Fate.FINITE_END, 0.75, -0.0)) == (
        "DeathReport(fate=<Fate.FINITE_END: 0>, tau_end=0.75, witness=-0.0)")
    assert dataclasses.replace(event, tau=0.3) == SwitchEvent(0.3, Switch.ALICE) != event
    assert dataclasses.replace(report, tau_end=None).tau_end is None
    with pytest.raises(ValueError, match="SwitchEvent.tau"):
        dataclasses.replace(event, tau=-1.0)
    with pytest.raises(ValueError, match="strictly increase"):
        dataclasses.replace(schedule, events=schedule.events[::-1])
    # Each Schedule built runs __post_init__, which the benchmark's tracer
    # patches to count them.
    built = []
    post_init = Schedule.__post_init__
    monkeypatch.setattr(Schedule, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    made = [Schedule(), Schedule([event]), Schedule.single(0.1, Switch.BOTH),
            dataclasses.replace(schedule)]
    assert [id(s) for s in built] == [id(s) for s in made]


def test_scalar_queries_keep_their_committed_digest():
    # find_end_time's fate, end time and witness, the aversion threshold and
    # the a = d crossing, bit for bit, on 192 states and 18 schedules each.
    text = scalar_query_results()
    assert hashlib.md5(text.encode()).hexdigest() == SCALAR_QUERY_MD5


# -- the walk on coefficient tuples keeps every check ---------------------------
#
# find_end_time, state_at and trajectory walk a schedule on coefficient
# tuples; each flowed and each switched tuple runs the XState checks, as the
# XState that evolve_xstate_closed and apply_xstate build would.  The
# reference below is that walk on objects.

# XStates that find_end_time built at the parent, whose walk was on objects,
# over scalar_query_family's 3,648 queries (unswitched ones included).
FAMILY_CHECKS = 12365


def reference_stretches(state, schedule):
    start = 0.0
    for event in schedule.events:
        yield start, event.tau, state
        state = apply_xstate(evolve_xstate_closed(state, event.tau - start), event.op)
        start = event.tau
    yield start, math.inf, state


def reference_end_time(state, schedule):
    d0 = discriminant(state)
    if d0 >= 0.0:
        return DeathReport(Fate.NEVER_ENTANGLED, None, d0)
    for start, end, current in reference_stretches(state, schedule):
        p2, p1, p0 = _quadratic(current._coefficients)
        if end != math.inf:
            u_end = float(np.exp(start - end))
        elif p0 <= 0.0:
            return DeathReport(Fate.AVERTED, None, p0)
        else:
            u_end = 0.0
        if (p2 * u_end + p1) * u_end + p0 >= 0.0 and (u_end > 0.0 or p0 > 0.0):
            if p2 + p1 + p0 >= 0.0:
                u_root = 1.0
            else:
                u_root = min(max(deathclock._smaller_root(p2, p1, p0), u_end), 1.0)
            tau_end = start - float(np.log(u_root))
            witness = discriminant(evolve_xstate_closed(current, tau_end - start))
            return DeathReport(Fate.FINITE_END, tau_end, witness)


def reference_state_at(state, schedule, tau):
    for start, end, current in reference_stretches(state, schedule):
        if tau < end:
            return evolve_xstate_closed(current, tau - start)


def bits(query, *args):
    """What ``query(*args)`` gives, with every float as its repr (so -0.0
    and NaN show), or the type and text of what it raises."""
    try:
        result = query(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    fields = result.__slots__
    return type(result), tuple(repr(getattr(result, name)) for name in fields)


@pytest.fixture
def checks(monkeypatch):
    """Each coefficient tuple that runs the XState checks, and each XState built."""
    seen = {"checked": [], "built": 0}
    check, post_init = qstate.check_coefficients, XState.__post_init__

    def counted(*coefficients):
        seen["checked"].append(coefficients)
        return check(*coefficients)

    def built(self):
        seen["built"] += 1
        post_init(self)

    for module in (qstate, deathclock):
        monkeypatch.setattr(module, "check_coefficients", counted)
    monkeypatch.setattr(XState, "__post_init__", built)
    return seen


def test_walk_checks_every_derived_tuple(checks):
    # One switch, death in the tail: the flow to the switch, the switch and
    # the flow to the witness.  Two switches: two more.  No XState is built.
    for schedule, expected in (
        (Schedule.single(0.223, Switch.BOTH), 3),
        (Schedule((SwitchEvent(0.1, Switch.ALICE), SwitchEvent(0.3, Switch.BOB))), 5),
    ):
        checks["checked"].clear()
        report = find_end_time(CANONICAL, schedule)
        assert report.tau_end > schedule.events[-1].tau
        assert len(checks["checked"]) == expected
        assert checks["built"] == 0
        checks["checked"].clear()
        state_at(CANONICAL, schedule, report.tau_end)  # its result is built
        assert (len(checks["checked"]), checks["built"]) == (expected, 1)
        checks["built"] = 0

    family = [(state, [Schedule(), *schedules])
              for state, _, _, schedules in scalar_query_family()]
    checks["checked"].clear()
    checks["built"] = 0
    for state, schedules in family:
        for schedule in schedules:
            find_end_time(state, schedule)
    assert (len(checks["checked"]), checks["built"]) == (FAMILY_CHECKS, 0)
    checks["checked"].clear()
    for state, schedules in family:
        for schedule in schedules:
            reference_end_time(state, schedule)
    assert len(checks["checked"]) == checks["built"] == FAMILY_CHECKS


CORNER = XState(1.0, 0.25, 0.75, 1.0, z_corner=1.0)  # b*c - z_corner**2 < 0


@pytest.mark.parametrize("state, events, fate, checked", [
    (CANONICAL, (), Fate.FINITE_END, 1),
    (CORNER, (), Fate.FINITE_END, 1),
    (CANONICAL, ((0.223, Switch.BOTH),), Fate.FINITE_END, 3),
    (CANONICAL, ((2.0, Switch.ALICE),), Fate.FINITE_END, 1),  # dies before the switch
    (CANONICAL, ((0.1, Switch.BOTH),), Fate.AVERTED, 2),
    (CANONICAL, ((0.1, Switch.ALICE), (0.3, Switch.BOB)), Fate.FINITE_END, 5),
    (CANONICAL, ((0.05, Switch.ALICE), (0.1, Switch.BOB)), Fate.AVERTED, 4),
    (CORNER, ((0.1, Switch.BOB), (0.2, Switch.BOTH)), Fate.FINITE_END, 5),
    (XState(1.0, 1.0, 1.0, 0.0), ((0.2, Switch.BOTH),), Fate.NEVER_ENTANGLED, 0),
], ids=["none", "none_corner", "one", "one_before", "one_averted", "two", "two_averted",
        "two_corner", "never_entangled"])
def test_find_end_time_calls_only_its_checks_and_its_report(state, events, fate, checked):
    # The scalar path's call budget: whatever the schedule and the fate, the
    # only Python-level functions find_end_time enters are the coefficient
    # checks, once per derived tuple, and the report's __init__, once.  A
    # helper that comes back onto this path costs a few per cent of a query,
    # which the benchmark cannot resolve; this test sees it.
    schedule = Schedule(tuple(SwitchEvent(t, kind) for t, kind in events))
    report = find_end_time(state, schedule)
    assert report.fate is fate
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    sys.setprofile(profile)
    try:
        again = find_end_time(state, schedule)
    finally:
        sys.setprofile(None)
    assert bits(lambda: again) == bits(lambda: report)
    check, init = qstate.check_coefficients.__code__, DeathReport.__init__.__code__
    assert entered == [find_end_time.__code__, *[check] * checked, init]


def test_int_switch_times_that_round_to_one_float_are_refused():
    # SwitchEvent stores 10**16 and 10**16 + 1 as one float, 1e16, so a
    # Schedule refuses the pair as it refuses two equal float times.
    with pytest.raises(ValueError, match=r"^schedule times must strictly increase, "
                                         r"got 1e\+16 then 1e\+16$"):
        Schedule((SwitchEvent(0.1, Switch.BOTH), SwitchEvent(10**16, Switch.BOTH),
                  SwitchEvent(10**16 + 1, Switch.ALICE)))


@pytest.mark.parametrize("t", [np.float32(0.2), Decimal("0.2"), Fraction(1, 5), 10**19],
                         ids=repr)
def test_a_time_of_any_real_type_is_taken_as_its_float(t):
    # A float32 switch time ran the walk in float32, and a Decimal one raised
    # TypeError.  Each now gives the bits of its float.
    def schedule(x):
        return Schedule((SwitchEvent(0.1, Switch.BOTH), SwitchEvent(x, Switch.BOTH)))

    x = float(t)
    assert bits(find_end_time, CANONICAL, schedule(t)) == bits(
        find_end_time, CANONICAL, schedule(x))
    assert type(find_end_time(CANONICAL, schedule(t)).tau_end) is float
    for at, as_float in ((t, x), (x, x), (2 * x, 2 * x)):
        assert bits(state_at, CANONICAL, schedule(t), at) == bits(
            state_at, CANONICAL, schedule(x), as_float)
    grid = [0.0, x, 2 * x]
    traj, again = trajectory(CANONICAL, schedule(t), grid), trajectory(CANONICAL, schedule(x), grid)
    for name in COLUMNS:
        assert getattr(traj, name).tobytes() == getattr(again, name).tobytes(), name


GRID_QUERIES = (
    (lambda g: end_times(CANONICAL, Switch.BOTH, g), "switch times"),
    (lambda g: sweep_switch_times(CANONICAL, grid=g), "switch-time grid"),
    (lambda g: trajectory(CANONICAL, grid=g), "trajectory grid"),
)


def test_ints_beyond_float_range_are_refused_naming_the_field():
    # Each of these raised a bare OverflowError: int too large to convert to float.
    huge = 10**400
    with pytest.raises(ValueError, match=r"^SwitchEvent\.tau must be >= 0, got 1000"):
        SwitchEvent(huge, Switch.BOTH)
    with pytest.raises(ValueError, match=r"^XState\.a must be finite, got 1000"):
        XState(huge, 1, 1, 0)
    with pytest.raises(ValueError, match=r"^XState\.z_corner must be finite, got -1000"):
        XState(1.0, 1.0, 1.0, 0.0, 0.0, -huge)
    with pytest.raises(BracketError, match=r"^bad bracket \(0, 1000"):
        find_aversion_threshold(CANONICAL, Switch.BOTH, bracket=(0, huge))
    with pytest.raises(BracketError, match=r"^bad bracket \(-1000"):
        find_aversion_threshold(CANONICAL, Switch.BOTH, bracket=(-huge, 1))
    for query, name in GRID_QUERIES:
        with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0: int too"):
            query([0.0, huge])
    with pytest.raises(ValueError, match=r"^x = exp\(-tau_sw\) must lie in \(0, 1\], got 1000"):
        single_switch_curve(huge)


def test_text_none_and_complex_scalars_are_refused_naming_the_field():
    # Each raised a bare TypeError, such as "must be real number, not str",
    # that named no field.
    m = to_density_matrix(CANONICAL)
    for value, shown in (("1", "'1'"), (None, "None"), (1j, "1j")):
        with pytest.raises(ValueError, match=rf"^XState\.a must be finite, got {shown}$"):
            XState(value, 1, 1, 0)
        with pytest.raises(ValueError, match=rf"^XState\.z_inner must be finite, got {shown}$"):
            XState(1.0, 1.0, 1.0, 0.0, value)
    for value, shown in (("0.1", "'0.1'"), (None, "None"), (0.1j, r"0\.1j")):
        with pytest.raises(ValueError, match=rf"^SwitchEvent\.tau must be >= 0, got {shown}$"):
            SwitchEvent(value, Switch.BOTH)
        for query in (lambda: state_at(CANONICAL, Schedule(), value),
                      lambda: evolve_xstate_closed(CANONICAL, value),
                      lambda: evolve_kraus(m, value)):
            with pytest.raises(ValueError,
                               match=rf"^tau must be finite and non-negative, got {shown}$"):
                query()


def test_text_times_and_malformed_brackets_are_refused():
    # numpy parses text as floats: end_times took ["0.1", "0.2"] and [b"0.1"],
    # and find_aversion_threshold took the bracket "01" as (0, 1); (0.0,)
    # raised IndexError and (None, 1) a bare TypeError.
    for query, name in GRID_QUERIES:
        for grid, shown in ((["0.1", "0.2"], "'0.1'"), ([b"0.1"], r"b'0\.1'"),
                            ([0.1, None], "None"), ([0.2j], r"0\.2j")):
            with pytest.raises(ValueError, match=rf"^{name} must be real numbers, got {shown}$"):
                query(grid)
    for bracket in ("01", (0.0,), (None, 1), (0.0, "1"), (0.0, 0.5, 1.0), 1.0):
        with pytest.raises(BracketError, match=r"^bad bracket "):
            find_aversion_threshold(CANONICAL, Switch.BOTH, bracket)
    # single_switch_curve("0.5") gave 0.5285954792089683, and ["0.5"] an array.
    for x in ("0.5", ["0.5"], [0.5, None], 0.5j, b"0.5"):
        with pytest.raises(ValueError, match=r"^x = exp\(-tau_sw\) must lie in \(0, 1\], got "):
            single_switch_curve(x)
    # Numbers of any real type still pass, as the same floats: Decimal grids
    # and brackets too, which raised "must be real numbers" and "bad
    # bracket" while state_at and SwitchEvent took a Decimal time.
    for bracket in ((0, np.float32(1)), (Decimal(0), Fraction(1)), (Fraction(0), Decimal("1"))):
        assert find_aversion_threshold(CANONICAL, Switch.BOTH, bracket) == (
            find_aversion_threshold(CANONICAL, Switch.BOTH, (0.0, 1.0)))
    for grids in (([0, np.int8(1) / 4, True], [0.0, 0.25, 1.0]),
                  ([Decimal(0), Fraction(1, 5), Decimal("0.3")], [0.0, 0.2, 0.3])):
        rows = [end_times(CANONICAL, Switch.BOTH, grid) for grid in grids]
        assert [a.tobytes() for a in rows[0]] == [a.tobytes() for a in rows[1]]
        runs = [trajectory(CANONICAL, grid=grid) for grid in grids]
        assert all(getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()
                   for name in ("tau", *COLUMNS))
    # A signalling NaN is no finite time; float() raised a bare ValueError.
    nan = Decimal("sNaN")
    with pytest.raises(ValueError, match=r"^switch times must be finite and >= 0: cannot"):
        end_times(CANONICAL, Switch.BOTH, [0.0, nan])
    with pytest.raises(BracketError, match=r"^bad bracket "):
        find_aversion_threshold(CANONICAL, Switch.BOTH, (0.0, nan))
    with pytest.raises(ValueError, match=r"^tau must be finite and non-negative, got "):
        state_at(CANONICAL, Schedule(), nan)
    with pytest.raises(ValueError, match=r"^SwitchEvent\.tau must be >= 0, got "):
        SwitchEvent(nan, Switch.BOTH)
    with pytest.raises(ValueError, match=r"^XState\.a must be finite, got "):
        XState(nan, 1, 1, 0)


@pytest.mark.parametrize("query", [
    discriminant, find_end_time, state_at, find_ad_crossing,
    lambda s: trajectory(s, grid=[0.1]),
    lambda s: end_times(s, Switch.BOTH, [0.1]),
    lambda s: find_aversion_threshold(s),
    lambda s: find_aversion_threshold(s, Switch.ALICE, (0.0, 1.0)),
    lambda s: sweep_switch_times(s),
    lambda s: sweep_switch_times(s, grid=[0.1]),
    lambda s: evolve_xstate_closed(s, 0.1),
    lambda s: apply_xstate(s, Switch.BOTH),
], ids=["discriminant", "find_end_time", "state_at", "find_ad_crossing", "trajectory",
        "end_times", "threshold", "threshold_bracket", "sweep", "sweep_grid",
        "evolve_xstate_closed", "apply_xstate"])
@pytest.mark.parametrize("state", [(1, 1, 1, 0, 1, 0), None, to_density_matrix(CANONICAL)],
                         ids=["tuple", "none", "matrix"])
def test_a_state_that_is_not_an_xstate_is_refused_by_name(query, state):
    # Each raised an AttributeError, such as "'tuple' object has no attribute
    # 'a'" or "... no attribute '_coefficients'".
    with pytest.raises(TypeError, match=r"^state must be an XState, got "):
        query(state)


def test_fate_and_measures_agree_at_the_positivity_edge_exactly():
    # z*z = a*d to the bit, where z**2 is one ulp above it: the discriminant
    # squared by pow read the state as entangled (FINITE_END at tau = 0,
    # witness -5.6e-17) while its negativity and concurrence are exactly 0.
    z = 0.608872523333657
    b = (2.0 - z * z) / 2.0
    state = XState(z * z, b, b, 1.0, z_inner=z)
    assert z**2 > z * z and z * z + b + b + 1.0 == 3.0
    assert discriminant(state) == 0.0
    assert find_end_time(state) == DeathReport(Fate.NEVER_ENTANGLED, None, 0.0)
    assert end_times(state, Switch.ALICE, [0.0, 0.5])[0].tolist() == [Fate.NEVER_ENTANGLED] * 2
    negativity_, concurrence_, _ = qstate.xstate_measures(*state._coefficients)
    assert negativity_ == concurrence_ == 0.0


# -- end_times: find_end_time on a whole switch-time array ----------------------

END_TIME_EDGES = [
    XState(0.0, 1.25, 1.5, 0.25, z_inner=-1.25),  # a = 0
    XState(0.5, 1.0, 1.5, 0.0, z_inner=1.2),  # d = 0
    XState(0.25, 1.0, 1.0, 0.75, z_inner=1.0),  # z_inner**2 = b*c exactly
    XState(1.0, 0.25, 0.75, 1.0, z_corner=1.0),  # z_corner**2 = a*d exactly
    XState(1.0, 1.0, 0.5, 0.5, z_corner=1e-320),  # subnormal coherence
    XState(1.0, 1.0, 1.0, 0.0),  # never entangled
    XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0),  # unswitched death averted
    CANONICAL,
]


def assert_end_times_match(state, kind, grid):
    fate, tau_end = end_times(state, kind, grid)
    assert fate.shape == tau_end.shape == (len(grid),)
    for tau_sw, f, end in zip(list(grid), fate.tolist(), tau_end.tolist()):
        report = find_end_time(state, Schedule.single(tau_sw, kind))
        assert f == report.fate, (state, kind, tau_sw)
        if report.fate is Fate.FINITE_END:  # same arithmetic, so bit for bit
            assert end == report.tau_end, (state, kind, tau_sw)
        else:
            assert math.isnan(end)
    return fate


@pytest.mark.parametrize("kind", list(Switch))
def test_end_times_match_find_end_time(kind):
    # Switch times run past each state's unswitched death (deaths in the
    # first stretch) and out to where u = exp(-tau) is subnormal or zero.
    rng = np.random.default_rng(97)
    states = END_TIME_EDGES + [
        random_xstate(rng, slot=slot) for slot in ("inner", "corner") * 15
    ]
    fates = set()
    for state in states:
        baseline = find_end_time(state)
        scale = baseline.tau_end if baseline.fate is Fate.FINITE_END else 1.0
        grid = [*np.linspace(0.0, 2.0 * scale, 41).tolist(), 740.0, 745.0, 800.0]
        if baseline.fate is Fate.FINITE_END:
            grid.append(math.nextafter(baseline.tau_end, 0.0))
            # Wholly below the unswitched end, where no row dies in the first
            # stretch, wholly past it, and below it but for the last row.
            below = np.linspace(0.0, 0.9 * scale, 9).tolist()
            past = np.linspace(1.1 * scale, 3.0 * scale, 9).tolist()
            for part in (below, past, [*below, past[0]]):
                assert_end_times_match(state, kind, part)
        fates.update(assert_end_times_match(state, kind, grid).tolist())
    assert fates == set(Fate)


def test_end_times_decides_its_rows_block_by_block(monkeypatch):
    # BLOCK_ROWS rows at a time: with blocks of 7, every row of a 30-row
    # grid, both sides of each block boundary and the short last block, is
    # find_end_time's, bit for bit, for a state that dies, one that averts
    # and one never entangled.  Its temporaries stay within a block, so the
    # peak is about the checked times and the two results: 17 bytes a row,
    # against 113 when every temporary spans the whole grid.
    monkeypatch.setattr(deathclock, "BLOCK_ROWS", 7)
    grid = np.linspace(0.0, 1.0, 30)
    for state in (CANONICAL, CORNER, XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0),
                  XState(1.0, 1.0, 1.0, 0.0)):
        for kind in Switch:
            assert_end_times_match(state, kind, grid)
    rows = np.linspace(0.0, 1.0, 7000)
    tracemalloc.start()
    try:
        end_times(CANONICAL, Switch.BOTH, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * rows.size, peak


# Hypothesis batteries at the edges of the physical region: a coherence on
# its positivity edge (z_inner**2 = b*c, z_corner**2 = a*d), a or d near 0,
# subnormal coherences, and switch times from 740 to 800, where u = exp(-tau)
# turns subnormal and then zero.  Both pairs of paths share one arithmetic,
# so they are compared with ==.

SWITCH_TIMES = st.one_of(st.floats(0.0, 3.0), st.floats(740.0, 800.0))


@st.composite
def edge_xstates(draw):
    # a or d is drawn near 0 (exactly 0, subnormal or small), or anywhere.
    low = draw(st.one_of(
        st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e-6), st.floats(0.0, 3.0)
    ))
    weights = [draw(st.floats(1e-3, 1.0)) for _ in range(3)]
    rest = [(3.0 - low) * w / sum(weights) for w in weights]
    if draw(st.booleans()):
        a, b, c, d = low, *rest
    else:
        b, c, a = rest
        d = low
    slot = draw(st.sampled_from(("inner", "corner")))
    edge = math.sqrt(b * c if slot == "inner" else a * d)
    z = draw(st.sampled_from((-1.0, 1.0))) * draw(st.one_of(
        st.just(edge),
        st.floats(0.0, 2.2e-308),
        st.floats(0.0, 1.0).map(lambda f: f * edge),
    ))
    return XState(a, b, c, d, **{f"z_{slot}": z})


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.sampled_from(list(Switch)),
    st.lists(SWITCH_TIMES, min_size=1, max_size=4),
)
def test_end_times_match_find_end_time_at_the_edges(state, kind, switch_times):
    assert_end_times_match(state, kind, switch_times)


# Switch times as a caller may pass them: floats, float32s, and ints at and
# above 2**53, where an odd int lies between two floats.
REAL_SWITCH_TIMES = st.one_of(
    SWITCH_TIMES, SWITCH_TIMES.map(np.float32), st.integers(2**53, 2**60))


@settings(max_examples=200, deadline=None)
@given(
    edge_xstates(),
    st.lists(st.tuples(REAL_SWITCH_TIMES, st.sampled_from(list(Switch))), max_size=3),
    st.lists(SWITCH_TIMES, min_size=1, max_size=6),
)
@example(CANONICAL, [(10**16 + 1, Switch.BOTH)], [0.5])
@example(CANONICAL, [(np.float32(0.1), Switch.ALICE)], [0.5])
def test_trajectory_matches_state_at_at_the_edges(state, events, times):
    # state_at compared a grid time with an int switch time exactly, where
    # trajectory took its float (at 1e16, after a switch at 10**16 + 1, one
    # read d = 3 and the other a = 3), and ran its flow in float32 after a
    # float32 switch time.  Both now read the float SwitchEvent stores.
    events = sorted(events, key=lambda event: float(event[0]))
    taus = [float(t) for t, _ in events]
    assume(all(later > earlier for earlier, later in zip(taus, taus[1:])))
    schedule = Schedule(tuple(SwitchEvent(t, kind) for t, kind in events))
    grid = sorted({*times, *taus})
    traj = trajectory(state, schedule, grid)
    for k, tau in enumerate(grid):
        s = state_at(state, schedule, tau)
        row = np.array([getattr(traj, name)[k] for name in COLUMNS[:6]])
        assert row.tobytes() == np.array(s._coefficients).tobytes(), (state, tau)


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.floats(0.0, 1.0),
    st.lists(st.tuples(SWITCH_TIMES, st.sampled_from(list(Switch))),
             max_size=2, unique_by=lambda event: event[0]),
)
def test_a_state_keeps_its_engine_constants_from_its_six_fields(state, other, events):
    # The other coherence slot filled to a fraction of its positivity edge
    # is refused, unless the fraction (or the edge) is 0.
    a, b, c, d, z_inner, z_corner = (getattr(state, name) for name in COLUMNS[:6])
    if z_corner == 0.0:
        z_corner = other * math.sqrt(a * d)
    else:
        z_inner = other * math.sqrt(b * c)
    if z_inner != 0.0 and z_corner != 0.0:
        with pytest.raises(UnsupportedShapeError):
            XState(a, b, c, d, z_inner, z_corner)
        return
    state = XState(a, b, c, d, z_inner, z_corner)
    # What the engine reads equals a fresh computation from the six fields,
    # bit for bit: the coefficient tuple (of floats), the discriminant at
    # tau = 0 and the first stretch's Q.
    if z_corner != 0.0:
        d0 = b * c - z_corner * z_corner
        q = (a * a, -a * (b + c + 2.0 * a), (b + a) * (c + a) - z_corner * z_corner)
    else:
        d0 = a * d - z_inner * z_inner
        q = (a * a, -a * (b + c + 2.0 * a), 3.0 * a - z_inner * z_inner)
    kept = qstate._constants(state)
    assert repr(kept) == repr(((a, b, c, d, z_inner, z_corner), d0, q))
    assert all(type(v) is float for v in kept[0])
    # Copies, pickles and replace give states that answer as the original does.
    schedule = Schedule(tuple(SwitchEvent(t, kind) for t, kind in sorted(events)))
    for twin in (dataclasses.replace(state), copy.copy(state), copy.deepcopy(state),
                 pickle.loads(pickle.dumps(state))):
        assert twin == state and hash(twin) == hash(state) and repr(twin) == repr(state)
        assert repr(qstate._constants(twin)) == repr(kept)
        assert bits(find_end_time, twin, schedule) == bits(find_end_time, state, schedule)
    # The constants are no fields of the constructor, repr, == or match.
    assert [f.name for f in dataclasses.fields(XState) if f.init] == list(COLUMNS[:6])
    assert XState.__match_args__ == COLUMNS[:6]
    assert repr(state) == "XState(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(COLUMNS, (a, b, c, d, z_inner, z_corner))) + ")"


# Switch times where u = exp(-tau) underflows: around TAU_ZERO, and past it.
PAST_ZERO = st.sampled_from((
    deathclock.TAU_ZERO, math.nextafter(deathclock.TAU_ZERO, 0.0), 1074 * math.log(2),
    745.5, 1e4, 1e300))


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.lists(st.tuples(SWITCH_TIMES | PAST_ZERO, st.sampled_from(list(Switch))),
             max_size=3, unique_by=lambda event: event[0]),
    SWITCH_TIMES | PAST_ZERO,
    st.sampled_from(list(Switch)),
)
def test_tuple_walk_matches_the_object_walk(state, events, tau, kind):
    # On inner and corner states, 0 to 3 switches, then one more switch
    # exactly at the end time found, where the discriminant is zero to
    # round-off: find_end_time's one loop, with one np.exp per finite
    # stretch, and state_at are the walk on XStates, bit for bit.
    schedule = Schedule(tuple(SwitchEvent(t, k) for t, k in sorted(events)))
    schedules = [schedule]
    report = find_end_time(state, schedule)
    if report.fate is Fate.FINITE_END and math.isfinite(report.tau_end) and all(
            report.tau_end > t for t, _ in events):
        schedules.append(Schedule((*schedule.events, SwitchEvent(report.tau_end, kind))))
    for schedule in schedules:
        assert bits(find_end_time, state, schedule) == bits(
            reference_end_time, state, schedule)
        for at in (tau, *(event.tau for event in schedule.events)):
            assert bits(state_at, state, schedule, at) == bits(
                reference_state_at, state, schedule, at)


# Gaps between switches, the first from tau = 0: short, around TAU_ZERO, and far past it.
GAPS = st.one_of(st.floats(0.0, 3.0), st.floats(740.0, 800.0), st.floats(800.0, 1e300))


@settings(max_examples=500, deadline=None)
@given(edge_xstates(), st.lists(st.tuples(GAPS, st.sampled_from(list(Switch))), max_size=2))
def test_an_end_time_lies_within_39_of_its_stretch_start(state, steps):
    # A dying stretch's root is taken only where p0 > 0 > Q(1), so it is at
    # least p0 / -p1, about 2**-55 at the smallest, and the end time lies
    # at most -ln(2**-55) = 38.1 past the stretch's start: find_end_time
    # needs no check that it is finite and >= 0.
    times = list(itertools.accumulate(gap for gap, _ in steps))
    assume(all(later > earlier for earlier, later in zip(times, times[1:])))
    schedule = Schedule(tuple(SwitchEvent(t, kind) for t, (_, kind) in zip(times, steps)))
    report = find_end_time(state, schedule)
    if report.fate is Fate.FINITE_END:
        start = max((t for t in times if t <= report.tau_end), default=0.0)
        assert 0.0 <= report.tau_end - start <= 39.0, (state, schedule, report)


BIG_GAPS = Schedule((SwitchEvent(0.1, Switch.BOTH), SwitchEvent(10**30, Switch.BOTH),
                     SwitchEvent(10**300, Switch.ALICE)))


def test_switch_gaps_past_int64_are_taken_as_floats():
    # SwitchEvent stores each int switch time as a float, so a gap past
    # int64, 10**300 - 10**30, reaches np.exp as a float.  The switch at 0.1
    # averts death, the one at 10**30 meets the ground state and flips it
    # to a separable state, whose stretch dies at its start.
    assert find_end_time(CANONICAL, BIG_GAPS) == DeathReport(Fate.FINITE_END, 1e30, 0.0)
    as_floats = Schedule(tuple(SwitchEvent(float(e.tau), e.op) for e in BIG_GAPS.events))
    assert find_end_time(CANONICAL, as_floats) == find_end_time(CANONICAL, BIG_GAPS)
    grid = [0.0, 0.1, 1.0, 1e30, 5e299, 1e300, 2e300]
    states = [state_at(CANONICAL, BIG_GAPS, tau) for tau in grid]
    assert states == [state_at(CANONICAL, as_floats, tau) for tau in grid]
    assert states[3:] == [XState(3.0, 0.0, 0.0, 0.0), XState(0.0, 0.0, 0.0, 3.0),
                          XState(0.0, 3.0, 0.0, 0.0), XState(0.0, 0.0, 0.0, 3.0)]
    traj = trajectory(CANONICAL, BIG_GAPS, grid)
    again = trajectory(CANONICAL, as_floats, grid)
    for name in COLUMNS:
        assert getattr(traj, name).tobytes() == getattr(again, name).tobytes(), name
    for k, s in enumerate(states):
        got = tuple(float(getattr(traj, name)[k]) for name in COLUMNS[:6])
        assert got == (s.a, s.b, s.c, s.d, s.z_inner, s.z_corner), grid[k]


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.sampled_from(list(Switch)),
    st.lists(SWITCH_TIMES, min_size=1, max_size=4),
)
def test_search_probe_matches_end_times_at_the_edges(state, kind, switch_times):
    # The searches' probe is _single_switch's arithmetic at one float switch
    # time: its fate, its tail's end time and the u it reads the switch time
    # through are those of the arrays, bit for bit.
    fate, tau_end = end_times(state, kind, switch_times)
    u = np.exp(-np.array(switch_times))
    first, (q2, q1, q0) = deathclock._single_switch(state, kind, u)
    threshold = deathclock._probe(state, kind)
    minimum = deathclock._probe(state, kind, slope=True)
    for i, tau_sw in enumerate(switch_times):
        assert threshold(tau_sw) == (fate[i] == Fate.FINITE_END, u[i])
        rising, v, x = minimum(tau_sw)
        assert x == u[i]
        if not first[i] and q2[i] + q1[i] + q0[i] < 0.0 < q0[i]:
            if discriminant(state) < 0.0:  # else end_times has no end time
                assert tau_sw - float(np.log(v)) == tau_end[i], (state, kind, tau_sw)
        else:
            assert rising and v is None


def test_search_probe_slope_sign_matches_the_end_times():
    # Where the end time visibly rises or falls, the minimum's probe says so.
    rng = np.random.default_rng(29)
    h, checked = 1e-6, 0
    for k in range(40):
        state = random_xstate(rng, slot=("inner", "corner")[k % 2])
        for kind in Switch:
            probe = deathclock._probe(state, kind, slope=True)
            for tau_sw in rng.uniform(h, 1.0, 10).tolist():
                fate, ends = end_times(state, kind, [tau_sw - h, tau_sw + h])
                rising, v, _ = probe(tau_sw)
                slope = (ends[1] - ends[0]) / (2.0 * h)
                if v is not None and np.all(fate == Fate.FINITE_END) and abs(slope) > 1e-3:
                    assert rising == (slope > 0.0), (state, kind, tau_sw)
                    checked += 1
    assert checked >= 150


def helper_probe(state, kind, slope=False):
    """The searches' probe spelled with the engine's helpers: the flow by
    ``damped_coefficients``, Q by ``_quadratic`` and the tail's root by
    ``_smaller_root``, where ``deathclock._probe`` writes them out."""
    s, d0, (p2, p1, p0) = state._coefficients, state._d0, state._q
    switched = itemgetter(*switch_coefficients(kind, range(6)))

    def probe(tau_sw):
        x = float(np.exp(-tau_sw))
        tail = switched(damped_coefficients(*s, x))
        q2, q1, q0 = _quadratic(tail)
        q_end = (p2 * x + p1) * x + p0
        first = q_end > 0.0 or q_end == 0.0 and x > 0.0
        if not slope:
            return d0 < 0.0 and (first or q0 > 0.0), x
        if first or not q2 + q1 + q0 < 0.0 < q0:
            return True, None, x
        v = min(float(deathclock._smaller_root(q2, q1, q0)), 1.0)
        a, b, c, _, z_inner, z_corner = tail
        ramp = s[0] * (1.0 - 2.0 * x)
        da, db, dc, _, dz_inner, dz_corner = switched((
            2.0 * s[0] * x, s[1] + ramp, s[2] + ramp,
            -(s[1] + s[2] + 2.0 * s[0] * (1.0 - x)), s[4], s[5]))
        dq0 = ((db + da) * (c + a) + (b + a) * (dc + da) - 2.0 * z_corner * dz_corner
               if z_corner != 0.0 else 3.0 * da - 2.0 * z_inner * dz_inner)
        dq2, dq1 = 2.0 * a * da, -da * (b + c + 2.0 * a) - a * (db + dc + 2.0 * da)
        falls, flat = x * ((dq2 * v + dq1) * v + dq0), v * (2.0 * q2 * v + q1)
        return falls >= flat, v, x

    return probe


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.sampled_from(list(Switch)),
    st.booleans(),
    st.lists(SWITCH_TIMES, min_size=1, max_size=4),
)
def test_search_probe_matches_its_helper_spelling_at_the_edges(state, kind, slope, taus):
    # The probe writes the flow, the switch, Q and the tail's root out; each
    # of its (flag, v, x) is the helpers', bit for bit (repr shows -0.0).
    probe, reference = deathclock._probe(state, kind, slope), helper_probe(state, kind, slope)
    for tau_sw in taus:
        assert list(map(repr, probe(tau_sw))) == list(map(repr, reference(tau_sw))), tau_sw


@pytest.mark.parametrize("where", ["tail", "first"])
@pytest.mark.parametrize("state", [CANONICAL, CORNER], ids=["inner", "corner"])
@pytest.mark.parametrize("kind", list(Switch))
@pytest.mark.parametrize("slope", [False, True])
def test_search_probe_calls_only_its_own_code(monkeypatch, slope, kind, state, where):
    # A probe's call budget: it enters no Python function but its own, and
    # of numpy it calls only np.exp, bound at import, whether the switch
    # lands before the unswitched end, so that the tail dies, or after it,
    # so that the first stretch does.  A helper back on this path, or a
    # numpy call on floats such as np.sqrt, shows here.
    baseline = find_end_time(state).tau_end
    tau_sw = 0.9 * baseline if where == "tail" else 2.0 * baseline
    report = find_end_time(state, Schedule.single(tau_sw, kind))
    assert report.fate is Fate.FINITE_END
    assert report.tau_end > tau_sw if where == "tail" else report.tau_end == baseline
    probe, entered = deathclock._probe(state, kind, slope), []

    def profile(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code)

    monkeypatch.setattr(deathclock, "np", None)  # any np.<name> on the path raises
    sys.setprofile(profile)
    try:
        result = probe(tau_sw)
    finally:
        sys.setprofile(None)
    monkeypatch.undo()
    assert entered == [probe.__code__]
    assert result == helper_probe(state, kind, slope)(tau_sw)
    assert all(type(value) in (bool, float) for value in result if value is not None)
    if slope:
        assert (result[1] is not None) == (where == "tail")


# Entangled, and never dies unswitched.  After a both-qubit switch at u = 0
# its tail's a is 3 + 4.4e-16, so the corner formula gives q0 = a * a and
# Q(1) = 0 (death at the switch), the inner one q0 = 3 a and a later death.
CORNER_AVERTING = XState(1.0, 0.0, 0.0, 2.0000000000000004, z_corner=1.2)


@pytest.mark.parametrize("state, kind, grid, corner, underflow, first", [
    (CANONICAL, Switch.BOTH, np.linspace(0.0, 0.53, 41), False, False, False),
    (CANONICAL, Switch.ALICE, np.linspace(0.0, 0.53, 41), True, False, False),
    (CORNER_AVERTING, Switch.BOTH, [0.1, 744.5, 745.0, 800.0], True, True, False),
    (CANONICAL, Switch.ALICE, [0.1, 744.5, 745.0, 800.0], True, True, True),
    (CANONICAL, Switch.BOTH, [0.1, 0.3, 0.6, 2.0], False, False, True),
    (CORNER, Switch.BOB, [0.1, 0.5, 0.8, 800.0], False, False, True),
    (CORNER, Switch.BOTH, [0.1, 0.5, 0.8, 800.0], True, True, True),
], ids=["inner_tail", "corner_tail", "corner_tail_underflow",
        "corner_tail_underflow_first_stretch", "first_stretch", "inner_tail_first_stretch",
        "corner_tail_first_stretch"])
def test_end_times_match_find_end_time_on_each_branch(state, kind, grid, corner, underflow,
                                                      first):
    # end_times evaluates q0 on the tail's slot alone, on both slots only in
    # a block where some row's z_corner * u underflowed to 0, and selects
    # the first stretch only in a block where some row dies in it.  Each
    # branch gives find_end_time's bits.  Past tau ~ 745, u = 0: a state
    # that dies unswitched dies there in the first stretch, so only one
    # whose unswitched death is averted reaches an underflowed tail alone;
    # CORNER_AVERTING's end time there depends on which formula q0 takes.
    u = np.exp(-np.array(grid))
    z_corner = switch_coefficients(kind, state._coefficients)[5] * u
    assert z_corner.any() == corner and (corner and not z_corner.all()) == underflow
    assert deathclock._single_switch(state, kind, u)[0].any() == first
    assert_end_times_match(state, kind, grid)


def test_sweep_minimum_end_time_is_end_times_at_it(monkeypatch):
    rng = np.random.default_rng(31)
    states = [CANONICAL] + [random_xstate(rng, slot=("inner", "corner")[k % 2])
                            for k in range(120)]
    moved = 0
    for state in states:
        if find_end_time(state).fate is not Fate.FINITE_END:
            continue
        for kind in Switch:
            curve = sweep_switch_times(state, kind)
            if curve.min_tau_sw is None:
                continue
            end = end_times(state, kind, [curve.min_tau_sw])[1][0]
            assert end == curve.min_tau_end, (state, kind)
            moved += curve.min_tau_sw not in curve.tau_sw
    assert moved >= 20  # minima found between the grid rows
    # A search end whose slope probe finds no tail root (v is None) takes
    # its end time from end_times itself; this state and grid reach it.
    state = XState(2.141645794310974, 0.2760297914776501, 0.041329137083991836,
                   0.540995277127384, z_corner=-0.49562354475879533)
    grid = [0.0, math.nextafter(find_end_time(state).tau_end, 0.0)]
    calls = []
    monkeypatch.setattr(deathclock, "end_times",
                        lambda *args: calls.append(args[2]) or end_times(*args))
    curve = sweep_switch_times(state, Switch.BOTH, grid)
    assert calls == [[curve.min_tau_sw]] and grid[0] < curve.min_tau_sw < grid[1]
    assert curve.min_tau_end == end_times(state, Switch.BOTH, [curve.min_tau_sw])[1][0]


def test_end_times_validate_their_inputs():
    # A subnormal coherence is an active slot: the state with it in both is
    # refused when it is built, before end_times or find_end_time sees it.
    with pytest.raises(UnsupportedShapeError):
        XState(0.75, 0.75, 0.75, 0.75, z_inner=0.3, z_corner=1e-320)
    with pytest.raises(ValueError, match="finite and >= 0, got -0.1"):
        end_times(CANONICAL, Switch.ALICE, [0.0, -0.1])
    with pytest.raises(TypeError):
        end_times(CANONICAL, "both", [0.1])
    fate, tau_end = end_times(CANONICAL, Switch.BOB, [])
    assert fate.size == tau_end.size == 0


def test_sweep_rows_at_the_edges_of_the_grid():
    # An averted baseline with an explicit grid, and a grid whose last
    # switch comes one ulp before the unswitched death.
    always = XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0)
    last = math.nextafter(TAU_0, 0.0)
    for state, grid in ((always, [0.0, 0.5, 1.0, 3.0]), (CANONICAL, [0.0, 0.3, last])):
        for kind in Switch:
            curve = sweep_switch_times(state, kind, grid)
            assert curve.tau_sw.tolist() == grid
            fate = assert_end_times_match(state, kind, grid)
            assert curve.fate.tolist() == fate.tolist()


def test_sweep_decides_its_rows_block_by_block(monkeypatch):
    # BLOCK_ROWS rows at a time: blocks of 7, the last one short, give the
    # rows and features of one block, bit for bit.
    grid = np.linspace(0.0, 0.53, 50)
    for kind in Switch:
        whole = sweep_switch_times(CANONICAL, kind, grid)
        monkeypatch.setattr(deathclock, "BLOCK_ROWS", 7)
        blocks = sweep_switch_times(CANONICAL, kind, grid)
        monkeypatch.undo()
        assert blocks.fate.dtype == whole.fate.dtype
        assert blocks.fate.tolist() == whole.fate.tolist()
        assert np.array_equal(blocks.tau_end, whole.tau_end, equal_nan=True)
        assert (blocks.aversion_threshold, blocks.min_tau_sw, blocks.min_tau_end) == (
            whole.aversion_threshold, whole.min_tau_sw, whole.min_tau_end)


def test_sweep_calls_find_end_time_per_search_step_not_per_row(monkeypatch, capsys):
    # The threshold and the minimum search the closed-form tail, so the
    # baseline is the only find_end_time call left.
    calls = []
    find = deathclock.find_end_time

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    for module in (deathclock, esdsim.cli):  # cmd_sweep finds the baseline itself
        monkeypatch.setattr(module, "find_end_time", counted)
    for kind in ("both", "alice"):
        calls.clear()
        assert cli_main(["sweep", "--switch", kind, "--grid", "0:0.53:4001"]) == 0
        assert len(capsys.readouterr().out.splitlines()) > 4001
        assert len(calls) == 1, kind


@pytest.mark.parametrize("grid", [[], ["--grid", "0:0.53:4001"]])
def test_critical_finds_the_unswitched_end_once(monkeypatch, capsys, grid):
    # cmd_critical and cmd_sweep hand their baseline and their checked grid
    # to the sweep, which finds neither again.
    calls, checks = [], []
    find, times = deathclock.find_end_time, deathclock._times

    def counted(*args, **kwargs):
        calls.append(args)
        return find(*args, **kwargs)

    for module in (deathclock, esdsim.cli):
        monkeypatch.setattr(module, "find_end_time", counted)
    monkeypatch.setattr(deathclock, "_times", lambda *a, **k: checks.append(a) or times(*a, **k))
    for command, feature in (("critical", "min_end_time"), ("sweep", "# min_end")):
        for kind in ("both", "alice", "bob"):
            calls.clear()
            assert cli_main([command, "--switch", kind, *grid]) == 0
            assert feature in capsys.readouterr().out
            assert (len(calls), checks) == (1, []), (command, kind)


# -- ad crossing and aversion threshold ---------------------------------------

def test_ad_crossing_canonical():
    assert find_ad_crossing(CANONICAL) == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)


def test_ad_crossing_general_states():
    # a(tau) - d(tau) is linear in u = exp(-tau): root at u = 3 / (b+c+2a).
    rng = np.random.default_rng(79)
    found = 0
    while found < 50:
        s = random_xstate(rng, slot="inner")
        slope = s.b + s.c + 2.0 * s.a
        if s.a - s.d <= 0.0:
            continue
        found += 1
        assert find_ad_crossing(s) == pytest.approx(math.log(slope / 3.0), abs=1e-9)


def test_ad_crossing_raises_when_already_below():
    with pytest.raises(NoCrossingError):
        find_ad_crossing(XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0))


def test_switch_at_ad_crossing_is_a_no_op():
    tau_a = math.log(4.0 / 3.0)
    swapped = apply_xstate(evolve_xstate_closed(CANONICAL, tau_a), Switch.BOTH)
    assert swapped.a == pytest.approx(swapped.d, abs=1e-12)
    report = find_end_time(CANONICAL, Schedule.single(tau_a, Switch.BOTH))
    assert report.tau_end == pytest.approx(TAU_0, abs=1e-9)


def test_aversion_threshold_canonical():
    expected = math.log((2.0 + math.sqrt(2.0)) / 3.0)
    assert find_aversion_threshold(CANONICAL) == pytest.approx(expected, abs=1e-12)


def test_aversion_threshold_brackets_the_fate_change():
    threshold = find_aversion_threshold(CANONICAL)
    just_below = find_end_time(CANONICAL, Schedule.single(threshold - 1e-6, Switch.BOTH))
    just_above = find_end_time(CANONICAL, Schedule.single(threshold + 1e-6, Switch.BOTH))
    assert just_below.fate is Fate.AVERTED
    assert just_above.fate is Fate.FINITE_END


def test_aversion_threshold_straddles_the_fate_change():
    # The threshold is the first float whose single-switch fate differs from
    # the bracket's lower end, so the floats either side of it end unalike.
    # The bracket ends are classified as find_end_time classifies them,
    # also past the unswitched death, where the first stretch dies, and out
    # to where u = exp(-tau) is zero.
    rng = np.random.default_rng(43)
    found = 0
    for k in range(600):
        state = random_xstate(rng, slot=("inner", "corner")[k % 2])
        for kind, bracket in itertools.product(Switch, (None, (0.0, 800.0))):
            def fate(tau_sw):
                return find_end_time(state, Schedule.single(tau_sw, kind)).fate

            ends = bracket
            if bracket is None and (base := find_end_time(state)).tau_end is not None:
                ends = (0.0, base.tau_end)
            try:
                t = find_aversion_threshold(state, kind, bracket)
            except NoCrossingError:
                assert fate(ends[0]) is fate(ends[1]) is Fate.FINITE_END
                continue
            except BracketError:
                assert ends is None or Fate.FINITE_END not in map(fate, ends)
                continue
            found += 1
            below, above = (fate(math.nextafter(t, x)) for x in (-math.inf, math.inf))
            assert below is not above, (state, kind, t)
            assert fate(t) is above is not fate(0.0), (state, kind, t)
    assert found >= 40


@settings(max_examples=500, deadline=None)
@given(
    edge_xstates(),
    st.sampled_from([Switch.BOTH, Switch.BOTH, Switch.ALICE, Switch.BOB]),  # BOTH averts most
    st.one_of(st.none(), st.floats(0.05, 3.0), st.floats(740.0, 800.0)),
)
def test_aversion_threshold_at_the_edges(state, kind, hi):
    # States on z**2 = b*c, with a or d near 0, and brackets past tau ~ 745,
    # where u = exp(-tau) underflows: the threshold is the first float whose
    # fate differs from the bracket's lower end.  A little way off it, where
    # find_end_time keeps both fates, the matrix route agrees: the finite
    # side is dead half a unit after its end time, and the averted side,
    # where the closed form is clearly entangled then, is too on the matrix
    # route.
    def fate(tau_sw):
        return find_end_time(state, Schedule.single(tau_sw, kind)).fate

    try:
        t = find_aversion_threshold(state, kind, None if hi is None else (0.0, hi))
    except (BracketError, NoCrossingError):
        return
    below, above = fate(math.nextafter(t, -math.inf)), fate(t)
    assert below is fate(0.0) is not above, (state, kind, t)
    delta = 1e-3 * max(t, 1e-2)
    side = {below: max(t - delta, 0.0), above: t + delta}
    if t > 5.0 or fate(side[below]) is not below or fate(side[above]) is not above:
        return
    m0 = to_density_matrix(state)
    finite, averted = (Schedule.single(side[f], kind) for f in (Fate.FINITE_END, Fate.AVERTED))
    late = find_end_time(state, finite).tau_end + 0.5
    assert pt_min_eig(kraus_rho_at(m0, finite, late)) > -1e-12, (state, kind, t)
    if discriminant(state_at(state, averted, late)) < -1e-9:
        assert pt_min_eig(kraus_rho_at(m0, averted, late)) < 0.0, (state, kind, t)


FEW_QUANTA_FLIPS = [  # (a, b, c, d, z_inner, z_corner), kind, quanta k at the threshold
    ((0.4049751643938514, 0.04415780170778634, 0.254502421987603, 2.296364611910759,
      0.0, -0.7349697970737431), Switch.ALICE, 1),
    ((0.10335407727573384, 0.18182788637094963, 0.2738845580924299, 2.4409334782608862,
      0.0, -0.4520614968564828), Switch.BOB, 2),
    ((0.01841166906857307, 1.9856860591690326, 0.14918989394723497, 0.8467123778151598,
      -0.383293468643438, 0.0), Switch.ALICE, 3),
    ((0.09068819437100693, 0.7046437486514887, 0.12449969091070424, 2.080168366066801,
      0.0, -0.4206553229706793), Switch.ALICE, 4),
    ((0.006058922444296273, 1.570085859637622, 0.07955360433454842, 1.3443016135835335,
      -0.2774511211373431, 0.0), Switch.ALICE, 6),
    ((0.029752011093918923, 0.03950583578293043, 0.5160105112839994, 2.4147316418391505,
      0.0, 0.22959957303227108), Switch.BOB, 12),
]


def test_searches_take_a_bounded_number_of_probes(bench, monkeypatch):
    # Each search ends on adjacent floats whose flags straddle, those of its
    # bracket ends.  Counting those ends, a canonical search takes at most 8
    # probes, and one on any finite bracket at most 2 + 6 + 62: its band's
    # rounds, then halvings over x's under 2**62 bit patterns in [0, 1] (the
    # secant search took up to 2 + 8 + 63); a canonical threshold takes 6.
    turn, probe = deathclock._turn, deathclock._probe
    one_ulp = (0.3, math.nextafter(0.3, 1.0))
    ends = ((False, 0.75), (True, 0.5))
    assert turn(lambda t: pytest.fail("probed"), *one_ulp, *ends, 0.6) == list(zip(one_ulp, ends))

    calls, searches = [], []

    def counted(*args, **kwargs):
        inner = probe(*args, **kwargs)
        return lambda t: calls.append(t) or inner(t)

    def recorded(probe, lo, hi, at_lo, at_hi, x0):
        start = len(calls)
        found = turn(probe, lo, hi, at_lo, at_hi, x0)
        (t_lo, r_lo), (t_hi, r_hi) = found
        assert lo <= t_lo and math.nextafter(t_lo, math.inf) == t_hi <= hi
        assert r_lo[0] == at_lo[0] != at_hi[0] == r_hi[0]
        searches.append(2 + len(calls) - start)
        return found

    monkeypatch.setattr(deathclock, "_probe", counted)
    monkeypatch.setattr(deathclock, "_turn", recorded)
    bound = 2 + 6 + 62
    for bracket in (None, (0.0, 0.2), (0.0, 800.0), (0.0, 1e308)):
        searches.clear()
        calls.clear()
        assert find_aversion_threshold(CANONICAL, bracket=bracket) == pytest.approx(
            THRESHOLD_BOTH, abs=1e-12
        )
        assert searches and len(calls) <= 6, (bracket, len(calls))
    for kind in Switch:
        searches.clear()
        sweep_switch_times(CANONICAL, kind, np.linspace(0.0, 0.53, 4001))
        assert len(searches) == (2 if kind is Switch.BOTH else 1)
        assert max(searches) <= 8, (kind, searches)
    # A sweep minimum searched up from tau_sw = 0, whose bit pattern lies
    # some 2**62 below the minimum's: one x = e^-tau_sw spans many floats of
    # tau_sw there, which the halving on x does not walk.
    searches.clear()
    curve = sweep_switch_times(CANONICAL, Switch.ALICE, [0.0, 0.5])
    assert len(searches) == 1 and searches[0] <= 8, searches
    assert curve.min_tau_sw == sweep_switch_times(CANONICAL, Switch.ALICE).min_tau_sw
    # A threshold near tau_sw = 0 (seed-3 draw_entangled state 134): with a
    # threshold value linear in x, a search from the bracket's ends stalled
    # there for 72 probes.
    rng, states = random.Random(3), []
    while len(states) <= 134:
        if (state := bench["workloads"].draw_entangled(rng)) is not None:
            states.append(state)
    calls.clear()
    t = find_aversion_threshold(states[134], Switch.ALICE, (0.0, 1.0))
    assert t == float.fromhex("0x1.d9cf9239d62d9p-9") and len(calls) <= 6, len(calls)
    # Random states, whose fates may change where u = exp(-tau) underflows,
    # on brackets past it.  A threshold query, its bracket's ends included,
    # takes at most 6 probes; where the fate changes as u turns 0, a search
    # from the bracket's ends took 73.
    tau_zero = deathclock.TAU_ZERO
    assert np.exp(-tau_zero) == 0.0 < np.exp(-math.nextafter(tau_zero, 0.0))
    rng = np.random.default_rng(12)
    at_zero = 0
    for k in range(60):
        state = random_xstate(rng, slot=("inner", "corner")[k % 2])
        for kind, bracket in itertools.product(Switch, ((0.0, 800.0), (0.0, 1e308))):
            searches.clear()
            calls.clear()
            with contextlib.suppress(BracketError, NoCrossingError):
                at_zero += find_aversion_threshold(state, kind, bracket) == tau_zero
            assert all(count <= bound for count in searches)
            assert len(calls) <= 6, (state, kind, bracket, len(calls))
    assert at_zero >= 4
    # States whose fates change as u steps between its smallest subnormals,
    # k + 1 and k quanta of 2**-1074 (random_xstate draws, seed 0): from the
    # closed-form start, x = 0 after a single flip, a threshold takes at most
    # 2 log2(k) + 6 probes, ends included, as the search on the count of
    # quanta did; the secant search on tau from the bracket's ends took 74.
    for coefficients, kind, k in FEW_QUANTA_FLIPS:
        for bracket in ((0.0, 800.0), (0.0, 1e308)):
            calls.clear()
            t = find_aversion_threshold(XState(*coefficients), kind, bracket)
            assert len(calls) <= 2 * math.log2(k) + 6, (k, kind, bracket, len(calls))
            below = math.nextafter(t, 0.0)
            assert (np.exp(-below), np.exp(-t)) == ((k + 1) * 5e-324, k * 5e-324)
            fate = deathclock._probe(XState(*coefficients), kind)
            assert fate(below)[0] == fate(0.0)[0] != fate(t)[0]


# md5 of wide_bracket_thresholds' text, as the threshold search found it
# from the bracket's ends while it steered on max(Q(x), q0): steering on
# q0 / w moved no bit, nor does the closed-form start.
WIDE_THRESHOLD_MD5 = "4c6e1cbca4f236a82afc18caad5e1197"


def wide_bracket_thresholds(draw_entangled):
    """Each aversion threshold on a wide bracket, (0, 30) and (0, 744.5),
    for every kind and 300 ``draw_entangled`` states each of seeds 3 and 5,
    as text ("BracketError" or "NoCrossingError" where there is none)."""
    lines = []
    for seed in (3, 5):
        rng, states = random.Random(seed), []
        while len(states) < 300:
            if (state := draw_entangled(rng)) is not None:
                states.append(state)
        for state, kind, bracket in itertools.product(
                states, Switch, ((0.0, 30.0), (0.0, 744.5))):
            try:
                lines.append(find_aversion_threshold(state, kind, bracket).hex())
            except (BracketError, NoCrossingError) as exc:
                lines.append(type(exc).__name__)
    return "\n".join(lines)


def test_thresholds_take_few_probes_on_wide_brackets(bench, monkeypatch):
    # Searched from the bracket's ends and steered on max(Q(x), q0), 29 of
    # these thresholds took 73 or 74 probes, and steered on q0 / w up to 24.
    # From the closed-form start each takes at most 10, ends included, and
    # every threshold keeps its bits.
    probe, counts = deathclock._probe, []

    def counted(*args, **kwargs):
        inner, calls = probe(*args, **kwargs), []
        counts.append(calls)
        return lambda t: calls.append(t) or inner(t)

    monkeypatch.setattr(deathclock, "_probe", counted)
    text = wide_bracket_thresholds(bench["workloads"].draw_entangled)
    assert hashlib.md5(text.encode()).hexdigest() == WIDE_THRESHOLD_MD5
    assert max(map(len, counts)) <= 10
    # The phase_map workload's 512 thresholds (seed 1) took 1,990 probes in
    # all when they were searched from the bracket's ends; they take 1,381.
    counts.clear()
    for op in bench["workloads"].PhaseMap(1).ops:
        if not op.latency:  # its a = d crossings and its thresholds
            op.call()
    assert sum(map(len, counts)) <= 1381


# -- the threshold as it was searched from the bracket's ends -------------------
#
# find_aversion_threshold before it started from the closed-form root: a
# bracketed secant on tau from the bracket's ends, steered on max(Q(x), q0 / w),
# after a search on the count of quanta where u is subnormal at the upper
# end.  The closed-form start must keep every bit it found.

def bits_float(k):
    """The float whose bit pattern is k."""
    return deathclock._F64.unpack(deathclock._I64.pack(k))[0]


REFERENCE_QUANTUM = 5e-324  # 2**-1074: every u below 2**-1022 is a whole number of these
REFERENCE_TAU_QUANTUM = 1074 * math.log(2)  # where u = np.exp(-tau) is one quantum
REFERENCE_FEW = 1 << 20  # quanta of u up to which the count was searched first


def reference_probe(state, kind):
    """The fate after one switch, and max(Q(x), q0 / w), w = x (1 + (1 - x)/2)
    after a single flip where x > 0 and 1 otherwise."""
    entangled, single = discriminant(state) < 0.0, kind is not Switch.BOTH
    p2, p1, p0 = _quadratic(state._coefficients)

    def probe(tau_sw):
        x = float(np.exp(-tau_sw))
        first, (_, _, q0) = deathclock._single_switch(state, kind, np.array([x]))
        q_end, q0 = (p2 * x + p1) * x + p0, float(q0[0])
        w = x * (1.0 + 0.5 * (1.0 - x)) if single and x else 1.0
        return entangled and (bool(first[0]) or q0 > 0.0), max(q_end, q0 / w)

    return probe


def reference_search(probe, lo, hi, at_lo, at_hi):
    ends, steer = [(lo, at_lo), (hi, at_hi)], [(lo, at_lo[1]), (hi, at_hi[1])]
    k = [deathclock._bits(t + 0.0) for t in (lo, hi)]
    cap, side, stride = 1 << ((k[1] - k[0] - 1).bit_length() + 8 - 1), 1, 1
    while k[1] - k[0] > 1:
        at, ((t0, g0), (t1, g1)) = (k[0] + k[1]) // 2, steer
        r = g1 / (g1 - g0) if g0 != g1 else 0.0
        ta, tb, w = (t0, t1, 1.0 - r) if t0 <= t1 else (t1, t0, r)
        if (ends[1][0] - ends[0][0] > 2.0**-51 and (x := w * math.expm1(ta - tb)) > -1.0
                and lo < (s := ta - math.log1p(x)) < hi):
            way = 1 - 2 * side
            ahead = (deathclock._bits(s) - k[side]) * way
            ahead, stride = (stride, 2 * stride) if ahead <= stride else (ahead, 1)
            at = k[side] + ahead * way
        at = min(max(at, k[0] + 1, k[1] - cap), k[1] - 1, k[0] + cap)
        cap //= 2
        result = probe(t := bits_float(at))
        if side != (side := int(result[0] != at_lo[0])):
            stride = 1
        ends[side], k[side], steer = (t, result), at, [steer[1], (t, result[1])]
    return ends


def reference_first_tau_at_most(k):
    tau, u = REFERENCE_TAU_QUANTUM - math.log(k + 0.5), k * REFERENCE_QUANTUM
    while np.exp(-tau) > u:
        tau = math.nextafter(tau, math.inf)
    while np.exp(-math.nextafter(tau, 0.0)) <= u:
        tau = math.nextafter(tau, 0.0)
    return tau


def reference_threshold(state, kind, lo, hi):
    probe = reference_probe(state, kind)
    at_lo, at_hi = probe(lo), probe(hi)
    if at_lo[0] == at_hi[0]:
        raise NoCrossingError if at_lo[0] else BracketError
    hi, few = min(hi, deathclock.TAU_ZERO), REFERENCE_FEW * REFERENCE_QUANTUM
    if (u_hi := float(np.exp(-hi))) <= few:
        u_lo = float(np.exp(-lo))
        below = int(u_hi / REFERENCE_QUANTUM)
        above = int(u_lo / REFERENCE_QUANTUM) if u_lo <= few else None
        while above is None or above - below > 1:
            if above is not None:
                k = min(2 * below or 1, (below + above) // 2)
            elif below < REFERENCE_FEW:
                k = REFERENCE_FEW if below else 1
            else:
                break
            tau = REFERENCE_TAU_QUANTUM - math.log(k)
            if (at_k := probe(tau))[0] == at_lo[0]:
                above = k
            else:
                below, hi, at_hi = k, tau, at_k
        else:
            return reference_first_tau_at_most(below)
    return reference_search(probe, lo, hi, at_lo, at_hi)[1][0]


@settings(max_examples=300, deadline=None)
@given(
    edge_xstates(),
    st.sampled_from(list(Switch)),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.one_of(st.floats(0.05, 3.0), st.floats(3.0, 744.9)),
)
def test_threshold_keeps_the_bits_of_the_search_from_the_ends(state, kind, lo, hi):
    # From the closed-form start, on states at the edges of the physical
    # region and brackets out to where u = exp(-tau) is subnormal, the
    # threshold is the float the search from the bracket's ends found.  Where
    # round-off turns the computed fate more than once near the root (after
    # a single flip of a state with a or d near 0, about one threshold in
    # 1,000), each search may stop at a different turn: both are then floats
    # where the fate turns, 2 ulps of x apart in every case seen.
    def answer(query, *args):
        try:
            return query(*args)
        except (BracketError, NoCrossingError) as exc:
            return type(exc)

    assume(lo < hi)
    new = answer(find_aversion_threshold, state, kind, (lo, hi))
    old = answer(reference_threshold, state, kind, lo, hi)
    if new == old or not isinstance(new, float) or not isinstance(old, float):
        assert new == old, (state, kind, lo, hi)
        return
    fate = deathclock._probe(state, kind)
    for t in (new, old):
        assert fate(math.nextafter(t, 0.0))[0] == fate(lo)[0] != fate(t)[0], (state, kind, t)
    x_new, x_old = (deathclock._bits(float(np.exp(-t))) for t in (new, old))
    assert abs(x_new - x_old) <= 16, (state, kind, lo, hi, new, old)


# States where round-off turns the computed fate (after Bob's flip) or the
# slope's sign back and forth over a few floats near the search's result.
FLICKER_THRESHOLD = XState(0.0, 1.4296783757716618, 1.5682385688870906,
                           0.002083055341247906, z_inner=-1.4973565941314617)
FLICKER_MINIMA = (
    (XState(0.6222004018542204, 1.8891440632628727, 0.4866684601883191,
            0.0019870746945878093, z_inner=-0.7852293446276496), Switch.BOB),
    (XState(0.2525148701748978, 0.6487689094870099, 2.0348841997739164,
            0.0638320205641758, z_inner=0.8040735548317873), Switch.ALICE),
)


def test_threshold_is_a_turn_of_the_fate_not_always_the_first():
    # After Bob's flip of this state (a = 0), round-off turns the computed
    # fate three times within 33 floats of tau_sw.  The threshold is the
    # turn that halving finds inside the band around the closed-form start,
    # whatever the bracket around that band, which need not be the first in
    # the bracket: here it is the first of the three, where the secant
    # search from the ends of (0, 1) stopped at the third.
    t = find_aversion_threshold(FLICKER_THRESHOLD, Switch.BOB, (0.0, 1.0))
    assert t == float.fromhex("0x1.6c71feb42884bp-5")
    for bracket in ((0.0, 0.5), (0.01, 3.0), (0.0, 744.5)):
        assert find_aversion_threshold(FLICKER_THRESHOLD, Switch.BOB, bracket) == t
    fate = end_times(FLICKER_THRESHOLD, Switch.BOB, [math.nextafter(t, 0.0), t])[0]
    assert fate[0] != fate[1]
    taus = [t]
    for _ in range(40):
        taus.append(math.nextafter(taus[-1], math.inf))
    fate = end_times(FLICKER_THRESHOLD, Switch.BOB, taus)[0]
    assert np.count_nonzero(fate[1:] != fate[:-1]) == 2


def test_sweep_minimum_is_the_same_on_every_grid_that_holds_its_band():
    # Round-off turns the slope's sign back and forth near these minima, and
    # the secant search's turn moved with its path (3 of 348 two-row grids
    # from tau_sw = 0 moved).  From the closed-form start the minimum keeps
    # its bits on grids of 2, 3, 37, 400 and 4001 rows.
    for state, kind in FLICKER_MINIMA:
        end = find_end_time(state).tau_end
        grids = (None, np.linspace(0.0, end, 4001, endpoint=False),
                 np.linspace(0.0, end, 37, endpoint=False), [0.0, 0.5 * end],
                 [0.0, 0.3 * end, 0.9 * end])
        curves = [sweep_switch_times(state, kind, grid) for grid in grids]
        assert len({(c.min_tau_sw, c.min_tau_end) for c in curves}) == 1, (state, kind)
        assert curves[0].min_tau_sw not in curves[0].tau_sw


def search_start(state, kind, slope, x_hi, x_lo):
    """The closed-form start of the minimum's (slope) or the threshold's search."""
    roots = (deathclock._stationary(state, kind) if slope else
             deathclock._tail_q0_roots(state, kind) + deathclock._roots(*state._q))
    return deathclock._root_in(roots, x_hi, x_lo)


@settings(max_examples=200, deadline=None)
@given(edge_xstates(), st.sampled_from(list(Switch)), st.booleans(),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(FLICKER_THRESHOLD, Switch.BOB, False, 0.5, 0.5)
@example(*FLICKER_MINIMA[0], True, 0.5, 0.5)
@example(*FLICKER_MINIMA[1], True, 0.5, 0.5)
def test_each_search_is_a_function_of_the_state_and_kind(state, kind, slope, below, above):
    # A search from its closed-form start gives the same bits on any
    # bracket that holds its band: here on (0, TAU_ZERO), where u = e^-tau
    # runs over all of [0, 1], and on a bracket drawn between that one and
    # the widest band, 2**17 ulps of x either way of the start, whose ends
    # have the same flags.  (Where even that band does not hold, the band
    # is the whole bracket.)
    probe = deathclock._probe(state, kind, slope)
    lo, hi = 0.0, deathclock.TAU_ZERO
    at_lo, at_hi = probe(lo), probe(hi)
    assume(at_lo[0] != at_hi[0])
    x0 = search_start(state, kind, slope, at_hi[-1], at_lo[-1])
    j = deathclock._bits(x0 + 0.0)
    near, far = (min(max(lo, deathclock._tau_of(k)), hi) for k in (j + (1 << 17), j - (1 << 17)))
    assume(probe(near)[0] == at_lo[0] and probe(far)[0] == at_hi[0])
    inner = (lo + below * (near - lo), far + above * (hi - far))
    ends = probe(inner[0]), probe(inner[1])
    assume(ends[0][0] == at_lo[0] and ends[1][0] == at_hi[0] and inner[0] < inner[1])
    wide = deathclock._turn(probe, lo, hi, at_lo, at_hi, x0)
    assert deathclock._turn(probe, *inner, *ends, x0) == wide, (state, kind, slope)
    if not slope:
        assert find_aversion_threshold(state, kind, inner) == wide[1][0]


def test_threshold_starts_at_the_exact_root():
    # The closed-form start of the canonical thresholds.  After a both-qubit
    # flip q0 = 2l**2 + 8l - 1 in l = 1 - x, whose root in (0, 1] gives
    # x = 3 - 3/sqrt(2), correctly rounded; the threshold, where the computed
    # fate turns, lies a few ulps from -ln(3 - 3/sqrt(2)).  After Alice's
    # flip q0 = x (6 - 5x): its root 6/5 lies outside (0, 1], so her flip
    # never averts death.
    root = float(3 - 3 / Decimal(2).sqrt())
    start = deathclock._root_in(deathclock._tail_q0_roots(CANONICAL, Switch.BOTH), 0.0, 1.0)
    assert start == root
    threshold = find_aversion_threshold(CANONICAL)
    assert abs(threshold - THRESHOLD_BOTH) <= 16 * math.ulp(THRESHOLD_BOTH)
    for kind in (Switch.ALICE, Switch.BOB):
        assert sorted(deathclock._tail_q0_roots(CANONICAL, kind)) == [0.0, 6 / 5]
    with pytest.raises(NoCrossingError):
        find_aversion_threshold(CANONICAL, Switch.ALICE, (0.0, 744.0))


def test_sweep_minimum_starts_at_the_exact_root():
    # The end time is stationary at x = 3(3 - sqrt(2))/7 after both flips and
    # (78 + 18 sqrt(2))/151 after one: each closed-form start lies within an
    # ulp of the anchor's float, and the minimum's x is that float.
    single = (78 + 18 * math.sqrt(2)) / 151
    for kind, anchor in ((Switch.BOTH, 3 * (3 - math.sqrt(2)) / 7),
                         (Switch.ALICE, single), (Switch.BOB, single)):
        start = deathclock._root_in(deathclock._stationary(CANONICAL, kind), 0.0, 1.0)
        assert abs(start - anchor) <= math.ulp(anchor), kind
        for grid in (None, np.linspace(0.0, 0.53, 4001)):
            assert np.exp(-sweep_switch_times(CANONICAL, kind, grid).min_tau_sw) == anchor
    # A root that is not real (NaN) is none; the start always lies in the
    # bracket's range of x, which keeps the band's growth finite.
    assert deathclock._root_in([math.nan, 2.0], 0.25, 0.75) == 0.75
    assert deathclock._root_in([math.nan], 0.25, 0.75) == 0.25


@settings(max_examples=300, deadline=None)
@given(edge_xstates(), st.sampled_from(list(Switch)))
def test_tail_q0_closed_forms_match_the_switched_tail(state, kind):
    # At each root in (0, 1] the tail's q0 after the switch, as
    # _single_switch computes it from the flowed and switched coefficients,
    # is 0 to round-off of the terms summed (|terms| <= 3 S**2, S = 3).
    # Where the coherence flows to 0 its slot reads as inner, and no form
    # applies.
    for x in deathclock._tail_q0_roots(state, kind):
        if 0.0 < x <= 1.0 and (state.z_inner or state.z_corner) * x != 0.0:
            _, (_, _, q0) = deathclock._single_switch(state, kind, np.array([x]))
            assert float(q0[0]) == pytest.approx(0.0, abs=1e-13), (state, kind, x)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0),
       st.booleans(), st.floats(-1.0, 1.0), st.sampled_from(list(Switch)))
def test_stationary_roots_are_turns_of_the_slope(a, w_b, w_c, w_d, corner, fraction, kind):
    # Checks the factors, derived by hand, against the engine: at each
    # root in (0, 1) where the end time turns from falling to rising over
    # 2**12 ulps of x either way, the slope's sign turns within 32 ulps of
    # it, the second band, and mostly within the first (2 ulps; README).
    b, c, d = ((3.0 - a) * w / (w_b + w_c + w_d) for w in (w_b, w_c, w_d))
    z = fraction * math.sqrt(a * d if corner else b * c)
    state = XState(a, b, c, d, **{f"z_{'corner' if corner else 'inner'}": z})
    probe = deathclock._probe(state, kind, slope=True)
    for x in deathclock._stationary(state, kind):
        if not 0.0 < x < 1.0:
            continue
        j = deathclock._bits(x)

        def rising(m):  # at m ulps of x below the root
            return probe(deathclock._tau_of(j - m))[0]

        if rising(1 << 12) and not rising(-(1 << 12)):
            assert rising(32) and not rising(-32), (state, kind, x)


@pytest.mark.parametrize("misleading", [False, True])
def test_search_lands_on_any_step_whatever_its_start(misleading):
    # The flag alone decides the sides; a start that misleads costs probes,
    # never the result or the bound.  The flag reads t only through
    # u = np.exp(-t), as the searches' probes do: it turns where u falls to
    # that of the step.  From the step's own u, as a closed form gives it, a
    # search takes at most 6 probes, ends included; from a bracket end or
    # anywhere else, at most 2 + 6 + 62: its band's rounds, then halvings
    # (the secant search took up to 2 + 8 + 63 from the bracket's ends).
    rng = np.random.default_rng(5 + misleading)
    bound = 2 + 6 + 62 if misleading else 6
    searched = 0
    for _ in range(400):
        lo, hi = sorted(float(x) for x in 10.0 ** rng.uniform(-320, 308, 2))
        lo = 0.0 if rng.random() < 0.3 or lo == hi else lo
        step = float(rng.uniform(lo, hi)) if rng.random() < 0.5 else float(
            10.0 ** rng.uniform(math.log10(max(lo, 5e-324)), math.log10(hi)))
        step = min(max(step, math.nextafter(lo, math.inf)), hi)
        if np.exp(-lo) <= (u_step := float(np.exp(-step))):
            continue  # lo and the step share their u: no bracket
        probes = []

        def probe(t):
            probes.append(t)
            u = float(np.exp(-t))
            return u <= u_step, u

        at_lo, at_hi = probe(lo), probe(hi)
        j_lo, j_hi = deathclock._bits(at_lo[1]), deathclock._bits(at_hi[1])
        if not misleading:
            x0 = u_step
        elif rng.random() < 0.3:  # a bracket end
            x0 = (at_lo[1], at_hi[1])[int(rng.integers(2))]
        else:
            x0 = bits_float(int(rng.integers(j_hi, j_lo + 1)))
        (t_lo, _), (t_hi, _) = deathclock._turn(probe, lo, hi, at_lo, at_hi, x0)
        assert lo <= t_lo and math.nextafter(t_lo, math.inf) == t_hi <= hi, (lo, hi, step)
        assert np.exp(-t_hi) <= u_step < np.exp(-t_lo), (lo, hi, step)
        assert len(probes) <= bound, (lo, hi, step, x0, len(probes))
        searched += 1
    assert searched >= 120


def test_aversion_threshold_single_sided_never_averts():
    with pytest.raises(NoCrossingError):
        find_aversion_threshold(CANONICAL, Switch.ALICE)


def test_aversion_threshold_needs_finite_baseline():
    always = XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0)
    with pytest.raises(BracketError):
        find_aversion_threshold(always, Switch.BOTH)


def test_aversion_threshold_rejects_uniform_bracket():
    with pytest.raises(BracketError, match="averted"):
        find_aversion_threshold(CANONICAL, Switch.BOTH, bracket=(0.0, 0.05))


# -- the single-switch closed curve -------------------------------------------

def test_single_switch_curve_known_points():
    assert single_switch_curve(0.75) == pytest.approx(0.6, abs=1e-12)
    assert single_switch_curve(1.0) == pytest.approx(
        (3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12
    )


def test_single_switch_curve_fixed_point():
    x = 2.0 - math.sqrt(2.0)
    assert single_switch_curve(x) == pytest.approx(x, abs=1e-12)


def test_single_switch_curve_rejects_out_of_range():
    for x in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            single_switch_curve(x)
    with pytest.raises(ValueError, match="got 1.5"):
        single_switch_curve(np.array([0.5, 1.5, 1.0]))


def test_single_switch_curve_on_arrays_matches_floats():
    x = np.linspace(0.05, 1.0, 40)
    y = single_switch_curve(x)
    assert y.shape == x.shape
    assert y.tolist() == [single_switch_curve(v) for v in x.tolist()]
    assert isinstance(single_switch_curve(0.5), float)


@pytest.mark.parametrize("kind", [Switch.ALICE, Switch.BOB])
def test_single_switch_end_times_match_curve(kind):
    for tau_sw in np.linspace(0.0, 0.5, 20):
        expected = -math.log(single_switch_curve(math.exp(-tau_sw)))
        report = find_end_time(CANONICAL, Schedule.single(tau_sw, kind))
        assert report.tau_end == pytest.approx(expected, abs=1e-9)


# -- sweeps -------------------------------------------------------------------

def test_sweep_default_grid_and_features():
    curve = sweep_switch_times(CANONICAL, Switch.BOTH)
    assert len(curve.tau_sw) == len(curve.fate) == len(curve.tau_end) == 400
    assert curve.tau_sw[0] == 0.0
    assert curve.tau_sw[-1] < curve.baseline_end
    assert curve.baseline_end == pytest.approx(TAU_0, abs=1e-9)
    assert curve.ad_crossing == pytest.approx(math.log(4.0 / 3.0), abs=1e-9)
    assert curve.aversion_threshold == pytest.approx(
        math.log((2.0 + math.sqrt(2.0)) / 3.0), abs=1e-12
    )
    assert curve.min_tau_sw == pytest.approx(MIN_BOTH[0], abs=1e-12)
    assert curve.min_tau_end == pytest.approx(MIN_BOTH[1], abs=1e-12)


def test_sweep_minimum_is_exact():
    both = sweep_switch_times(CANONICAL, Switch.BOTH)
    assert both.aversion_threshold == pytest.approx(THRESHOLD_BOTH, abs=1e-12)
    assert both.min_tau_sw == pytest.approx(
        math.log(7.0 / (3.0 * (3.0 - math.sqrt(2.0)))), abs=1e-12
    )
    assert both.min_tau_end == pytest.approx(
        math.log(2.0 * (1.0 + math.sqrt(2.0)) / 3.0), abs=1e-12
    )
    # One flip: the maximum of y = single_switch_curve(x), x = exp(-tau_sw),
    # is where y'(x) = 0, i.e. 3 sqrt(9 - 24 x + 20 x**2) = 28 x - 15, whose
    # admissible root is x = (78 + 18 sqrt(2)) / 151.
    x = (78.0 + 18.0 * math.sqrt(2.0)) / 151.0
    y = single_switch_curve(x)
    around = single_switch_curve(x + np.linspace(-1e-2, 1e-2, 2001))
    assert np.all(around <= y + 1e-15)
    for kind in (Switch.ALICE, Switch.BOB):
        curve = sweep_switch_times(CANONICAL, kind)
        assert curve.min_tau_sw == pytest.approx(-math.log(x), abs=1e-12)
        assert curve.min_tau_end == pytest.approx(-math.log(y), abs=1e-12)


def test_sweep_minimum_is_never_above_the_grid():
    # The minimum is refined between the grid minimum's dying neighbours.
    # It is never above the grid's lowest row or a dense grid over those
    # neighbours, and it is that row itself when nothing between them is
    # lower; this includes grid minima at the first row and at the last
    # row before the unswitched death.
    rng = np.random.default_rng(61)
    edges = 0
    for k in range(80):
        state = random_xstate(rng, slot=("inner", "corner")[k % 2])
        if find_end_time(state).fate is not Fate.FINITE_END:
            continue
        for kind in Switch:
            curve = sweep_switch_times(state, kind)
            dies = curve.fate == Fate.FINITE_END
            if not dies.any():
                continue
            i = int(np.nanargmin(curve.tau_end))
            last = curve.tau_sw.size - 1
            assert curve.min_tau_end <= curve.tau_end[i], (state, kind)
            dense = np.linspace(
                curve.tau_sw[max(i - 1, 0)], curve.tau_sw[min(i + 1, last)], 2001
            )
            lowest = np.nanmin(end_times(state, kind, dense)[1])
            assert curve.min_tau_end <= lowest, (state, kind)
            if lowest >= curve.tau_end[i]:
                assert curve.min_tau_sw == curve.tau_sw[i], (state, kind)
            edges += i in (0, last) or not (dies[i - 1] and dies[i + 1])
    assert edges >= 20


def test_sweep_fates_change_exactly_once():
    curve = sweep_switch_times(CANONICAL, Switch.BOTH)
    fates = [Fate(f) for f in curve.fate.tolist()]
    flips = sum(1 for f1, f2 in zip(fates, fates[1:]) if f1 is not f2)
    assert flips == 1
    assert fates[0] is Fate.AVERTED
    assert fates[-1] is Fate.FINITE_END


def test_sweep_single_sided_matches_curve_and_min():
    curve = sweep_switch_times(CANONICAL, Switch.ALICE)
    assert np.all(curve.fate == Fate.FINITE_END)
    assert curve.aversion_threshold is None
    assert curve.min_tau_sw == pytest.approx(MIN_ALICE[0], abs=1e-4)
    assert curve.min_tau_end == pytest.approx(MIN_ALICE[1], abs=1e-8)


def test_sweep_bob_mirrors_alice():
    grid = np.linspace(0.0, 0.5, 40)
    alice = sweep_switch_times(CANONICAL, Switch.ALICE, grid)
    bob = sweep_switch_times(CANONICAL, Switch.BOB, grid)
    assert alice.fate.tolist() == bob.fate.tolist()
    for end_a, end_b in zip(alice.tau_end.tolist(), bob.tau_end.tolist()):
        assert end_a == pytest.approx(end_b, abs=1e-8)


def test_sweep_rejects_grid_reaching_baseline_end():
    with pytest.raises(ValueError, match="precede"):
        sweep_switch_times(CANONICAL, Switch.BOTH, [0.0, TAU_0])


def test_sweep_rejects_unsorted_grid():
    with pytest.raises(ValueError, match="increasing"):
        sweep_switch_times(CANONICAL, Switch.BOTH, [0.2, 0.1])
    with pytest.raises(ValueError, match="must not be empty"):
        sweep_switch_times(CANONICAL, Switch.BOTH, [])


def test_sweep_without_finite_baseline_needs_explicit_grid():
    always = XState(0.0, 1.2, 1.2, 0.6, z_inner=1.0)
    with pytest.raises(ValueError, match="grid"):
        sweep_switch_times(always, Switch.BOTH)
    # Explicit grids are honoured.  Here every swap refills the doubly
    # excited level, so switching triggers a death the unswitched flow
    # would have avoided.
    curve = sweep_switch_times(always, Switch.BOTH, [0.0, 0.5, 1.0])
    assert curve.baseline_end is None
    assert np.all(curve.fate == Fate.FINITE_END)
    assert curve.min_tau_end is not None


def test_sweep_two_point_grid_is_well_formed():
    curve = sweep_switch_times(CANONICAL, Switch.BOTH, [0.2, 0.3])
    assert len(curve.tau_sw) == len(curve.fate) == len(curve.tau_end) == 2
    assert curve.min_tau_end is not None
