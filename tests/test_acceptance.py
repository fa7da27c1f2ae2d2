"""Acceptance gate: every release-blocking number, one test per criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing run) and then asserts.
Run as ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from esdsim import (
    Fate,
    Schedule,
    Switch,
    XState,
    evolve_xstate_closed,
    find_ad_crossing,
    find_aversion_threshold,
    find_end_time,
    sweep_switch_times,
)
from esdsim.channel import evolve_kraus
from esdsim.deathclock import single_switch_curve
from esdsim.qstate import (
    concurrence,
    negativity,
    partial_transpose,
    to_density_matrix,
    validate_density_matrix,
    von_neumann_entropy,
)

from conftest import random_density_matrix, random_unitary2, random_xstate

CANONICAL = XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0)
TAU_0 = math.log(1.0 + 1.0 / math.sqrt(2.0))
SQRT2 = math.sqrt(2.0)


def report(num: int, ok: bool, detail: str = "") -> bool:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    return ok


def test_criterion_01_unswitched_death_time():
    found = find_end_time(CANONICAL)
    ok = found.fate is Fate.FINITE_END and abs(found.tau_end - TAU_0) <= 1e-12
    assert report(1, ok, f"tau_end = {found.tau_end!r}")


def test_criterion_02_state_at_death():
    s = evolve_xstate_closed(CANONICAL, TAU_0)
    expected = {
        "a": 6.0 - 4.0 * SQRT2,
        "b": 2.0 * SQRT2 - 2.0,
        "c": 2.0 * SQRT2 - 2.0,
        "d": 1.0,
        "z_inner": 2.0 - SQRT2,
    }
    errors = {k: abs(getattr(s, k) - v) for k, v in expected.items()}
    ok = all(err <= 1e-12 for err in errors.values())
    assert report(2, ok, f"max coefficient error = {max(errors.values()):.3e}")


def test_criterion_03_switch_at_balance_point_is_no_op():
    tau_a = find_ad_crossing(CANONICAL)
    ok_a = abs(tau_a - math.log(4.0 / 3.0)) <= 1e-12
    swapped = find_end_time(CANONICAL, Schedule.single(math.log(4.0 / 3.0), Switch.BOTH))
    ok_b = swapped.fate is Fate.FINITE_END and abs(swapped.tau_end - TAU_0) <= 1e-12
    assert report(3, ok_a and ok_b, f"crossing = {tau_a!r}, end = {swapped.tau_end!r}")


def test_criterion_04_aversion_threshold_and_fates():
    threshold = find_aversion_threshold(CANONICAL, Switch.BOTH)
    ok_t = abs(threshold - 0.1293) <= 5e-4
    below = find_end_time(CANONICAL, Schedule.single(0.10, Switch.BOTH)).fate
    above = find_end_time(CANONICAL, Schedule.single(0.15, Switch.BOTH)).fate
    ok_f = below is Fate.AVERTED and above is Fate.FINITE_END
    assert report(4, ok_t and ok_f,
                  f"threshold = {threshold!r}, fates = ({below.name}, {above.name})")


def test_criterion_05_hastening_minimum():
    curve = sweep_switch_times(CANONICAL, Switch.BOTH)
    value_ok = abs(curve.min_tau_end - 0.48) <= 0.01
    place_ok = abs(curve.min_tau_sw - 0.357) <= 0.005
    detail = (
        f"min tau_end = {curve.min_tau_end:.6f} (0.48 +- 0.01: "
        f"{'ok' if value_ok else 'off'}), at tau_sw = {curve.min_tau_sw:.6f} "
        f"(0.357 +- 0.005: {'ok' if place_ok else 'off'})"
    )
    assert report(5, value_ok and place_ok, detail)


def test_criterion_06_delay_example():
    found = find_end_time(CANONICAL, Schedule.single(0.223, Switch.BOTH))
    ok = found.fate is Fate.FINITE_END and abs(found.tau_end - 0.716) <= 5e-3
    assert report(6, ok, f"tau_end = {found.tau_end!r}")


def test_criterion_07_single_sided_switch_curve():
    devs = []
    for tau_sw in np.linspace(0.0, 0.5, 20):
        expected = -math.log(single_switch_curve(math.exp(-tau_sw)))
        found = find_end_time(CANONICAL, Schedule.single(tau_sw, Switch.ALICE))
        devs.append(abs(found.tau_end - expected))
    ok_curve = max(devs) <= 1e-12
    max_delay = find_end_time(CANONICAL, Schedule.single(0.0, Switch.ALICE)).tau_end
    ok_delay = abs(max_delay - math.log((3.0 + math.sqrt(5.0)) / 2.0)) <= 1e-12
    fixed = 2.0 - SQRT2
    ok_fixed = abs(single_switch_curve(fixed) - fixed) <= 1e-12
    assert report(7, ok_curve and ok_delay and ok_fixed,
                  f"max curve dev = {max(devs):.3e}, delay = {max_delay!r}")


def test_criterion_08_initial_entropy_both_variants():
    expected = math.log(3.0 / 4.0 ** (1.0 / 3.0))
    excited = von_neumann_entropy(to_density_matrix(CANONICAL))
    grounded = von_neumann_entropy(
        to_density_matrix(XState(0.0, 1.0, 1.0, 1.0, z_inner=1.0))
    )
    ok = abs(excited - expected) <= 1e-12 and abs(grounded - expected) <= 1e-12
    assert report(8, ok, f"entropy = {excited!r}")


def test_criterion_09_propagator_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(10_000):
        slot = "corner" if i % 3 == 0 else "inner"
        s0 = random_xstate(rng, slot=slot)
        tau = rng.uniform(0.0, 6.0)
        closed = to_density_matrix(evolve_xstate_closed(s0, tau))
        kraus = evolve_kraus(to_density_matrix(s0), tau)
        worst = max(worst, float(np.max(np.abs(closed - kraus))))
    ok_prop = worst <= 1e-12

    coupling = np.array(
        [
            [-2.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    h = 1e-6
    worst_rate = 0.0
    for i in range(20):
        m = to_density_matrix(random_xstate(rng, "inner" if i % 2 else "corner"))
        stencil = (4.0 * evolve_kraus(m, h) - 3.0 * m - evolve_kraus(m, 2.0 * h)) / (
            2.0 * h
        )
        expected = np.zeros((4, 4), dtype=complex)
        np.fill_diagonal(expected, coupling @ np.diag(m).real)
        expected[1, 2], expected[2, 1] = -m[1, 2], -m[2, 1]
        expected[0, 3], expected[3, 0] = -m[0, 3], -m[3, 0]
        worst_rate = max(worst_rate, float(np.max(np.abs(stencil - expected))))
    ok_rate = worst_rate <= 1e-6
    assert report(9, ok_prop and ok_rate,
                  f"max entry dev = {worst:.3e}, max rate dev = {worst_rate:.3e}")


def test_criterion_10_property_batteries():
    rng = np.random.default_rng(4096)
    ok = True

    for _ in range(200):  # local-unitary invariance of negativity
        m = random_density_matrix(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        ok &= abs(negativity(u @ m @ u.conj().T) - negativity(m)) <= 1e-12

    for _ in range(200):  # partial transpose is an involution
        m = random_density_matrix(rng)
        ok &= bool(np.allclose(partial_transpose(partial_transpose(m)), m, atol=1e-14))

    for _ in range(200):  # trace and positivity preserved by both propagators
        s0 = random_xstate(rng, slot="inner")
        tau = rng.uniform(0.0, 8.0)
        try:
            validate_density_matrix(to_density_matrix(evolve_xstate_closed(s0, tau)))
            validate_density_matrix(evolve_kraus(to_density_matrix(s0), tau))
        except ValueError:
            ok = False

    for _ in range(100):  # semigroup composition
        m = to_density_matrix(random_xstate(rng, slot="corner"))
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        ok &= bool(
            np.allclose(
                evolve_kraus(evolve_kraus(m, t1), t2),
                evolve_kraus(m, t1 + t2),
                atol=1e-13,
            )
        )

    for _ in range(300):  # negativity = 0 iff concurrence = 0
        m = random_density_matrix(rng)
        ok &= (negativity(m) <= 1e-10) == (concurrence(m) <= 1e-10)
    for _ in range(200):
        s = random_xstate(rng, slot="inner" if rng.uniform() < 0.5 else "corner")
        m = to_density_matrix(s)
        ok &= (negativity(m) <= 1e-10) == (concurrence(m) <= 1e-10)

    assert report(10, bool(ok))
