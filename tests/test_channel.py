import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esdsim import Schedule, XState, evolve_xstate_closed, state_at
from esdsim.channel import evolve_kraus
from esdsim.qstate import to_density_matrix, validate_density_matrix

from conftest import random_density_matrix, random_xstate

CANONICAL = XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0)


def test_gamma_factor_values():
    # The survival factor gamma = exp(-tau/2), as evolve_kraus applies it:
    # nothing moves at tau = 0; at tau = ln 4, gamma = 1/2, so |++> keeps
    # gamma**4, feeds gamma**2 (1 - gamma**2) to each singly excited level
    # and (1 - gamma**2)**2 to |-->, and the inner coherence keeps gamma**2.
    m = to_density_matrix(CANONICAL)
    assert np.array_equal(evolve_kraus(m, 0.0), m)
    excited = evolve_kraus(np.diag([1.0, 0.0, 0.0, 0.0]), math.log(4.0))
    assert np.allclose(excited, np.diag([1.0, 3.0, 3.0, 9.0]) / 16.0, rtol=0.0, atol=1e-15)
    assert evolve_kraus(m, math.log(4.0))[1, 2] == pytest.approx(m[1, 2] / 4.0, abs=1e-15)


@pytest.mark.parametrize("tau", [-1e-9, math.inf, math.nan])
def test_gamma_factor_rejects_bad_tau(tau):
    with pytest.raises(ValueError, match=r"^tau must be finite and non-negative, got "):
        evolve_kraus(to_density_matrix(CANONICAL), tau)


def test_an_int_beyond_float_range_is_not_a_finite_tau():
    # Each of these raised a bare OverflowError: int too large to convert to float.
    refused = r"^tau must be finite and non-negative, got -?1000"
    for huge in (10**400, -(10**400)):
        for query in (lambda: evolve_kraus(to_density_matrix(CANONICAL), huge),
                      lambda: evolve_xstate_closed(CANONICAL, huge),
                      lambda: state_at(CANONICAL, Schedule(), huge)):
            with pytest.raises(ValueError, match=refused):
                query()


@pytest.mark.parametrize("tau", [np.float32(0.2), Decimal("0.2"), Fraction(1, 5), 10**19],
                         ids=repr)
def test_a_tau_of_any_real_type_is_taken_as_its_float(tau):
    # evolve_xstate_closed flowed a float32 tau in float32, and sent a
    # Fraction or an int past int64 to np.exp as an object, which raised
    # numpy's bare TypeError; evolve_kraus raised TypeError on a Decimal.
    assert repr(evolve_xstate_closed(CANONICAL, tau)) == repr(
        evolve_xstate_closed(CANONICAL, float(tau)))
    m = to_density_matrix(CANONICAL)
    assert evolve_kraus(m, tau).tobytes() == evolve_kraus(m, float(tau)).tobytes()


def test_kraus_pair_is_trace_preserving():
    # At gamma = 1, 0.7, 0.2, 1e-6 and 0 (exp(-tau/2) underflows past tau
    # ~ 1490), a density matrix stays one: its trace is 1 to round-off.
    rng = np.random.default_rng(13)
    for tau in (0.0, -2.0 * math.log(0.7), -2.0 * math.log(0.2), -2.0 * math.log(1e-6),
                2000.0):
        for _ in range(20):
            out = validate_density_matrix(evolve_kraus(random_density_matrix(rng), tau))
            assert abs(out.trace() - 1.0) <= 1e-15
    ground = np.diag([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(evolve_kraus(to_density_matrix(CANONICAL), 2000.0), ground)


def test_closed_form_occupations_at_half_life():
    # u = 1/2: the doubly excited level keeps 1/4 and feeds 1/4 to each
    # singly excited level.
    s = evolve_xstate_closed(CANONICAL, math.log(2.0))
    assert s.a == pytest.approx(0.25, abs=1e-15)
    assert s.b == pytest.approx(0.75, abs=1e-15)
    assert s.c == pytest.approx(0.75, abs=1e-15)
    assert s.d == pytest.approx(1.25, abs=1e-15)
    assert s.z_inner == pytest.approx(0.5, abs=1e-15)


def test_trace_completion_equals_literal_polynomial():
    # d(tau) written out: 3 - (b0 + c0 + 2 a0) u + a0 u**2.
    rng = np.random.default_rng(5)
    for _ in range(200):
        s0 = random_xstate(rng, slot="inner")
        tau = rng.uniform(0.0, 5.0)
        u = math.exp(-tau)
        literal = 3.0 - (s0.b + s0.c + 2.0 * s0.a) * u + s0.a * u * u
        assert evolve_xstate_closed(s0, tau).d == pytest.approx(literal, abs=1e-12)


def test_closed_form_matches_kraus_entrywise():
    rng = np.random.default_rng(17)
    for _ in range(500):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        s0 = random_xstate(rng, slot=slot)
        tau = rng.uniform(0.0, 8.0)
        closed = to_density_matrix(evolve_xstate_closed(s0, tau))
        kraus = evolve_kraus(to_density_matrix(s0), tau)
        assert np.max(np.abs(closed - kraus)) <= 1e-12


def test_kraus_semigroup_composition():
    rng = np.random.default_rng(19)
    for _ in range(100):
        m = to_density_matrix(random_xstate(rng, slot="corner"))
        t1, t2 = rng.uniform(0.0, 3.0, size=2)
        two_step = evolve_kraus(evolve_kraus(m, t1), t2)
        one_step = evolve_kraus(m, t1 + t2)
        assert np.allclose(two_step, one_step, atol=1e-13)


def test_rate_equations_at_zero():
    # One-sided second-order stencil for d(rho)/d(tau) at tau = 0 against the
    # generator: occupations couple down the ladder, coherences relax at
    # unit rate, everything else stays zero.
    coupling = np.array(
        [
            [-2.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
        ]
    )
    rng = np.random.default_rng(29)
    h = 1e-6
    for _ in range(50):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        m = to_density_matrix(random_xstate(rng, slot=slot))
        stencil = (4.0 * evolve_kraus(m, h) - 3.0 * m - evolve_kraus(m, 2.0 * h)) / (
            2.0 * h
        )
        expected = np.zeros((4, 4), dtype=complex)
        np.fill_diagonal(expected, coupling @ np.diag(m).real)
        expected[1, 2], expected[2, 1] = -m[1, 2], -m[2, 1]
        expected[0, 3], expected[3, 0] = -m[0, 3], -m[3, 0]
        assert np.max(np.abs(stencil - expected)) <= 1e-6


def test_propagators_preserve_trace_and_positivity():
    rng = np.random.default_rng(37)
    for _ in range(100):
        s0 = random_xstate(rng, slot="inner")
        tau = rng.uniform(0.0, 10.0)
        for m in (
            to_density_matrix(evolve_xstate_closed(s0, tau)),
            evolve_kraus(to_density_matrix(s0), tau),
        ):
            validate_density_matrix(m)


def test_long_time_limit_is_double_ground_state():
    target = np.diag([0.0, 0.0, 0.0, 1.0])
    for s0 in (CANONICAL, XState(3.0, 0.0, 0.0, 0.0)):
        final = to_density_matrix(evolve_xstate_closed(s0, 60.0))
        assert np.max(np.abs(final - target)) <= 1e-8


@given(
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
)
def test_coherence_magnitude_never_grows(tau1, tau2):
    s1 = evolve_xstate_closed(CANONICAL, tau1)
    s2 = evolve_xstate_closed(CANONICAL, tau1 + tau2)
    assert abs(s2.z_inner) <= abs(s1.z_inner) + 1e-15
