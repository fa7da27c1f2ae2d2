import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esdsim import Schedule, Switch, SwitchEvent, XState, apply_xstate
from esdsim.intervention import apply_unitary, switch_coefficients
from esdsim.qstate import concurrence, negativity, to_density_matrix

from conftest import outcome, random_density_matrix, random_unitary2, random_xstate

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_switch_matrices():
    # Where each named flip sends each basis projector |k><k|, k indexing
    # (|++>, |+->, |-+>, |-->): flipping both reverses the order, Alice's
    # flip exchanges her level and Bob's his.
    images = {Switch.BOTH: (3, 2, 1, 0), Switch.ALICE: (2, 3, 0, 1), Switch.BOB: (1, 0, 3, 2)}
    basis = np.eye(4)
    for op, image in images.items():
        for k, j in enumerate(image):
            projector = np.outer(basis[k], basis[k])
            assert np.array_equal(apply_unitary(projector, op), np.outer(basis[j], basis[j]))


def test_swap_both_reverses_occupations():
    s = XState(0.3, 0.7, 1.1, 0.9, z_inner=0.5)
    out = apply_xstate(s, Switch.BOTH)
    assert (out.a, out.b, out.c, out.d) == (s.d, s.c, s.b, s.a)
    assert (out.z_inner, out.z_corner) == (s.z_inner, s.z_corner)


def test_single_swaps_exchange_coherence_slots():
    s = XState(0.3, 0.7, 1.1, 0.9, z_inner=0.5)
    alice = apply_xstate(s, Switch.ALICE)
    assert (alice.a, alice.b, alice.c, alice.d) == (s.c, s.d, s.a, s.b)
    assert (alice.z_inner, alice.z_corner) == (s.z_corner, s.z_inner)
    bob = apply_xstate(s, Switch.BOB)
    assert (bob.a, bob.b, bob.c, bob.d) == (s.b, s.a, s.d, s.c)
    assert (bob.z_inner, bob.z_corner) == (s.z_corner, s.z_inner)


@pytest.mark.parametrize("kind", list(Switch))
def test_swaps_are_involutions(kind):
    rng = np.random.default_rng(43)
    for _ in range(50):
        s = random_xstate(rng, slot="inner")
        assert apply_xstate(apply_xstate(s, kind), kind) == s


def test_alice_then_bob_equals_both():
    rng = np.random.default_rng(47)
    for _ in range(50):
        s = random_xstate(rng, slot="corner")
        via_singles = apply_xstate(apply_xstate(s, Switch.ALICE), Switch.BOB)
        assert via_singles == apply_xstate(s, Switch.BOTH)


@pytest.mark.parametrize("kind", list(Switch))
def test_coefficient_swap_matches_matrix_conjugation(kind):
    rng = np.random.default_rng(53)
    for _ in range(50):
        slot = "inner" if rng.uniform() < 0.5 else "corner"
        s = random_xstate(rng, slot=slot)
        fast = to_density_matrix(apply_xstate(s, kind))
        slow = apply_unitary(to_density_matrix(s), kind)
        assert np.max(np.abs(fast - slow)) <= 1e-15


def test_apply_unitary_preserves_entanglement_measures():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = random_density_matrix(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        rotated = u @ m @ u.conj().T
        assert negativity(rotated) == pytest.approx(negativity(m), abs=1e-12)
        assert concurrence(rotated) == pytest.approx(concurrence(m), abs=1e-10)


def test_apply_unitary_validates_input():
    with pytest.raises(ValueError, match="trace"):
        apply_unitary(np.eye(4), Switch.BOTH)


def test_apply_xstate_rejects_general_unitary():
    op = np.kron(PAULI_X, np.eye(2))  # Alice's flip, as a matrix
    with pytest.raises(TypeError):
        apply_xstate(XState(3.0, 0.0, 0.0, 0.0), op)


def test_switch_coefficients_take_named_switches_only():
    # The permutation is looked up by the switch's value, after the type
    # check: a value string, or anything else carrying one, is refused.
    coefficients = (0.5, 1.0, 0.75, 0.75, 0.5, 0.0)
    assert switch_coefficients(Switch.ALICE, coefficients) == (0.75, 0.75, 0.5, 1.0, 0.0, 0.5)
    impostor = types.SimpleNamespace(_value_="both")
    for op in ("both", impostor, None, np.eye(4)):
        with pytest.raises(TypeError, match="named Switch"):
            switch_coefficients(op, coefficients)


def test_switch_matrices_take_named_switches_only():
    # The matrix route knows the three named switches and nothing else.
    m = to_density_matrix(XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0))
    for op in ("alice", types.SimpleNamespace(_value_="alice"), None, np.eye(4)):
        with pytest.raises(TypeError, match="named Switch"):
            apply_unitary(m, op)


def test_switch_event_rejects_negative_time():
    with pytest.raises(ValueError, match="tau"):
        SwitchEvent(-0.1, Switch.BOTH)


def test_switch_event_rejects_non_unitary_op():
    with pytest.raises(TypeError):
        SwitchEvent(0.1, "both")


def test_schedule_requires_strictly_increasing_times():
    with pytest.raises(ValueError, match="strictly increase"):
        Schedule((SwitchEvent(0.2, Switch.BOTH), SwitchEvent(0.2, Switch.ALICE)))


@pytest.mark.parametrize("events, index", [
    (((0.1, Switch.BOTH),), 0),
    ((0.1,), 0),
    ((SwitchEvent(0.1, Switch.BOTH), Switch.ALICE), 1),
    ([SwitchEvent(0.1, Switch.BOTH), None], 1),
], ids=["a_pair", "a_time", "a_switch", "none_in_a_list"])
def test_schedule_rejects_entries_that_are_not_switch_events(events, index):
    # At construction, not later as an AttributeError inside find_end_time.
    message = rf"^Schedule\.events\[{index}\] must be a SwitchEvent, got "
    with pytest.raises(TypeError, match=message):
        Schedule(events)


def test_schedule_single_helper():
    schedule = Schedule.single(0.25, Switch.BOB)
    assert len(schedule.events) == 1
    assert schedule.events[0] == SwitchEvent(0.25, Switch.BOB)


def test_schedule_accepts_list_input():
    events = [SwitchEvent(0.1, Switch.BOTH), SwitchEvent(0.4, Switch.ALICE)]
    assert Schedule(events).events == tuple(events)


def reference_switch_event(tau, op):
    """SwitchEvent's checks as first written: the reference."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"SwitchEvent.tau must be >= 0, got {tau!r}")
    if not isinstance(op, Switch):
        raise TypeError(f"SwitchEvent.op must be a named Switch, got {op!r}")


def reference_schedule(events=()):
    """Schedule's checks as first written, after the check that each entry
    is a SwitchEvent: the reference."""
    events = tuple(events)
    for index, event in enumerate(events):
        if not isinstance(event, SwitchEvent):
            raise TypeError(f"Schedule.events[{index}] must be a SwitchEvent, got {event!r}")
    for earlier, later in zip(events, events[1:]):
        if not later.tau > earlier.tau:
            raise ValueError(
                f"schedule times must strictly increase, got "
                f"{earlier.tau!r} then {later.tau!r}"
            )


TAUS = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, -5e-324, 5e-324, 0.2)) | (
    st.floats(-1.0, 2.0))


@given(TAUS, st.sampled_from(list(Switch)) | st.sampled_from(("both", None, 1)))
def test_switch_event_checks_are_the_reference(tau, op):
    assert outcome(SwitchEvent, tau, op) == outcome(reference_switch_event, tau, op)


@given(st.lists(st.sampled_from((0.0, 5e-324, 0.1, 0.2, 0.3)) | st.floats(0.0, 1.0)
                | st.sampled_from(((0.1, Switch.BOTH), None, "both")), max_size=4),
       st.booleans())
def test_schedule_checks_are_the_reference(taus, as_list):
    # Times equal, falling or rising, and entries that are not events, as a
    # tuple or a list.
    events = [SwitchEvent(tau, Switch.BOTH) if isinstance(tau, float) else tau
              for tau in taus]
    events = events if as_list else tuple(events)
    result = outcome(Schedule, events)
    assert result == outcome(reference_schedule, events)
    if result == "ok":
        assert Schedule(events).events == tuple(events)
