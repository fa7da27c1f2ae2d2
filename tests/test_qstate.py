import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import esdsim
from esdsim import UnsupportedShapeError, XState
from esdsim.qstate import (
    _XSTATE_ATOL,
    check_coefficients,
    concurrence,
    negativity,
    negativity_xstate,
    partial_transpose,
    to_density_matrix,
    validate_density_matrix,
    von_neumann_entropy,
    xstate_measures,
)

from conftest import outcome, random_density_matrix, random_unitary2, random_xstate

CANONICAL = XState(1.0, 1.0, 1.0, 0.0, z_inner=1.0)
BELL_INNER = XState(0.0, 1.5, 1.5, 0.0, z_inner=1.5)  # (|+-> + |-+>)/sqrt(2)


@st.composite
def xstates(draw, slot="inner"):
    raw = [draw(st.floats(1e-3, 1.0)) for _ in range(4)]
    total = sum(raw)
    a, b, c, d = (3.0 * w / total for w in raw)
    frac = draw(st.floats(-1.0, 1.0))
    if slot == "inner":
        return XState(a, b, c, d, z_inner=frac * math.sqrt(b * c))
    return XState(a, b, c, d, z_corner=frac * math.sqrt(a * d))


# -- XState validation ------------------------------------------------------

def test_xstate_rejects_bad_occupation_sum():
    with pytest.raises(ValueError, match="sum to 3"):
        XState(1.0, 1.0, 1.0, 1.0)


def test_xstate_rejects_negative_occupation():
    with pytest.raises(ValueError, match="non-negative"):
        XState(-0.5, 1.5, 1.0, 1.0)


def test_xstate_rejects_oversized_inner_coherence():
    with pytest.raises(ValueError, match="z_inner"):
        XState(1.0, 1.0, 1.0, 0.0, z_inner=1.2)


def test_xstate_rejects_oversized_corner_coherence():
    with pytest.raises(ValueError, match="z_corner"):
        XState(1.0, 1.0, 0.5, 0.5, z_corner=1.0)


def test_xstate_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        XState(math.nan, 1.0, 1.0, 1.0)


def loop_checked_xstate(a, b, c, d, z_inner=0.0, z_corner=0.0, one_slot=True):
    """The field checks as loops over the field names: the reference.  Past
    the finiteness loop they decide in floats, squaring as products.  With
    ``one_slot``, the rule an ``XState`` adds to ``check_coefficients``: at
    most one coherence slot active."""
    self = SimpleNamespace(a=a, b=b, c=c, d=d, z_inner=z_inner, z_corner=z_corner)
    for name in ("a", "b", "c", "d", "z_inner", "z_corner"):
        value = getattr(self, name)
        # An int from 2**1024 - 2**970 up rounds past the largest float.
        if not (abs(value) < 2**1024 - 2**970 and math.isfinite(value)):
            raise ValueError(f"XState.{name} must be finite, got {value!r}")
    for name in ("a", "b", "c", "d", "z_inner", "z_corner"):
        setattr(self, name, float(getattr(self, name)))
    for name in ("a", "b", "c", "d"):
        value = getattr(self, name)
        if value < -_XSTATE_ATOL:
            raise ValueError(f"XState.{name} must be non-negative, got {value!r}")
    total = self.a + self.b + self.c + self.d
    if abs(total - 3.0) > 3e-12:
        raise ValueError(f"XState occupations must sum to 3, got {total!r}")
    inner_square, corner_square = self.z_inner * self.z_inner, self.z_corner * self.z_corner
    if inner_square > self.b * self.c + _XSTATE_ATOL:
        raise ValueError(
            f"XState positivity violated: z_inner^2 = {inner_square!r} "
            f"exceeds b*c = {self.b * self.c!r}"
        )
    if corner_square > self.a * self.d + _XSTATE_ATOL:
        raise ValueError(
            f"XState positivity violated: z_corner^2 = {corner_square!r} "
            f"exceeds a*d = {self.a * self.d!r}"
        )
    if one_slot and self.z_inner != 0.0 and self.z_corner != 0.0:
        raise UnsupportedShapeError(
            f"XState needs at most one active coherence slot, got "
            f"z_inner = {self.z_inner!r} and z_corner = {self.z_corner!r}"
        )


def nudged(draw, x):
    """x moved by a few ulps, either way; an int is left as it is."""
    if isinstance(x, int):
        return x
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


# Where the checks turn: not finite, just past -atol, sums 3e-12 off; and
# where a one-pass test can go wrong: ints beyond float range, alone or
# cancelling, an int in range whose sum overflows, and floats whose sum or
# square overflows.
EDGES = (math.nan, math.inf, -math.inf, -_XSTATE_ATOL, 0.0, -0.0, 3.0, 1e308,
         1e200, 10**308, 10**400, -10**400)


@st.composite
def xstate_fields(draw):
    """Six coefficients at the edges of every check, one check at a time or
    several: occupations whose sum is 3e-12 off, coherences with z**2 at
    b*c or a*d, +-atol, and up to two fields swapped for the edge values,
    ints beyond float range among them."""
    a, b, c = (draw(st.floats(0.0, 1.0)) for _ in range(3))
    d = nudged(draw, 3.0 - a - b - c + draw(st.sampled_from((0.0, 3e-12, -3e-12))))
    fields = [a, b, c, d, 0.0, 0.0]
    for slot, (p, q) in ((4, (b, c)), (5, (a, d))):
        if draw(st.booleans()):
            edge = p * q + draw(st.sampled_from((0.0, _XSTATE_ATOL, -_XSTATE_ATOL)))
            fields[slot] = draw(st.sampled_from((1.0, -1.0))) * nudged(
                draw, math.sqrt(max(edge, 0.0)))
    for i in draw(st.sets(st.integers(0, 5), max_size=2)):
        fields[i] = nudged(draw, draw(st.sampled_from(EDGES) | st.floats(-4.0, 4.0)))
    return fields


@given(xstate_fields())
@example([1.0, 1.0, 1.0, 0.0, 10**400, 0.0])  # an int no float holds
@example([1.0, math.nan, 10**400, 0.0, 0.0, 0.0])  # the NaN is named first
@example([10**400, -10**400, 1.0, 2.0, 0.0, 0.0])  # a sum that cancels
@example([1.0, 1.0, 1.0, 0.0, 10**400, -10**400])
@example([1e308, 1e308, 1.0, 0.0, 0.0, 0.0])  # a float sum that overflows
@example([10**308, 10**308, 0, 0, 0.0, 0.0])  # an int sum past float range
@example([1.0, 1.0, 1.0, 0.0, 1e200, 0.0])  # a float square that overflows
@example([1.0, 1.0, 1.0, 0.0, 1e308, math.nan])  # z_inner squared is inf, then a NaN
# z * z is b*c + atol to the bit (and z**2, pow's square, one ulp above it):
# at the bound, so accepted by the checks and the reference alike.
@example([0.0, 1.0, 0.7739271793452859, 1.2260728206547142, 0.8797313108820703, 0.0])
def test_xstate_checks_are_the_loops(fields):
    # The one-pass test and the ordered checks behind it, on a state or on
    # a tuple, accept exactly what the field-name loops accept and reject
    # the rest with the same exception and message, a ValueError and never
    # an OverflowError; a tuple that passes comes back as it went in.  A
    # state refuses two active coherence slots besides; a tuple need not,
    # as a flow or a switch keeps one slot one.
    state = outcome(XState, *fields)
    assert state == outcome(loop_checked_xstate, *fields)
    expected = outcome(loop_checked_xstate, *fields, False)
    assert outcome(check_coefficients, *fields) == expected
    assert OverflowError not in (state[0], expected[0])  # "ok"[0] is "o"
    if expected == "ok":
        assert check_coefficients(*fields) == tuple(fields)


def test_the_accept_test_bounds_are_the_tolerance():
    # check_coefficients' one-pass test writes _XSTATE_ATOL, and three of
    # it for the sum, as literals.
    assert _XSTATE_ATOL == 1e-12


def test_the_package_squares_only_as_products():
    # One squaring rule, z * z: correctly rounded, where z ** 2 on a float
    # calls pow, which may be one ulp off.  The encoder's powers of 10 and
    # of 2 are no squares.
    squares = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(esdsim.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant) and node.right.value == 2
    ]
    assert squares == []


# -- density matrix construction -------------------------------------------

def test_density_matrix_entries_canonical():
    m = to_density_matrix(CANONICAL)
    third = 1.0 / 3.0
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 2] = third
    expected[1, 2] = expected[2, 1] = third
    assert np.array_equal(m, expected)


def test_density_matrix_bell_is_rank_one_projector():
    m = to_density_matrix(BELL_INNER)
    assert np.allclose(m @ m, m, atol=1e-15)
    assert math.isclose(m.trace(), 1.0, abs_tol=1e-15)


@given(xstates())
def test_density_matrix_is_valid(state):
    validate_density_matrix(to_density_matrix(state))


def test_validate_rejects_non_hermitian():
    m = np.eye(4) / 4.0
    m[0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(m)


def test_validate_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(4))


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(ValueError, match="eigenvalue"):
        validate_density_matrix(m)


# -- partial transpose ------------------------------------------------------

def test_partial_transpose_swaps_coherence_slots():
    m = to_density_matrix(CANONICAL)
    pt = partial_transpose(m)
    assert pt[0, 3] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pt[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(np.diag(pt), np.diag(m))


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_density_matrix(rng)
        assert np.allclose(partial_transpose(partial_transpose(m)), m, atol=1e-15)


# -- eigenvalues ------------------------------------------------------------

def test_eigenvalues_match_block_oracle():
    # X-form Hermitian matrices diagonalize blockwise; each 2x2 block
    # [[p, q], [q, r]] has eigenvalues (p+r)/2 +- sqrt(((p-r)/2)**2 + q**2).
    rng = np.random.default_rng(3)
    for _ in range(200):
        p1, r1, p2, r2 = rng.uniform(-2, 2, size=4)
        q1, q2 = rng.uniform(-2, 2, size=2)
        m = np.zeros((4, 4))
        m[0, 0], m[3, 3], m[0, 3], m[3, 0] = p1, r1, q1, q1
        m[1, 1], m[2, 2], m[1, 2], m[2, 1] = p2, r2, q2, q2
        expected = []
        for p, r, q in ((p1, r1, q1), (p2, r2, q2)):
            h = math.hypot((p - r) / 2.0, q)
            expected += [(p + r) / 2.0 - h, (p + r) / 2.0 + h]
        assert np.allclose(np.linalg.eigvalsh(m), sorted(expected), atol=1e-12)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        negativity(np.triu(np.ones((4, 4))))


def test_eigendecomposition_reconstructs_matrix():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = random_density_matrix(rng)
        lam = np.linalg.eigvalsh(m)
        assert math.isclose(sum(lam), m.trace().real, abs_tol=1e-10)
        w, v = np.linalg.eigh(m)
        assert np.allclose(w, lam, atol=1e-12)
        assert np.abs(m - (v * w) @ v.conj().T).max() <= 1e-10
        for lam_i, vec in zip(w, v.T):
            assert np.linalg.norm(m @ vec - lam_i * vec) <= 1e-10


def test_partial_transpose_of_canonical_has_known_negative_eigenvalue():
    pt = partial_transpose(to_density_matrix(CANONICAL))
    lam = np.linalg.eigvalsh(pt)
    assert lam[0] == pytest.approx((1.0 - math.sqrt(5.0)) / 6.0, abs=1e-12)


# -- negativity -------------------------------------------------------------

def test_negativity_bell_state_is_half():
    assert negativity(to_density_matrix(BELL_INNER)) == pytest.approx(0.5, abs=1e-15)


def test_negativity_product_state_is_zero():
    assert negativity(np.diag([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_negativity_canonical_initial_value():
    expected = (math.sqrt(5.0) - 1.0) / 6.0
    assert negativity(to_density_matrix(CANONICAL)) == pytest.approx(expected, abs=1e-12)
    assert negativity_xstate(CANONICAL) == pytest.approx(expected, abs=1e-12)


@given(xstates())
def test_negativity_closed_form_matches_matrix_inner(state):
    assert negativity_xstate(state) == pytest.approx(
        negativity(to_density_matrix(state)), abs=1e-12
    )


@given(xstates(slot="corner"))
def test_negativity_closed_form_matches_matrix_corner(state):
    assert negativity_xstate(state) == pytest.approx(
        negativity(to_density_matrix(state)), abs=1e-12
    )


def test_negativity_closed_form_rejects_two_active_slots():
    # The closed form takes one active coherence slot: a state with two is
    # refused when it is built, and an array element with two by the
    # measures themselves.
    with pytest.raises(UnsupportedShapeError, match=r"^XState needs at most one active"):
        XState(0.75, 0.75, 0.75, 0.75, z_inner=0.3, z_corner=0.3)
    with pytest.raises(UnsupportedShapeError, match="at most one active coherence slot"):
        xstate_measures(0.75, 0.75, 0.75, 0.75, [0.3, 0.0], [0.3, 0.3])


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = random_density_matrix(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        assert abs(negativity(u @ m @ u.conj().T) - negativity(m)) <= 1e-12


# -- concurrence ------------------------------------------------------------

def test_concurrence_bell_state_is_one():
    assert concurrence(to_density_matrix(BELL_INNER)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state_is_zero():
    assert concurrence(np.diag([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_canonical_is_two_thirds():
    assert concurrence(to_density_matrix(CANONICAL)) == pytest.approx(
        2.0 / 3.0, abs=1e-12
    )


def test_concurrence_matches_sqrt_construction():
    # Independent route: sqrt(rho) via its eigensystem, then the singular
    # values of sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho).
    rng = np.random.default_rng(31)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    for _ in range(100):
        m = random_density_matrix(rng)
        w, v = np.linalg.eigh(m)
        sqrt_m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        inner = sqrt_m @ yy @ m.conj() @ yy @ sqrt_m
        lam = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None))[::-1]
        expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert concurrence(m) == pytest.approx(expected, abs=1e-10)


def test_concurrence_keeps_its_digits_at_the_positivity_edge():
    # At z**2 = b*c (or a*d) an eigenvalue of m @ flipped is zero, and a
    # square root taken of its round-off read as ~3e-9.  The singular values
    # of W.T @ yy @ W, m = W @ W^dagger, keep the closed form's digits.
    rng = np.random.default_rng(53)
    for _ in range(200):
        a, b, c, d = 3.0 * rng.dirichlet(np.ones(4))
        d = 3.0 - a - b - c
        sign = rng.choice([-1.0, 1.0])
        for slots in ((sign * math.sqrt(b * c), 0.0), (0.0, sign * math.sqrt(a * d))):
            state = XState(a, b, c, d, *slots)
            expected = xstate_measures(*state._coefficients)[1]
            assert abs(concurrence(to_density_matrix(state)) - expected) <= 1e-15, state


def test_concurrence_keeps_its_digits_beside_a_tiny_occupation():
    # An occupation of 1e-18 to 1e-10 under the root the closed form
    # subtracts, sqrt(b*c) beside z_corner or sqrt(a*d) beside z_inner: an
    # eigenvalue of m within round-off of 0 cost the eigensolver route up
    # to 1e-8.  The pivoted factor takes the occupation's own root.  The
    # coherence stays clear of 0, where the concurrence would be clamped.
    rng = np.random.default_rng(59)
    for _ in range(200):
        tiny = 10.0 ** rng.uniform(-18.0, -10.0)
        z = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
        p, q, r = (3.0 - tiny) * rng.dirichlet(np.ones(3))
        r = 3.0 - tiny - p - q
        for state in (XState(p, tiny, q, r, z_corner=z * math.sqrt(p * r)),
                      XState(tiny, p, q, r, z_inner=z * math.sqrt(p * q))):
            expected = xstate_measures(*state._coefficients)[1]
            assert abs(concurrence(to_density_matrix(state)) - expected) <= 1e-15, state


def test_concurrence_of_pure_states_is_the_overlap_with_their_flip():
    # For a pure state |v>, the concurrence is |<v| yy |v*>| (Wootters); its
    # density matrix has rank 1, so three pivots of the factor are round-off.
    rng = np.random.default_rng(61)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    for _ in range(200):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        expected = abs(v.conj() @ yy @ v.conj())
        assert abs(concurrence(np.outer(v, v.conj())) - expected) <= 1e-15, v


def test_negativity_zero_iff_concurrence_zero():
    rng = np.random.default_rng(41)
    for _ in range(300):
        m = random_density_matrix(rng)
        assert (negativity(m) <= 1e-10) == (concurrence(m) <= 1e-10)
    for _ in range(300):
        state = random_xstate(rng, slot=rng.choice(["inner", "corner"]))
        m = to_density_matrix(state)
        assert (negativity(m) <= 1e-10) == (concurrence(m) <= 1e-10)


@st.composite
def xstates_below_zero(draw):
    """Accepted states with one occupation in [-atol, 0), the other three
    summing to 3 less it, and a coherence in either slot."""
    low = draw(st.floats(-_XSTATE_ATOL, 0.0, exclude_max=True))
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    weights[0] += 1e-3
    occupations = [(3.0 - low) * w / sum(weights) for w in weights]
    occupations.insert(draw(st.integers(0, 3)), low)
    a, b, c, d = occupations
    z = draw(st.floats(-1.0, 1.0))
    slots = ((z * math.sqrt(max(b * c, 0.0)), 0.0), (0.0, z * math.sqrt(max(a * d, 0.0))))
    fields = (*occupations, *draw(st.sampled_from(slots)))
    assume(outcome(check_coefficients, *fields) == "ok")
    return XState(*fields)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(xstates_below_zero())
@example(XState(0.0, 1.5, 1.5, 0.0, z_inner=1e-170))
@example(XState(1.5, 0.0, 0.0, 1.5, z_corner=-1e-170))
def test_measures_at_the_occupation_edges_are_numbers(state):
    # sqrt(a d) and sqrt(b c) may be asked of a product a round-off below
    # 0; it reads as 0.  The negativity's quotient is 0/0 where z**2
    # underflows beside two zero occupations, or beside one a round-off
    # below 0; it reads as 0.  So no measure is NaN, and the concurrence
    # is the matrix route's.
    measures = xstate_measures(*state._coefficients)
    assert not any(np.isnan(m) for m in measures), (state, measures)
    assert measures[1] == pytest.approx(concurrence(to_density_matrix(state)), abs=1e-7)


def two_term_concurrence(a, b, c, d, z_inner, z_corner):
    """Yu and Eberly's concurrence with a term per coherence, as the measures
    took it while a state could hold both."""
    return (2.0 / 3.0) * np.maximum(0.0, np.maximum(
        np.abs(z_inner) - np.sqrt(np.maximum(a * d, 0.0)),
        np.abs(z_corner) - np.sqrt(np.maximum(b * c, 0.0)),
    ))


def edge_rows(rng, n):
    """n one-slot coefficient rows at the edges: occupations exactly 0, a
    round-off below it, subnormal, tiny or of order 1, and a coherence of 0,
    subnormal, on either block's edge (z**2 = b*c or a*d) or inside it."""
    pick = rng.integers(0, 5, (4, n))
    occupations = np.choose(pick, [
        np.zeros(n), -1e-13 * rng.random(n), 5e-324 * rng.integers(1, 1000, n),
        1e-300 * rng.random(n), 3.0 * rng.random(n)])
    a, b, c, d = occupations
    inner = rng.random(n) < 0.5
    edge = np.sqrt(np.maximum(np.where(inner, b * c, a * d), 0.0))
    other = np.sqrt(np.maximum(np.where(inner, a * d, b * c), 0.0))
    z = rng.choice([-1.0, 1.0], n) * np.choose(rng.integers(0, 5, n), [
        np.zeros(n), 5e-324 * rng.integers(1, 1000, n), edge, other, rng.random(n) * edge])
    return a, b, c, d, np.where(inner, z, 0.0), np.where(inner, 0.0, z)


def test_concurrence_from_one_block_is_the_two_term_form_bit_for_bit():
    # On a one-slot state the inactive coherence's term, -sqrt of the other
    # block's product, is never positive, so the concurrence from the block
    # the negativity reads gives the two-term form's bits.
    rows = edge_rows(np.random.default_rng(29), 200_000)
    with np.errstate(all="ignore"):
        expected = two_term_concurrence(*rows)
        got = xstate_measures(*rows)[1]
    assert got.tobytes() == expected.tobytes()
    assert (expected > 0.0).sum() > 10_000 and (expected == 0.0).sum() > 10_000
    for state in (CANONICAL, BELL_INNER, XState(1.5, 0.0, 0.0, 1.5, z_corner=-1e-170),
                  XState(1.0, 0.25, 0.75, 1.0, z_corner=1.0)):
        fields = state._coefficients
        assert xstate_measures(*fields)[1].tobytes() == two_term_concurrence(*fields).tobytes()


# -- entropy ----------------------------------------------------------------

def test_entropy_of_pure_state_is_zero():
    assert von_neumann_entropy(to_density_matrix(BELL_INNER)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_entropy_of_a_fully_decayed_state_is_positive_zero():
    # The ground state (d = 3), the state evolve reaches by tau = 800 with
    # subnormal leftovers, and a pure Bell state: each spectrum is {1, 0, 0,
    # 0}, so the entropy is +0, which the CLI writes without a minus sign.
    tiny = 5e-324
    states = [(0.0, 0.0, 0.0, 3.0, 0.0, 0.0), (0.0, tiny, tiny, 3.0, tiny, 0.0),
              (0.0, 1.5, 1.5, 0.0, 1.5, 0.0)]
    _, _, entropy = xstate_measures(*np.array(states).T)
    assert entropy.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(entropy).any()


def test_entropy_of_maximally_mixed_is_ln4():
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(
        math.log(4.0), abs=1e-12
    )


def test_entropy_canonical_initial_value():
    expected = math.log(3.0) - math.log(4.0) / 3.0
    assert von_neumann_entropy(to_density_matrix(CANONICAL)) == pytest.approx(
        expected, abs=1e-12
    )
