"""Tests for adjoint determinants on the triangular algebras and the
SL_2 cone volumes (analytic formulas against Monte Carlo rejection)."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haar_digits import lie
from haar_digits.errors import ConsistencyError, DomainError
from haar_digits.lie import (
    ConeProblem,
    MCVolume,
    adjoint_det_on_l,
    adjoint_det_on_u,
    adjoint_product,
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
    sl2_cone_induced_cdf,
    sl2_cone_membership,
    sl2_cone_volume,
    sl2_cone_volume_mc,
)
from haar_digits.rng import RngStream


# --- adjoint determinants -----------------------------------------------------


def test_adjoint_dets_identity_diagonal():
    d = np.ones(3)
    assert adjoint_det_on_u(d) == pytest.approx(1.0, rel=1e-12)
    assert adjoint_det_on_l(d) == pytest.approx(1.0, rel=1e-12)


def test_adjoint_dets_n2_closed_form():
    d = np.array([2.0, 0.5])
    # Upper triangle: single basis element E_12 scaled by d_2/d_1.
    assert adjoint_det_on_u(d) == pytest.approx(0.25, rel=1e-12)
    assert adjoint_det_on_l(d) == pytest.approx(4.0, rel=1e-12)
    # Any unit-upper u leaves both values unchanged.
    u = np.array([[1.0, 3.0], [0.0, 1.0]])
    assert adjoint_det_on_u(d, u) == pytest.approx(0.25, rel=1e-12)
    assert adjoint_det_on_l(d, u) == pytest.approx(4.0, rel=1e-12)


def test_adjoint_dets_n3_closed_form():
    d = np.array([2.0, 3.0, 5.0])
    # prod_{i<j} d_j/d_i = (3/2)(5/2)(5/3) = 6.25
    assert adjoint_det_on_u(d) == pytest.approx(6.25, rel=1e-12)
    assert adjoint_det_on_l(d) == pytest.approx(0.16, rel=1e-12)


def test_adjoint_dets_signed_diagonal():
    d = np.array([-2.0, 0.5])
    assert adjoint_det_on_u(d) == pytest.approx(-0.25, rel=1e-12)
    assert adjoint_det_on_l(d) == pytest.approx(-4.0, rel=1e-12)
    assert adjoint_product(d) == pytest.approx(1.0, rel=1e-12)


def _random_pair(stream, n):
    mags = np.exp(stream.uniform(-2.0, 2.0, n))
    signs = np.where(stream.random(n) < 0.5, -1.0, 1.0)
    d = mags * signs
    u = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            u[i, j] = stream.uniform(-3.0, 3.0)
    return d, u


def _solve_reference(d, u, lower):
    """det of the action matrix built one basis element at a time: column
    (i, j) is b^(-1) E_ij b, from np.linalg.solve, read at the basis positions
    ordered by distance from the diagonal."""
    n = d.size
    b = u * d[None, :]
    pairs = [(s + k, s) if lower else (s, s + k) for k in range(1, n) for s in range(n - k)]
    action = np.empty((len(pairs), len(pairs)))
    for col, (i, j) in enumerate(pairs):
        e = np.zeros((n, n))
        e[i, j] = 1.0
        m = np.linalg.solve(b, e @ b)
        action[:, col] = [m[p] for p in pairs]
    return float(np.linalg.det(action))


@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_dets_match_solve_reference(n, seed):
    d, u = _random_pair(RngStream(seed), n)
    assert adjoint_det_on_u(d, u) == pytest.approx(_solve_reference(d, u, False), rel=1e-12)
    assert adjoint_det_on_l(d, u) == pytest.approx(_solve_reference(d, u, True), rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_adjoint_stack_equals_single_calls(n):
    stream = RngStream(4000 + n)
    pairs = [_random_pair(stream, n) for _ in range(20)]
    d = np.stack([p[0] for p in pairs])
    u = np.stack([p[1] for p in pairs])
    for fn in (adjoint_det_on_u, adjoint_det_on_l, adjoint_product):
        stacked = fn(d, u)
        assert stacked.shape == (20,)
        single = [fn(dk, uk) for dk, uk in zip(d, u)]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(stacked, np.array(single))
        # One u (here the identity) is shared by a stack of diagonals.
        assert np.array_equal(fn(d), np.array([fn(dk) for dk in d]))


def test_adjoint_stack_validation():
    d = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 2.0]])  # a zero in row 1
    with pytest.raises(DomainError, match="nonzero"):
        adjoint_det_on_u(d)
    u = np.tile(np.eye(3), (2, 1, 1))
    u[1, 2, 0] = 0.5  # below the diagonal in the second u
    with pytest.raises(DomainError, match="upper triangular"):
        adjoint_det_on_l(np.ones((2, 3)), u)
    with pytest.raises(DomainError, match="differ in length"):
        adjoint_det_on_u(np.ones((3, 3)), np.tile(np.eye(3), (2, 1, 1)))
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.ones((2, 2, 3)))
    # An empty stack is m = 0 determinants, not an error.
    assert adjoint_det_on_u(np.ones((0, 3))).shape == (0,)
    assert adjoint_product(np.ones(3), np.zeros((0, 3, 3))).shape == (0,)


def test_adjoint_consistency_error_names_the_draw(monkeypatch):
    d = np.array([[2.0, 0.5], [1.0, 3.0]])
    monkeypatch.setattr(lie, "_REL_TOL", -1.0)
    for fn in (adjoint_det_on_u, adjoint_det_on_l):
        with pytest.raises(ConsistencyError, match="^draw 0: .*closed form"):
            fn(d)
    with pytest.raises(ConsistencyError, match="^draw 2: gap 2$"):
        lie._raise_first(np.array([False, False, True, True]), lambda k: f"gap {k}")
    lie._raise_first(np.zeros(3, dtype=bool), lambda k: "unreached")


@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_product_is_one(n, seed):
    d, u = _random_pair(RngStream(seed), n)
    assert abs(adjoint_product(d, u) - 1.0) < 1e-9


@given(n=st.integers(min_value=2, max_value=5), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_dets_do_not_depend_on_u(n, seed):
    d, u = _random_pair(RngStream(seed), n)
    base_u = adjoint_det_on_u(d)
    base_l = adjoint_det_on_l(d)
    assert adjoint_det_on_u(d, u) == pytest.approx(base_u, rel=1e-9)
    assert adjoint_det_on_l(d, u) == pytest.approx(base_l, rel=1e-9)


def test_adjoint_validation():
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, 0.0]))  # zero diagonal entry
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([2.0]))  # need >= 2 entries
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, 2.0]), u=np.eye(3))  # shape mismatch
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, 2.0]), u=np.array([[1.0, 0.0], [2.0, 1.0]]))
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, 2.0]), u=np.array([[2.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        adjoint_det_on_u(np.array([1.0, 2.0]), u=np.array([[1.0, np.inf], [0.0, 1.0]]))


# --- hyperbolic sector ----------------------------------------------------------


def test_hyperbolic_cone_area_values():
    assert hyperbolic_cone_area(1.0, math.e) == pytest.approx(1.0, rel=1e-15)
    assert hyperbolic_cone_area(0.5, 4.0) == pytest.approx(math.log(8.0), rel=1e-15)
    # Scale invariance: only the ratio matters.
    assert hyperbolic_cone_area(3.0, 6.0) == pytest.approx(math.log(2.0), rel=1e-15)


def test_hyperbolic_cone_area_validation():
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (1.0, math.inf)):
        with pytest.raises(DomainError):
            hyperbolic_cone_area(a, b)


def test_hyperbolic_cone_area_mc_agrees():
    vol = hyperbolic_cone_area_mc(0.5, 4.0, RngStream(6007), trials=200_000)
    exact = math.log(8.0)
    assert isinstance(vol, MCVolume)
    assert vol.trials == 200_000
    assert vol.estimate == pytest.approx(vol.box_volume * vol.accepted / vol.trials, rel=1e-12)
    assert abs(vol.estimate - exact) < 4.0 * vol.stderr
    assert abs(vol.estimate - exact) / exact < 0.02


def test_hyperbolic_cone_area_mc_deterministic_and_validated():
    a = hyperbolic_cone_area_mc(1.0, 2.0, RngStream(11), trials=5000)
    b = hyperbolic_cone_area_mc(1.0, 2.0, RngStream(11), trials=5000)
    assert a == b
    with pytest.raises(DomainError):
        hyperbolic_cone_area_mc(2.0, 1.0, RngStream(1), trials=10)
    with pytest.raises(DomainError):
        hyperbolic_cone_area_mc(1.0, 2.0, RngStream(1), trials=0)


# --- the SL_2 cone ---------------------------------------------------------------


def test_cone_problem_validation():
    assert ConeProblem(1.0).eps == 0.1
    assert ConeProblem(10.0, eps=1.0).x == 10.0
    with pytest.raises(DomainError):
        ConeProblem(0.5)
    with pytest.raises(DomainError):
        ConeProblem(10.0, eps=0.0)
    with pytest.raises(DomainError):
        ConeProblem(10.0, eps=1.5)
    with pytest.raises(DomainError):
        ConeProblem(math.inf)


def test_sl2_cone_volume_closed_form():
    assert sl2_cone_volume(ConeProblem(10.0, eps=0.1)) == pytest.approx(
        0.02 * math.log(10.0), rel=1e-15
    )
    assert sl2_cone_volume(ConeProblem(1.0, eps=0.3)) == 0.0
    # Log slope: volume(x^2)/volume(x) = 2 for any eps.
    v1 = sl2_cone_volume(ConeProblem(3.0, eps=0.7))
    v2 = sl2_cone_volume(ConeProblem(9.0, eps=0.7))
    assert v2 / v1 == pytest.approx(2.0, rel=1e-12)


def _cone_point(a, b, c, t):
    """g with normalized coordinates (a, b, c) at determinant slice t^2."""
    w = a * t
    p = b * t
    q = c * t
    z = (t + b * c * t) / a  # so that w z - p q = t^2
    return np.array([[w, p], [q, z]])


def test_sl2_cone_membership_hand_points():
    problem = ConeProblem(10.0, eps=0.1)
    inside = [
        _cone_point(1.0, 0.0, 0.0, 1.0),
        _cone_point(5.0, 0.05, -0.1, 0.5),
        _cone_point(10.0, -0.1, 0.1, 0.01),
    ]
    for g in inside:
        assert sl2_cone_membership(g, problem)
    outside = [
        _cone_point(10.5, 0.0, 0.0, 0.5),  # window edge exceeded
        _cone_point(0.9, 0.0, 0.0, 0.5),  # below the window
        _cone_point(5.0, 0.15, 0.0, 0.5),  # off-diagonal out of band
        _cone_point(5.0, 0.0, -0.12, 0.5),  # off-diagonal out of band
        _cone_point(5.0, 0.0, 0.0, 1.1),  # determinant > 1
        np.array([[1.0, 0.0], [0.0, -1.0]]),  # determinant < 0
        np.zeros((2, 2)),  # determinant = 0 excluded
    ]
    for g in outside:
        assert not sl2_cone_membership(g, problem)


def test_sl2_cone_membership_stacked_and_validated():
    problem = ConeProblem(10.0, eps=0.1)
    stack = np.stack([_cone_point(2.0, 0.0, 0.0, 0.5), np.zeros((2, 2))])
    mask = sl2_cone_membership(stack, problem)
    assert mask.tolist() == [True, False]
    with pytest.raises(DomainError):
        sl2_cone_membership(np.zeros((3, 3)), problem)


def test_sl2_cone_volume_mc_agrees():
    problem = ConeProblem(10.0, eps=0.1)
    vol = sl2_cone_volume_mc(problem, RngStream(6011), trials=400_000)
    exact = sl2_cone_volume(problem)
    assert vol.estimate == pytest.approx(vol.box_volume * vol.accepted / vol.trials, rel=1e-12)
    assert abs(vol.estimate - exact) < 4.0 * vol.stderr
    assert abs(vol.estimate - exact) / exact < 0.02


def test_sl2_cone_volume_mc_deterministic_and_validated():
    problem = ConeProblem(4.0, eps=0.5)
    a = sl2_cone_volume_mc(problem, RngStream(29), trials=10_000)
    b = sl2_cone_volume_mc(problem, RngStream(29), trials=10_000)
    assert a == b
    with pytest.raises(DomainError):
        sl2_cone_volume_mc(problem, RngStream(1), trials=0)


def test_sl2_cone_induced_cdf_is_benford():
    s = np.linspace(1.0, 10.0, 91)
    for eps in (0.1, 0.35, 1.0):
        out = sl2_cone_induced_cdf(s, eps)
        assert np.max(np.abs(out - np.log10(s))) < 1e-12
    # Scalar in, scalar out.
    val = sl2_cone_induced_cdf(2.0, 0.1)
    assert isinstance(val, float)
    assert val == pytest.approx(math.log10(2.0), abs=1e-15)
    # Other bases: cdf at s = base is 1, at sqrt(base) is 1/2.
    assert sl2_cone_induced_cdf(2.0, 0.2, base=4) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("base", [2, 7, 10, 36])
def test_sl2_cone_induced_cdf_is_the_volume_ratio(base):
    # The per-point route: one ConeProblem and one volume per grid point.
    s = 1.0 + np.arange(1, 100) * (base - 1) / 99
    for eps in (0.1, 0.35):
        ref = [
            sl2_cone_volume(ConeProblem(v, eps)) / sl2_cone_volume(ConeProblem(float(base), eps))
            for v in s
        ]
        np.testing.assert_allclose(sl2_cone_induced_cdf(s, eps, base), ref, rtol=1e-15, atol=0)


def test_sl2_cone_induced_cdf_validation():
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(0.5, 0.1)
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(11.0, 0.1)
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(2.0, 0.0)
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(2.0, 1.5)
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(2.0, 0.1, base=1)
    with pytest.raises(DomainError):
        sl2_cone_induced_cdf(np.array([2.0, np.nan]), 0.1)
