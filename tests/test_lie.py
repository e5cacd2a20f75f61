"""Tests for adjoint determinants on the triangular algebras and the
SL_2 cone volumes (analytic formulas against Monte Carlo rejection)."""

import math
import tracemalloc

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
    hyperbolic_cone_area,
    hyperbolic_cone_area_mc,
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
    assert adjoint_det_on_u(d) * adjoint_det_on_l(d) == pytest.approx(1.0, rel=1e-12)


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
    for fn in (adjoint_det_on_u, adjoint_det_on_l):
        stacked = fn(d, u)
        assert stacked.shape == (20,)
        single = [fn(dk, uk) for dk, uk in zip(d, u)]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(stacked, np.array(single))
        # One u (here the identity) is shared by a stack of diagonals.
        assert np.array_equal(fn(d), np.array([fn(dk) for dk in d]))
    assert np.abs(adjoint_det_on_u(d, u) * adjoint_det_on_l(d, u) - 1.0).max() < 1e-9


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
    empty = np.zeros((0, 3, 3))
    assert (adjoint_det_on_u(np.ones(3), empty) * adjoint_det_on_l(np.ones(3), empty)).shape == (0,)


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
    assert abs(adjoint_det_on_u(d, u) * adjoint_det_on_l(d, u) - 1.0) < 1e-9


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


def test_hyperbolic_cone_area_refuses_a_ratio_past_the_double_range():
    # b / a = 1e310 overflowed to inf and the area read inf; ln(b / a) is
    # about 713.8. The largest ratio that is a double is answered.
    with pytest.raises(DomainError, match=r"^b / a must be a finite real, got inf$"):
        hyperbolic_cone_area(1e-300, 1e10)
    assert hyperbolic_cone_area(1.0, 1e308) == pytest.approx(308.0 * math.log(10.0), rel=1e-15)


def test_hyperbolic_cone_area_mc_refuses_a_box_past_the_double_range():
    # A box of volume b / a = 1e400 gave estimate=nan and box_volume=inf.
    rng = RngStream(3)
    with pytest.raises(DomainError, match=r"^the bounding box volume must be a finite real"):
        hyperbolic_cone_area_mc(1e-200, 1e200, rng, trials=100)
    assert rng.counter == 0


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


def test_mc_volume_reads_its_estimate_from_its_counts():
    # The estimate and its error bar follow from the counts and the box, so
    # a value cannot disagree with itself.
    vol = MCVolume(accepted=32, trials=64, box_volume=2.0)
    assert (vol.estimate, vol.stderr) == (1.0, 0.125)  # 2 * 1/2, 2 * sqrt(1/4 / 64)
    p = 3 / 10
    assert MCVolume(3, 10, 4.0).estimate == 4.0 * p
    assert MCVolume(3, 10, 4.0).stderr == 4.0 * math.sqrt(p * (1.0 - p) / 10)


def test_mc_verdict_in_standard_errors():
    vol = MCVolume(accepted=32, trials=64, box_volume=2.0)  # 1.0 with stderr 0.125
    assert lie.MC_SIGMAS == 5.0
    assert vol.sigma_gap(1.375) == 3.0
    assert vol.agrees(1.62) and not vol.agrees(1.63)
    assert not vol.agrees(0.375)  # exactly 5 standard errors fails


def test_mc_verdict_without_an_error_bar():
    # Every trial rejected (or every one accepted) leaves a zero standard
    # error: the gap is infinite unless the estimate is exact.
    none, every = MCVolume(0, 1, 1.0), MCVolume(1, 1, 2.0)
    assert none.sigma_gap(0.0139) == math.inf
    assert not none.agrees(0.0139)
    assert every.sigma_gap(2.0) == 0.0 and every.agrees(2.0)
    one, edges = sl2_cone_volume_mc(ConeProblem(2.0), RngStream(42), trials=1)
    assert one.stderr == 0.0 and edges.size == one.accepted
    assert not one.agrees(sl2_cone_volume(ConeProblem(2.0)))


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


def test_cone_problem_eps_squared_bound_at_the_edge_and_past_it():
    # eps^2 must be a normal double: 2^-511 squares to the least one.
    edge = 2.0**-511
    problem = ConeProblem(10.0, eps=edge)
    assert sl2_cone_volume(problem) == pytest.approx(2.0 * edge * edge * math.log(10.0), rel=1e-15)
    with pytest.raises(DomainError, match="eps"):
        ConeProblem(10.0, eps=float(np.nextafter(edge, 0.0)))


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
    vol, _ = sl2_cone_volume_mc(problem, RngStream(6011), trials=400_000)
    exact = sl2_cone_volume(problem)
    assert vol.estimate == pytest.approx(vol.box_volume * vol.accepted / vol.trials, rel=1e-12)
    assert abs(vol.estimate - exact) < 4.0 * vol.stderr
    assert abs(vol.estimate - exact) / exact < 0.02


def test_sl2_cone_volume_mc_deterministic_and_validated():
    problem = ConeProblem(4.0, eps=0.5)
    a, edges_a = sl2_cone_volume_mc(problem, RngStream(29), trials=10_000)
    b, edges_b = sl2_cone_volume_mc(problem, RngStream(29), trials=10_000)
    assert a == b and edges_a.tobytes() == edges_b.tobytes()
    with pytest.raises(DomainError):
        sl2_cone_volume_mc(problem, RngStream(1), trials=0)


def test_sl2_cone_volume_mc_refuses_a_box_past_the_double_range():
    # The box x (2 eps)^2 (1 + eps^2) of x = 1e308, eps = 1 is 8e308: the
    # estimate read nan with box_volume=inf. The exact volume is finite.
    problem, rng = ConeProblem(1e308, 1.0), RngStream(3)
    assert math.isfinite(sl2_cone_volume(problem))
    with pytest.raises(DomainError, match=r"^the bounding box volume must be a finite real"):
        sl2_cone_volume_mc(problem, rng, trials=100)
    assert rng.counter == 0


def test_sl2_cone_volume_mc_edges_are_those_of_the_accepted_points():
    # Batches of 2^16 points: the edges of a 150000-trial draw are those of
    # its three batches, each accepted point's w / sqrt(det) in draw order.
    problem = ConeProblem(10.0, eps=0.3)
    vol, edges = sl2_cone_volume_mc(problem, RngStream(17), trials=150_000)
    assert edges.shape == (vol.accepted,)
    assert np.all((edges >= 1.0) & (edges <= 10.0 * (1.0 + 1e-15)))
    rng, expected = RngStream(17), []
    for c in (2**16, 2**16, 150_000 - 2**17):
        w = 10.0 * rng.random(c)
        p, q = rng.uniform(-0.3, 0.3, c), rng.uniform(-0.3, 0.3, c)
        z = 1.09 * rng.random(c)
        keep = sl2_cone_membership(np.stack([w, p, q, z], axis=-1).reshape(c, 2, 2), problem)
        expected.append(w[keep] / np.sqrt(w[keep] * z[keep] - p[keep] * q[keep]))
    assert edges.tobytes() == np.concatenate(expected).tobytes()


def test_rejection_draws_hold_one_batch_at_a_time():
    # 10^6 trials in batches of 2^16 points: the cone draw peaks at about
    # 5 MiB, under 1 MiB of it the accepted points' edges, and the planar
    # one at about 2 MiB. One batch of 10^6 points peaked at 63 and 25 MiB.
    assert lie._MC_BATCH == 2**16
    tracemalloc.start()
    try:
        _, edges = sl2_cone_volume_mc(ConeProblem(10.0), RngStream(3), 10**6)
        cone_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        hyperbolic_cone_area_mc(0.5, 4.0, RngStream(3), 10**6)
        planar_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.nbytes < 2**20 and cone_peak < 8 * 2**20 and planar_peak < 4 * 2**20


def test_mc_volume_subregion_is_the_same_draw_with_fewer_points():
    vol, edges = sl2_cone_volume_mc(ConeProblem(10.0), RngStream(5), trials=200_000)
    part = vol.subregion(int(np.count_nonzero(edges <= 2.0)))
    p = part.accepted / vol.trials
    assert (part.trials, part.box_volume) == (vol.trials, vol.box_volume)
    assert part.estimate == vol.box_volume * p
    assert part.stderr == vol.box_volume * math.sqrt(p * (1.0 - p) / vol.trials)
    assert part.agrees(sl2_cone_volume(ConeProblem(2.0)))
    assert vol.subregion(vol.accepted) == vol
    with pytest.raises(DomainError, match=r"^accepted must be an integer in \[0, "):
        vol.subregion(vol.accepted + 1)
