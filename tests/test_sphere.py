"""Sphere-coordinate significand laws: oracle values, asymptotics, limits.

Reference constants were computed with mpmath (30 digits) from the
defining integrals; closed forms for small n are derived by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haar_digits.errors import DomainError
from haar_digits.laws import UniformSignificand
from haar_digits.specfun import integrate
from haar_digits.sphere import (
    SphereErf,
    SphereExact,
    SphereLimit,
    sphere_band_prob,
    sphere_joint_band_prob,
    sphere_joint_sig_approx,
    sphere_limit_cdf,
    sphere_sig_cdf_erf,
    sphere_sig_cdf_exact,
)

BAND_REFERENCE = [
    (9, 0.2, 0.5, 0.2190693195456737),
    (3, -0.3, 0.4, 0.43576537987511806),
    (100, 0.0, 0.1, 0.34134780106290121),
    (1, 0.0, 0.5, 1.0 / 6.0),  # arcsin(1/2)/pi
    (4, 0.0, 0.7, 0.43925),  # (3/4)(b - b^3/3), polynomial density
]


@pytest.mark.parametrize("n,a,b,expected", BAND_REFERENCE)
def test_band_prob_reference_values(n, a, b, expected):
    assert sphere_band_prob(n, a, b) == pytest.approx(expected, rel=1e-11)


def test_band_prob_uniform_case_n2():
    # S^2 first coordinate is uniform on [-1, 1]
    assert sphere_band_prob(2, -0.25, 0.6) == pytest.approx(0.425, abs=1e-13)


def test_band_prob_whole_interval_is_one():
    for n in (1, 2, 5, 40):
        assert sphere_band_prob(n, -1.0, 1.0) == pytest.approx(1.0, abs=1e-11)


def test_band_prob_validation():
    with pytest.raises(DomainError):
        sphere_band_prob(0, 0.0, 0.5)
    with pytest.raises(DomainError):
        sphere_band_prob(3, 0.5, 0.2)
    with pytest.raises(DomainError):
        sphere_band_prob(3, -1.5, 0.0)


SIG_CDF_REFERENCE = [
    (9, 2.0, 0.24027952528245832),
    (9, 5.0, 0.7557076569788103),
    (4, 3.5, 0.39570820820820821),
]


@pytest.mark.parametrize("n,s,expected", SIG_CDF_REFERENCE)
def test_sig_cdf_exact_reference_values(n, s, expected):
    assert sphere_sig_cdf_exact(n, 10, s) == pytest.approx(expected, rel=1e-10)


LARGE_N_REFERENCE = [
    # mpmath band quadrature at 30 digits; the mass sits near |x_1| ~ 1/sqrt(n)
    (10**6, 2.0, 0.35953858243217982959),
    (10**6, 5.0, 0.65602416359649337604),
    (10**8, 2.0, 0.35953844198301713465),
    (10**8, 5.0, 0.65602421814770874085),
]


@pytest.mark.parametrize("n,s,expected", LARGE_N_REFERENCE)
def test_exact_law_at_large_n(n, s, expected):
    law = SphereExact(base=10, n=n)
    assert law.cdf(s) == pytest.approx(expected, abs=1e-9)
    assert sphere_sig_cdf_exact(n, 10, s) == law.cdf(s)


def test_sig_cdf_exact_n2_is_uniform():
    for s in np.linspace(1.0, 10.0, 50):
        assert sphere_sig_cdf_exact(2, 10, float(s)) == pytest.approx(
            (s - 1.0) / 9.0, abs=1e-9
        )


def test_sig_cdf_exact_n1_matches_arcsine_series():
    def arcsine_series(s):
        total = 0.0
        for i in range(1, 40):
            scale = 10.0**-i
            total += math.asin(min(s * scale, 1.0)) - math.asin(scale)
        return 2.0 * total / math.pi

    for s in (1.0, 1.7, 3.3, 6.0, 9.5, 10.0):
        assert sphere_sig_cdf_exact(1, 10, s) == pytest.approx(
            arcsine_series(s), abs=1e-9
        )


def test_sig_cdf_endpoints():
    for n in (1, 2, 7, 300):
        assert abs(sphere_sig_cdf_exact(n, 10, 1.0)) < 1e-12
        assert sphere_sig_cdf_exact(n, 10, 10.0) == pytest.approx(1.0, abs=1e-9)


def test_erf_approximation_error_shrinks_with_n():
    grid = np.linspace(1.0, 10.0, 99)
    gaps = {}
    for n in (100, 10_000):
        gaps[n] = max(
            abs(sphere_sig_cdf_exact(n, 10, float(s)) - sphere_sig_cdf_erf(n, 10, float(s)))
            for s in grid
        )
    assert gaps[10_000] < gaps[100]
    assert gaps[100] < 0.05
    assert gaps[10_000] < 0.005


def test_erf_cdf_requires_n_at_least_two():
    with pytest.raises(DomainError):
        sphere_sig_cdf_erf(1, 10, 2.0)


LIMIT_REFERENCE = [
    (7, 3.0, 0.41897960517038832),
    (7, 1.5, 0.11966869726743739),
    (50, 2.0, 0.38456029708090527),
    (1, 9.0, 0.94036086545783231),
]


@pytest.mark.parametrize("n,s,expected", LIMIT_REFERENCE)
def test_limit_cdf_reference_values(n, s, expected):
    assert sphere_limit_cdf(n, 10, s) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("n", [1, 7, 50])
def test_limit_family_is_periodic_in_n(n):
    s = np.linspace(1.0, 10.0, 33)
    for x in s:
        direct = sphere_limit_cdf(n, 10, float(x))
        shifted = sphere_limit_cdf(n * 100, 10, float(x))
        assert shifted == pytest.approx(direct, abs=1e-12)


def test_limit_cdf_endpoints_and_monotonicity():
    for n in (1, 7, 99):
        assert abs(sphere_limit_cdf(n, 10, 1.0)) < 1e-12
        assert sphere_limit_cdf(n, 10, 10.0) == pytest.approx(1.0, abs=1e-12)
    vals = [sphere_limit_cdf(7, 10, s) for s in np.linspace(1.0, 10.0, 200)]
    assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_limit_approximates_erf_cdf_at_large_n():
    for s in (1.5, 3.0, 7.0):
        assert sphere_limit_cdf(10_000, 10, s) == pytest.approx(
            sphere_sig_cdf_erf(10_000, 10, s), abs=1e-4
        )


JOINT_REFERENCE = [
    # (n, bounds, expected): P(|x_j| in (a_j, b_j) for all j)
    (3, ((0.0, 0.5), (0.0, 0.5)), 1.0 / math.pi),  # uniform disk, square inside
    (6, ((0.1, 0.5), (0.2, 0.6)), 0.31640592118835073),
    (5, ((0.0, 0.4), (0.0, 0.4), (0.0, 0.4)), 0.18994593577453842),
    (2, ((0.1, 0.5), (0.2, 0.6)), 0.12104162890020716346),
    (200, ((0.0, 0.05), (0.02, 0.1)), 0.32272197024248742008),
    # mpmath at 30 digits: boxes whose far corner nearly touches the sphere
    # (sum b^2 = 0.9949, 0.9941, and for k = 3 0.9761, 0.9125), and small
    # bands at larger n.
    (2, ((0.5, 0.9), (0.0, 0.43)), 0.18147940301144778371),
    (3, ((0.0, 0.7), (0.0, 0.71)), 0.63280005373337578321),
    (50, ((0.1, 0.2), (0.2, 0.3)), 0.040439103962704728392),
    (10**4, ((0.001, 0.02), (0.005, 0.03)), 0.53750637486831509598),
    (3, ((0.0, 0.5), (0.0, 0.5), (0.0, 0.69)), 0.17609784436155759093),
    (4, ((0.1, 0.6), (0.2, 0.5), (0.0, 0.55)), 0.15756339366097638056),
]


@pytest.mark.parametrize("n,bounds,expected", JOINT_REFERENCE)
def test_joint_band_reference_values(n, bounds, expected):
    assert sphere_joint_band_prob(n, bounds) == pytest.approx(expected, abs=1e-12)


def test_joint_band_at_large_n_is_betainc_limited():
    # mpmath; at n = 1e6 the incomplete beta itself is good to ~1e-12.
    val = sphere_joint_band_prob(10**6, ((0.0, 0.3), (0.0005, 0.002)))
    assert val == pytest.approx(0.57157504154095063343, abs=5e-12)


def test_joint_band_uniform_ball_closed_forms():
    # The first n - 1 coordinates of S^n are uniform on the unit ball B^(n-1).
    ball3 = sphere_joint_band_prob(4, ((0.0, 0.5),) * 3)
    assert ball3 == pytest.approx(3.0 / (4.0 * math.pi), abs=1e-14)  # 8 (1/8) / (4 pi / 3)
    ball4 = sphere_joint_band_prob(5, ((0.0, 0.45),) * 4)
    assert ball4 == pytest.approx(2.0 * 0.9**4 / math.pi**2, abs=1e-14)  # 16 0.45^4 / (pi^2 / 2)


def test_joint_band_single_coordinate_reduces_to_band():
    for n, a, b in ((5, 0.1, 0.4), (20, 0.0, 0.3)):
        joint = sphere_joint_band_prob(n, ((a, b),))
        assert joint == pytest.approx(2.0 * sphere_band_prob(n, a, b), rel=1e-9)


def test_joint_band_tends_to_one_for_large_n():
    val = sphere_joint_band_prob(200, ((0.0, 0.5), (0.0, 0.5)))
    assert 0.999 < val <= 1.0 + 1e-9


def test_joint_band_validation():
    with pytest.raises(DomainError):
        sphere_joint_band_prob(3, ())
    with pytest.raises(DomainError):
        sphere_joint_band_prob(3, ((0.5, 0.1),))
    with pytest.raises(DomainError):
        sphere_joint_band_prob(3, ((-0.1, 0.5),))
    with pytest.raises(DomainError):
        sphere_joint_band_prob(2, ((0.0, 0.9), (0.0, 0.9)))  # sum b^2 >= 1
    with pytest.raises(DomainError):
        sphere_joint_band_prob(1, ((0.0, 0.5), (0.0, 0.5)))  # k > n
    # k = 4 on S^9: the density of x_1..x_4 is (12/pi^2)(1 - |x|^2)^2, a
    # polynomial, so the box (0, s)^4 has mass (192/pi^2)(s^4 - 8 s^6/3 + 32 s^8/15).
    s = 0.3
    box = 192.0 / math.pi**2 * (s**4 - 8.0 * s**6 / 3.0 + 32.0 * s**8 / 15.0)
    assert sphere_joint_band_prob(9, ((0.0, s),) * 4) == pytest.approx(box, abs=1e-14)


def test_joint_sig_approx_factorizes_over_components():
    n = 400
    pairs = ((1.2, 2.5), (3.0, 7.0))
    joint = sphere_joint_sig_approx(n, 10, pairs)
    product = 1.0
    law = SphereErf(base=10, n=n)
    for a, b in pairs:
        product *= law.cdf(b) - law.cdf(a)
    assert joint == pytest.approx(product, rel=1e-9)


@pytest.mark.parametrize("n", [2, 9, 100])
def test_erf_law_total_mass_is_erf(n):
    # The erf bands telescope to erf(sqrt(n/2)), the Gaussian mass on
    # |x| <= 1, so the law is short of 1 at small n (0.9973 at n = 9).
    law = SphereErf(base=10, n=n)
    mass = math.erf(math.sqrt(n / 2))
    assert abs(float(law.cdf(10.0)) - mass) < 1e-12
    assert abs(float(np.sum(law.first_digit_probs())) - mass) < 1e-12


def test_joint_sig_approx_validation():
    with pytest.raises(DomainError):
        sphere_joint_sig_approx(100, 10, ((0.5, 2.0),))
    with pytest.raises(DomainError):
        sphere_joint_sig_approx(100, 10, ((2.0, 11.0),))


SPHERE_LAWS = [
    SphereExact(base=10, n=1),
    SphereExact(base=10, n=2),
    SphereExact(base=10, n=9),
    SphereErf(base=10, n=50),
    SphereLimit(base=10, n=7),
    SphereLimit(base=10, n=1),
]


@pytest.mark.parametrize("law", SPHERE_LAWS, ids=repr)
def test_sphere_law_axioms(law):
    assert abs(law.cdf(1.0)) < 1e-10
    assert law.cdf(10.0) == pytest.approx(1.0, abs=1e-9)
    # Integrate the density over an interior interval: the n=1 exact
    # density has an integrable singularity as s -> base, so pinning
    # mass against the cdf difference on [1, 9.5] checks the same
    # density<->cdf consistency without evaluating at the endpoint.
    mass = integrate(lambda s: law.density(s), np.linspace(1.0, 9.5, 33))
    assert mass == pytest.approx(law.cdf(9.5), abs=1e-8)
    probs = law.first_digit_probs()
    assert np.all(probs >= -1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("law", SPHERE_LAWS, ids=repr)
@given(s=st.floats(min_value=1.001, max_value=9.999))
def test_sphere_law_derivative_matches_density(law, s):
    h = 1e-5
    numeric = (law.cdf(s + h) - law.cdf(s - h)) / (2.0 * h)
    assert numeric == pytest.approx(law.density(s), rel=2e-5, abs=2e-6)


def test_sphere_exact_n2_equals_uniform_law():
    exact = SphereExact(base=10, n=2)
    flat = UniformSignificand(10)
    s = np.linspace(1.0, 10.0, 21)
    assert np.allclose(exact.cdf(s), flat.cdf(s), atol=1e-9)


def test_sphere_exact_vector_path_matches_scalar():
    law = SphereExact(base=10, n=9)
    s = np.linspace(1.0, 10.0, 10_001)  # spans several evaluation blocks
    vec = law.cdf(s)
    scalar = np.array([law.cdf(float(v)) for v in s[::100]])
    assert np.max(np.abs(vec[::100] - scalar)) < 1e-15
    assert np.all(np.diff(vec) > -1e-12)


ALL_SPHERE_LAWS = SPHERE_LAWS + [
    SphereExact(base=7, n=10**8),
    SphereErf(base=2, n=3),
    SphereLimit(base=36, n=10**6),
]


@pytest.mark.parametrize("law", ALL_SPHERE_LAWS, ids=repr)
def test_scalar_is_the_one_point_case(law):
    for s in (1.0, 1.5, float(law.base) / 2.0, float(law.base)):
        for method in (law.cdf, law.density):
            one = method(np.array([s]))
            value = method(s)
            assert isinstance(value, float)
            assert value == one[0]
    grid = np.linspace(1.0, float(law.base), 12).reshape(3, 4)
    assert law.cdf(grid).shape == (3, 4)


def test_sphere_laws_use_no_quadrature(monkeypatch):
    import haar_digits.specfun as specfun

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(specfun, "integrate", refuse)
    for law in ALL_SPHERE_LAWS:
        law.cdf(np.linspace(1.0, float(law.base), 300))
        law.density(np.linspace(1.0, float(law.base) - 0.01, 300))
        law.first_digit_probs()
    sphere_band_prob(9, -0.3, 0.2)
    sphere_joint_sig_approx(50, 10, ((1.0, 2.0),))


def test_sphere_dimension_validation():
    with pytest.raises(DomainError):
        SphereExact(base=10, n=0)
    with pytest.raises(DomainError):
        SphereErf(base=10, n=1)
    with pytest.raises(DomainError):
        sphere_limit_cdf(-3, 10, 2.0)
