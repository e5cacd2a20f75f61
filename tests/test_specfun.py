"""Special functions against independently computed reference values.

Reference constants were produced with mpmath at 30 decimal digits (and
exact factorials where available) and are frozen here so the suite does
not depend on mpmath at runtime.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haar_digits import specfun
from haar_digits.errors import DomainError
from haar_digits.specfun import (
    betainc,
    erf,
    erfc,
    gamma_half_ratio,
    integrate,
    integrate_arcsine_weight,
    log_gamma,
    normal_cdf,
)

ERF_REFERENCE = {
    0.0: 0.0,
    0.5: 0.5204998778130465,
    1.0: 0.8427007929497149,
    2.0: 0.9953222650189527,
    2.5: 0.999593047982555,
    3.0: 0.9999779095030014,
    3.7: 0.9999998328489421,
    4.0: 0.9999999845827421,
    5.5: 0.9999999999999926,
}


@pytest.mark.parametrize("x,expected", sorted(ERF_REFERENCE.items()))
def test_erf_reference_values(x, expected):
    if expected == 0.0:
        assert erf(x) == 0.0
    else:
        assert erf(x) == pytest.approx(expected, rel=1e-12)


def test_erf_saturates_beyond_six():
    assert erf(6.5) == 1.0
    assert erf(-7.0) == -1.0
    assert erf(100.0) == 1.0


@given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
def test_erf_odd_symmetry(x):
    assert erf(-x) == -erf(x)


@given(st.floats(min_value=-3.0, max_value=2.9), st.floats(min_value=0.001, max_value=0.1))
def test_erf_strictly_increasing(x, h):
    # strict on the well-conditioned core; merely monotone near saturation
    assert erf(x + h) > erf(x)


@given(st.floats(min_value=-6.0, max_value=5.9), st.floats(min_value=0.001, max_value=0.1))
def test_erf_monotone_everywhere(x, h):
    assert erf(x + h) >= erf(x)


def test_erf_and_erfc_accept_arrays_elementwise():
    x = np.array([[-7.0, -2.5, -0.3], [0.0, 1.0, 5.5]])
    values = erf(x)
    complements = erfc(x)
    assert values.shape == complements.shape == x.shape
    for v, c, xv in zip(values.ravel(), complements.ravel(), x.ravel()):
        assert v == erf(float(xv))
        assert c == erfc(float(xv))
    assert isinstance(erf(0.5), float) and isinstance(erfc(0.5), float)
    assert erf(np.array([0.5]))[0] == erf(0.5)


def test_erf_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError):
            erf(bad)


def test_erfc_complement():
    for x in (0.0, 0.3, 1.0, 2.5, 4.0):
        assert erfc(x) == pytest.approx(1.0 - ERF_REFERENCE.get(x, erf(x)), rel=1e-11, abs=1e-15)
    assert erfc(-1.0) == pytest.approx(1.0 + ERF_REFERENCE[1.0], rel=1e-12)


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.96) == pytest.approx(0.97500210485177957, rel=1e-12)
    assert normal_cdf(-0.5) == pytest.approx(0.3085375387259869, rel=1e-12)


LOG_GAMMA_REFERENCE = [
    (1.0, 0.0),
    (2.0, 0.0),
    (0.5, math.log(math.pi) / 2.0),
    (10.0, math.log(362880.0)),  # ln(9!), exact integer factorial
    (3.7, 1.4280723266653879),
    (25.0, 54.784729398112319),
    (1234.5, 7550.5509010778949),
    (1e6, 12815504.569147611660),
]


@pytest.mark.parametrize("x,expected", LOG_GAMMA_REFERENCE)
def test_log_gamma_reference_values(x, expected):
    if expected == 0.0:
        assert abs(log_gamma(x)) < 1e-14
    else:
        assert log_gamma(x) == pytest.approx(expected, rel=1e-12)


def test_log_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5, float("nan")):
        with pytest.raises(DomainError):
            log_gamma(bad)


def test_gamma_half_ratio_small_n_closed_forms():
    # Gamma(1)/Gamma(1/2), Gamma(3/2)/Gamma(1), Gamma(2)/Gamma(3/2)
    assert gamma_half_ratio(1) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
    assert gamma_half_ratio(2) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
    assert gamma_half_ratio(3) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)


def test_gamma_half_ratio_large_n_no_overflow():
    # mpmath references; direct Gamma would overflow long before n = 1e8, and
    # a difference of two log-gammas loses up to 1e-8 of relative accuracy.
    assert gamma_half_ratio(10**4) == pytest.approx(70.708910373801635047, rel=1e-13)
    assert gamma_half_ratio(10**6) == pytest.approx(707.10660440987432488, rel=1e-13)
    assert gamma_half_ratio(10**8) == pytest.approx(7071.0677941878057364, rel=1e-13)


def test_gamma_half_ratio_sqrt_asymptotics():
    prev = None
    for n in (10, 100, 10_000, 1_000_000):
        rel = abs(gamma_half_ratio(n) / math.sqrt(n / 2.0) - 1.0)
        if prev is not None:
            assert rel < prev
        prev = rel
    assert prev < 1e-6


def test_gamma_half_ratio_rejects_bad_n():
    for bad in (0, -1, 2.5):
        with pytest.raises(DomainError):
            gamma_half_ratio(bad)


BETAINC_REFERENCE = [
    # (a, b, x, I_x(a, b)), mpmath at 30 digits
    (0.5, 4.5, 0.3, 0.91887381115415935073),
    (0.5, 0.5, 0.81, 0.71286741374258750174),
    (0.5, 50.0, 0.01, 0.68269560212580241567),
    (0.5, 5000.0, 3e-4, 0.91675090368238547209),
    (2.0, 3.0, 0.4, 0.52480000000000003837),
    (7.5, 0.5, 0.97, 0.50617845890916879442),
    (3.0, 40.0, 0.2, 0.99444382697761905419),
]


@pytest.mark.parametrize("a,b,x,expected", BETAINC_REFERENCE)
def test_betainc_reference_values(a, b, x, expected):
    assert betainc(a, b, x) == pytest.approx(expected, rel=1e-13)


def test_betainc_a_above_b_converges_near_one():
    # Past the mean with a > b, the direct continued fraction does not
    # converge; these two raised ConvergenceError. mpmath at 40 digits.
    assert betainc(5000.0, 0.5, 0.9999998089981643) == pytest.approx(
        0.96514141385872591541, abs=1e-15
    )
    assert betainc(5e7, 0.5, 1.0 - 1e-12) == pytest.approx(0.9920213756396509827, abs=1e-15)


# I_x(a, b) for a > b on 1 - x = 1e-12 ... 0.1, mpmath at 40 digits; rows are
# a, columns are 1 - x. The documented error is up to about max(a, b) ulp.
BETAINC_NEAR_ONE_T = (1e-12, 1e-8, 1e-4, 1e-2, 0.1)
BETAINC_NEAR_ONE = {
    (2.0, 0.5): (0.9999985000165914, 0.9998500000001231, 0.9850005000000008, 0.8504999999999999,
                 0.5414697392755851),
    (5.0, 1.0): (0.9999999999950001, 0.9999999500000007, 0.9995000999900006, 0.9509900498999999,
                 0.5904900000000001),
    (50.0, 0.5): (0.9999920411642944, 0.9992041077541244, 0.92054057138263, 0.3173043978741974,
                  0.001204149832559813),
    (50.0, 2.0): (1.0, 0.9999999999998725, 0.9999872915751239, 0.9075091007063049,
                  0.030922651243920712),
    (5e3, 0.5): (0.9999202144212509, 0.9920214867894201, 0.31731050725795346,
                 1.1849636488949232e-23, 4.1123160890507657e-231),
    (5e3, 1.0): (0.9999999950001106, 0.999950001249478, 0.6065154956247782,
                 1.499591560997954e-22, 1.631350185342827e-229),
    (5e3, 2.0): (1.0, 0.9999999987497916, 0.9097732434371341, 7.647916961089572e-21,
                 8.173064428567562e-227),
}


@pytest.mark.parametrize("a,b", list(BETAINC_NEAR_ONE))
def test_betainc_a_above_b_grid(a, b):
    x = 1.0 - np.array(BETAINC_NEAR_ONE_T)
    got = betainc(a, b, x)
    assert np.allclose(got, BETAINC_NEAR_ONE[a, b], rtol=0.0, atol=4 * max(a, b) * 2.0**-52)


def test_betainc_arrays_endpoints_and_symmetry():
    x = np.array([[0.0, 1e-300, 0.2], [0.6, 1.0 - 1e-12, 1.0]])
    values = betainc(0.5, 4.5, x)
    assert values.shape == x.shape
    assert values[0, 0] == 0.0 and values[1, 2] == 1.0
    assert np.all(np.diff(values.ravel()) >= 0.0)
    for xv, v in zip(x.ravel(), values.ravel()):
        assert betainc(0.5, 4.5, float(xv)) == v
        # I_x(a, b) = 1 - I_(1-x)(b, a)
        assert v == pytest.approx(1.0 - betainc(4.5, 0.5, 1.0 - xv), abs=1e-14)
    # n = 2 sphere coordinate: I_x(1/2, 1) = sqrt(x)
    grid = np.linspace(0.0, 1.0, 41)
    assert np.allclose(betainc(0.5, 1.0, grid), np.sqrt(grid), rtol=1e-14, atol=0.0)


def test_betainc_tiny_parameter_beside_a_half():
    # ln B(1/2, b) is the half gap of b itself: a + b - 1/2 rounds a tiny b
    # to 0. mpmath at 40 digits.
    assert betainc(0.5, 1e-20, 0.3) == pytest.approx(1.2302440093121528739e-20, rel=1e-13)
    # 1 - 1.2e-20: the fraction rounds it past 1, and the value is clipped.
    assert betainc(1e-20, 0.5, 0.3) == 1.0
    assert betainc(2.0, 1e-300, 0.3) == pytest.approx(5.6674943938732375575e-302, rel=1e-12)


# I_x(a, a) at x = 1/2 + k deviations, k = 1, 2, 3, 5 (scipy.special.betainc),
# lanes where the direct fraction settles on a wrong value (I_x - 1 at
# a = 1e6, k = 2), so they must take the mirrored one.
BETAINC_PAST_MEAN = {
    1e4: (0.8413386968760405, 0.9772512180706427, 0.9986510990552835, 0.9999997153870366),
    1e6: (0.8413446855758959, 0.97724988154958, 0.9986501119400211, 0.99999971336887),
}


@pytest.mark.parametrize("a", list(BETAINC_PAST_MEAN))
def test_betainc_past_the_mean_at_equal_parameters(a):
    sd = math.sqrt(a * a / ((2 * a) ** 2 * (2 * a + 1)))
    got = betainc(a, a, 0.5 + sd * np.array([1.0, 2.0, 3.0, 5.0]))
    assert np.allclose(got, BETAINC_PAST_MEAN[a], rtol=0.0, atol=4 * a * 2.0**-52)


def test_betainc_refuses_parameters_it_cannot_answer():
    # Subnormal a or b, past 1e8 beside a parameter that is not 1/2 (ln B is
    # then a log-gamma difference, off by ~max(a, b) ulp), past 1e300 beside
    # 1/2, or not a real; each error names betainc's own a or b.
    for a, b, name in (
        (0.5, 5e-324, "b"), (5e-324, 2.0, "a"), (1e308, 1e308, "a"),
        (np.finfo(float).max, 2.0, "a"), (1e16, 3.0, "a"), (2.0, 1e9, "b"),
        (0.5, 1e301, "b"), (1e301, 0.5, "a"), (0.5, np.array([1.0, 2.0]), "b"),
    ):
        with pytest.raises(DomainError, match=rf"^{name} must be a finite real in \["):
            betainc(a, b, 0.3)


def test_betainc_answers_in_range_without_warnings():
    values = (2.0**-1022, 1e-300, 1e-20, 0.01, 0.5, 1.0, 2.0, 50.0, 1e4, 1e8, 1e300)
    x = np.array([0.0, 1e-300, 1e-8, 0.3, 0.5, 0.7, 1.0 - 1e-8, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in values:
            for b in values:
                if max(a, b) > 1e8 and 0.5 not in (a, b):
                    continue
                got = betainc(a, b, np.append(x, a / (a + b)))
                assert ((got >= 0.0) & (got <= 1.0)).all(), (a, b, got)


def test_betainc_validation():
    for a, b, x in ((0.0, 1.0, 0.5), (1.0, -2.0, 0.5), (1.0, 1.0, 1.5), (1.0, 1.0, -0.1)):
        with pytest.raises(DomainError):
            betainc(a, b, x)
    with pytest.raises(DomainError):
        betainc(0.5, 2.0, np.array([0.2, float("nan")]))


def test_integrate_gaussian_reference():
    # int_0^1 exp(-x^2) dx, mpmath at 30 digits
    val = integrate(lambda x: np.exp(-x * x), [0.0, 1.0])
    assert val == pytest.approx(0.7468241328124270254, rel=1e-12)


def test_integrate_exact_on_polynomials_and_sine():
    assert integrate(lambda x: 3 * x * x, [0.0, 2.0]) == pytest.approx(8.0, rel=1e-13)
    assert integrate(np.sin, [0.0, math.pi]) == pytest.approx(2.0, rel=1e-12)
    assert integrate(lambda x: np.ones_like(x), [-1.5, 2.5]) == pytest.approx(4.0, rel=1e-14)


def test_frozen_gauss_legendre_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    assert specfun._GL_NODES.tobytes() == nodes.tobytes()
    assert specfun._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_importing_the_cli_leaves_numpy_polynomial_out():
    # A fresh interpreter importing the package from the tree under test.
    src = str(Path(specfun.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # csv loads only when CSV is written, and no class is built by dataclasses.
    unwanted = ("numpy.polynomial", "dataclasses", "csv")
    code = f"import sys, haar_digits.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_integrate_sums_rows_of_panels_in_one_call():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.cos(x)

    # Two integrals of cos; the second repeats an edge, a zero-width panel.
    edges = np.array([[0.0, 0.5, 1.0, 2.0], [0.0, 1.0, 1.0, 3.0]])
    out = integrate(f, edges)
    assert calls == [(2, 60)]
    assert out.shape == (2,)
    assert out == pytest.approx([math.sin(2.0), math.sin(3.0)], abs=1e-15)


def test_integrate_validation():
    assert integrate(np.sin, [1.0]) == 0.0  # no panels
    with pytest.raises(DomainError):
        integrate(np.sin, [1.0, 0.0])  # descending
    with pytest.raises(DomainError):
        integrate(np.sin, [0.0, math.inf])
    with pytest.raises(DomainError):
        integrate(lambda x: np.full_like(x, np.nan), [0.0, 1.0])
    with pytest.raises(DomainError):
        integrate_arcsine_weight(np.cos, [0.0, 1.5])


def test_arcsine_weight_closed_forms():
    # weight 1/sqrt(1-x^2): total mass pi; second moment pi/2
    assert integrate_arcsine_weight(lambda x: np.ones_like(x), [-1.0, 1.0]) == pytest.approx(
        math.pi, rel=1e-12
    )
    assert integrate_arcsine_weight(lambda x: x * x, [-1.0, 1.0]) == pytest.approx(
        math.pi / 2.0, rel=1e-12
    )
    # against the plain quadrature away from the endpoints
    plain = integrate(lambda x: np.cos(x) / np.sqrt(1 - x * x), [-0.5, 0.5])
    weighted = integrate_arcsine_weight(np.cos, [-0.5, 0.5])
    assert weighted == pytest.approx(plain, rel=1e-11)


def test_arcsine_weight_endpoint_integrable_singularity():
    # int_0^1 (1-x^2)^(-1/2) dx = pi/2 exactly, despite the endpoint blowup
    assert integrate_arcsine_weight(lambda x: np.ones_like(x), [0.0, 1.0]) == pytest.approx(
        math.pi / 2.0, rel=1e-12
    )
