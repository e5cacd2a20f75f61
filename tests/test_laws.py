"""Analytic significand laws: closed-form values and shared law axioms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from haar_digits.errors import DomainError
from haar_digits.laws import (
    Benford,
    FlatWindowSignificand,
    PowerLaw,
    ProductLaw,
    UniformSignificand,
    windowed_power_cdf,
)
from haar_digits.specfun import integrate
from haar_digits.sphere import SphereErf, SphereExact, SphereLimit


def test_benford_closed_values():
    law = Benford(10)
    assert law.cdf(1.0) == 0.0
    assert law.cdf(10.0) == pytest.approx(1.0, abs=1e-15)
    assert law.cdf(2.0) == pytest.approx(math.log10(2.0), abs=1e-16)
    probs = law.first_digit_probs()
    assert probs[0] == pytest.approx(math.log10(2.0), abs=1e-15)
    assert probs[8] == pytest.approx(math.log10(10.0 / 9.0), abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_benford_other_bases():
    law = Benford(2)
    assert law.cdf(1.5) == pytest.approx(math.log2(1.5), abs=1e-15)
    assert law.first_digit_probs().tolist() == pytest.approx([1.0])


def test_power_law_k2_closed_form():
    law = PowerLaw(10, 2.0)
    # CDF (1 - 1/s) / (1 - 1/10); at s = 2 that is 5/9
    assert law.cdf(2.0) == pytest.approx(5.0 / 9.0, abs=1e-15)
    assert law.cdf(10.0) == pytest.approx(1.0, abs=1e-15)
    # density constant c = (k-1) B^(k-1)/(B^(k-1)-1) = 10/9 at s=1
    assert law.density(1.0) == pytest.approx(10.0 / 9.0, rel=1e-15)


def test_power_law_k1_is_benford_exactly():
    p = PowerLaw(10, 1.0)
    b = Benford(10)
    s = np.linspace(1.0, 10.0, 37)
    assert np.array_equal(p.cdf(s), b.cdf(s))
    assert np.array_equal(p.density(s), b.density(s))


def test_power_law_near_one_is_stable():
    s = np.linspace(1.0, 10.0, 11)
    close = PowerLaw(10, 1.0 + 1e-12).cdf(s)
    exact = Benford(10).cdf(s)
    assert np.max(np.abs(close - exact)) < 1e-9


def test_power_law_rejects_bad_k():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            PowerLaw(10, bad)


def test_uniform_significand():
    law = UniformSignificand(10)
    assert law.cdf(5.5) == pytest.approx(0.5, abs=1e-15)
    assert law.density(3.0) == pytest.approx(1.0 / 9.0, abs=1e-16)
    assert law.first_digit_probs().tolist() == pytest.approx([1.0 / 9.0] * 9)


@pytest.mark.parametrize("base, eps, t", [(10, 0.3, 3.0), (10, 45.0, 4.5), (7, 3.7, 3.7), (2, 0.75, 1.5)])
def test_flat_window_significand(base, eps, t):
    law = FlatWindowSignificand(base, eps)
    assert law.t == pytest.approx(t, rel=1e-15)
    s = np.linspace(1.0, base, 1001)
    # P(S(eps U) <= s) summed decade by decade: the length of
    # [B^k, s B^k) inside [0, eps], over eps.
    lows = float(base) ** np.arange(-80.0, 5.0)[:, None]
    direct = np.clip(np.minimum(s * lows, eps) - lows, 0.0, None).sum(axis=0) / eps
    assert np.max(np.abs(law.cdf(s) - direct)) < 1e-12
    assert law.cdf(1.0) == 0.0 and law.cdf(float(base)) == pytest.approx(1.0, abs=1e-15)
    # The density is the CDF's slope: B / ((B - 1) t) below t, 1 / ((B - 1) t) above.
    assert law.density(1.0 + 0.5 * (t - 1.0)) == pytest.approx(base / ((base - 1) * t))
    assert law.density(t + 0.5 * (base - t)) == pytest.approx(1.0 / ((base - 1) * t))
    mass = integrate(lambda x: law.density(x), np.array([1.0, law.t, float(base)]))
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert law.first_digit_probs().sum() == pytest.approx(1.0, abs=1e-12)


def test_flat_window_significand_is_flat_at_powers_of_the_base():
    for eps in (1.0, 100.0, 0.001):
        law = FlatWindowSignificand(10, eps)
        assert law.t == 1.0
        s = np.linspace(1.0, 10.0, 37)
        assert np.array_equal(law.cdf(s), UniformSignificand(10).cdf(s))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            FlatWindowSignificand(10, bad)


def test_domain_validation_on_significand_argument():
    for law in (Benford(10), PowerLaw(10, 2.0), UniformSignificand(10)):
        with pytest.raises(DomainError):
            law.cdf(0.5)
        with pytest.raises(DomainError):
            law.density(10.5)


@pytest.mark.parametrize(
    "law",
    [
        Benford(10),
        PowerLaw(10, 2.0),
        UniformSignificand(10),
        SphereExact(base=10, n=9),
        SphereErf(base=10, n=50),
        SphereLimit(base=10, n=7),
    ],
    ids=repr,
)
@pytest.mark.parametrize(
    "s", [float("nan"), np.array([2.0, float("nan"), 3.0])], ids=["scalar", "array"]
)
def test_nan_significand_is_a_domain_error(law, s):
    with pytest.raises(DomainError):
        law.cdf(s)
    with pytest.raises(DomainError):
        law.density(s)


def test_product_law_factorizes():
    law = ProductLaw((Benford(10), UniformSignificand(10)))
    assert law.cdf((2.0, 5.5)) == pytest.approx(math.log10(2.0) * 0.5, rel=1e-14)
    assert law.density((1.0, 2.0)) == pytest.approx(
        Benford(10).density(1.0) / 9.0, rel=1e-14
    )
    with pytest.raises(DomainError):
        law.cdf((2.0,))
    with pytest.raises(NotImplementedError):
        law.first_digit_probs()
    with pytest.raises(DomainError):
        ProductLaw(())


SCALAR_LAWS = [
    Benford(10),
    Benford(2),
    PowerLaw(10, 1.5),
    PowerLaw(10, 3.0),
    PowerLaw(2, 2.0),
    PowerLaw(10, 0.5),
    UniformSignificand(10),
]


@pytest.mark.parametrize("law", SCALAR_LAWS, ids=repr)
def test_law_axioms_endpoints_and_normalization(law):
    assert abs(law.cdf(1.0)) < 1e-12
    assert law.cdf(float(law.base)) == pytest.approx(1.0, abs=1e-12)
    mass = integrate(lambda s: law.density(s), np.linspace(1.0, float(law.base), 33))
    assert mass == pytest.approx(1.0, abs=1e-9)
    probs = law.first_digit_probs()
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("law", SCALAR_LAWS, ids=repr)
@given(data=st.data())
def test_law_axioms_monotone_and_derivative(law, data):
    base = float(law.base)
    s = data.draw(
        st.floats(min_value=1.0, max_value=base, exclude_max=True), label="s"
    )
    t = data.draw(st.floats(min_value=1.0, max_value=base), label="t")
    lo, hi = min(s, t), max(s, t)
    assert law.cdf(hi) >= law.cdf(lo) - 1e-12
    assert law.density(s) >= 0.0
    h = 1e-5
    if 1.0 + h <= s <= base - h:
        numeric = (law.cdf(s + h) - law.cdf(s - h)) / (2.0 * h)
        assert numeric == pytest.approx(law.density(s), rel=1e-5, abs=1e-6)


# Every law the package ships, for the DigitLaw cdf contract the KS sweep
# relies on.
CONTRACT_LAWS = SCALAR_LAWS + [
    PowerLaw(10, 2.0),
    PowerLaw(10, 1.0 + 1e-9),
    SphereExact(10, 1),
    SphereExact(10, 2),
    SphereExact(10, 9),
    SphereExact(7, 9),
    SphereExact(10, 10**4),
    SphereErf(10, 9),
    SphereLimit(10, 1),
    SphereLimit(10, 100),
]


@pytest.mark.parametrize("law", CONTRACT_LAWS, ids=repr)
def test_cdf_contract_monotone_and_pointwise(law):
    grid = np.linspace(1.0, float(law.base), 20_001)
    cdf = law.cdf(grid)
    assert (np.diff(cdf) >= -1e-12).all()
    # A point's value does not depend on the other points of the call.
    pick = np.random.default_rng(0).permutation(grid.size)[:700]
    assert np.array_equal(law.cdf(grid[pick]), cdf[pick])
    assert np.array_equal(law.cdf(grid[::-7]), cdf[::-7])
    assert [law.cdf(float(grid[i])) for i in pick[:25]] == cdf[pick[:25]].tolist()


def test_windowed_power_cdf_is_window_independent():
    # geometric sums cancel analytically; the computed partial-sum ratio
    # must agree across windows to floating-point accuracy
    for k in (0.5, 1.0, 2.0, 3.7):
        vals = [windowed_power_cdf(10, k, m, 2.5) for m in range(1, 9)]
        assert max(vals) - min(vals) < 1e-13
        assert vals[0] == pytest.approx(PowerLaw(10, k).cdf(2.5), abs=1e-13)


def test_windowed_power_cdf_k2_reference():
    assert windowed_power_cdf(10, 2.0, 6, 2.0) == pytest.approx(5.0 / 9.0, abs=1e-5)


def test_windowed_power_cdf_k1_is_log():
    for m in (1, 4):
        assert windowed_power_cdf(10, 1.0, m, 3.0) == pytest.approx(
            math.log10(3.0), abs=1e-14
        )


def test_windowed_power_cdf_validation():
    with pytest.raises(DomainError):
        windowed_power_cdf(10, 2.0, 0, 2.0)
    with pytest.raises(DomainError):
        windowed_power_cdf(10, -1.0, 3, 2.0)
    with pytest.raises(DomainError):
        windowed_power_cdf(10, 2.0, 3, 0.5)
    with pytest.raises(DomainError):
        windowed_power_cdf(1, 2.0, 3, 1.5)
    for nan in (float("nan"), np.array([2.0, float("nan")])):
        with pytest.raises(DomainError):
            windowed_power_cdf(10, 2.0, 3, nan)


@pytest.mark.parametrize("m", [616, 10**6], ids=["past-B^m(1-k)-max", "r^m-overflows"])
def test_windowed_power_cdf_refuses_a_window_mass_past_the_double_range(m):
    # For k < 1 the window's mass grows as B^(m(1-k)): at m = 10^6, r^m
    # raised OverflowError; at m = 616 it is finite, the mass is not, and
    # the CDF read nan at s = 10 and 0.0 at s = 2. m = 615 still works.
    with pytest.raises(DomainError, match=f"m={m}, k=0.5, base 10"):
        windowed_power_cdf(10, 0.5, m, 2.0)
    assert windowed_power_cdf(10, 0.5, 615, 2.0) == pytest.approx(PowerLaw(10, 0.5).cdf(2.0))


def test_windowed_power_cdf_vectorized():
    s = np.array([1.0, 2.0, 10.0])
    out = windowed_power_cdf(10, 2.0, 3, s)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    assert out[2] == pytest.approx(1.0, abs=1e-14)
