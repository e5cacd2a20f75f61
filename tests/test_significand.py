"""Significand extraction: decomposition, vectorized paths, edge cases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from haar_digits.errors import DomainError
from haar_digits.significand import (
    check_base,
    first_digits,
    significand,
    significand_parts,
    significand_values,
)


def test_known_decompositions():
    d = significand(0.00123)
    assert d.significand == pytest.approx(1.23, rel=1e-15)
    assert d.exponent == -3
    assert d.sign == 1

    d = significand(-271.8)
    assert d.significand == pytest.approx(2.718, rel=1e-15)
    assert d.exponent == 2
    assert d.sign == -1

    d = significand(1000.0)
    assert d.significand == 1.0
    assert d.exponent == 3


def test_base_two():
    d = significand(12.0, base=2)
    assert d.significand == 1.5
    assert d.exponent == 3


@given(
    st.floats(min_value=-300.0, max_value=300.0),
    st.sampled_from([2, 3, 10, 16]),
)
def test_decomposition_reconstructs_and_is_in_range(log10x, base):
    x = 10.0**log10x
    d = significand(x, base)
    assert 1.0 <= d.significand < base
    rebuilt = d.sign * d.significand * float(base) ** d.exponent
    assert rebuilt == pytest.approx(x, rel=4 * math.ulp(1.0))


@given(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).filter(bool),
    st.integers(min_value=2, max_value=36),
)
@example(5e-324, 10)  # 10^-324 underflows to 0
@example(-5e-324, 36)
@example(1e-310, 3)
@example(1.7976931348623157e308, 2)
@example(1.7976931348623157e308, 36)
def test_decomposition_over_every_finite_double(x, base):
    # Exact rational arithmetic: s * B^e must rebuild |x| to a few ulp,
    # subnormals and the top of the range included.
    d = significand(x, base)
    assert 1.0 <= d.significand < base
    rebuilt = Fraction(d.significand) * Fraction(base) ** d.exponent
    assert abs(rebuilt - Fraction(abs(x))) <= 4 * Fraction(math.ulp(x))


@given(st.floats(min_value=-900.0, max_value=900.0))
def test_multiplying_by_base_shifts_exponent_only(log2x):
    # base 2: scaling by the base is exact in floating point
    x = 2.0**log2x
    a = significand(x, 2)
    b = significand(2.0 * x, 2)
    assert a.significand == b.significand
    assert b.exponent == a.exponent + 1


def test_rejects_zero_and_non_finite():
    for bad in (0.0, -0.0, float("inf"), -float("inf"), float("nan")):
        with pytest.raises(DomainError):
            significand(bad)


def test_check_base():
    assert check_base(2) == 2
    assert check_base(10) == 10
    for bad in (1, 0, -3, 2.5, True):
        with pytest.raises(DomainError):
            check_base(bad)


@given(
    st.lists(st.floats(min_value=-250.0, max_value=250.0), min_size=1, max_size=40),
    st.sampled_from([2, 10]),
)
def test_vectorized_matches_scalar(logs, base):
    xs = np.array([(-1.0) ** i * 10.0**v for i, v in enumerate(logs)])
    sig, expo, signs = significand_parts(xs, base)
    for k, x in enumerate(xs):
        d = significand(float(x), base)
        assert sig[k] == d.significand
        assert expo[k] == d.exponent
        assert signs[k] == d.sign


def test_vectorized_rejects_bad_values():
    with pytest.raises(DomainError):
        significand_parts([1.0, 0.0], 10)
    with pytest.raises(DomainError):
        significand_parts([np.inf], 10)
    with pytest.raises(DomainError):
        significand_parts([np.nan, 2.0], 10)


def test_significand_values_range_and_sign_blindness():
    xs = np.array([-123.4, 0.05, 7.0, 9.9999e9])
    vals = significand_values(xs, 10)
    assert np.all((vals >= 1.0) & (vals < 10.0))
    assert vals[0] == significand(123.4).significand


def test_first_digits_known():
    xs = np.array([123.4, 0.0099, 5.0, 9.99, 1.0])
    assert first_digits(xs, 10).tolist() == [1, 9, 5, 9, 1]
    assert first_digits(np.array([12.0]), 2).tolist() == [1]


def test_first_digits_in_range_bulk():
    rng = np.random.default_rng(0)  # independent generator, range check only
    xs = 10.0 ** rng.uniform(-20, 20, size=2000)
    for base in (2, 10, 16):
        d = first_digits(xs, base)
        assert d.min() >= 1 and d.max() <= base - 1
