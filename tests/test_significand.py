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


@pytest.mark.parametrize("x, exponent", [(1e-5, -5), (1e-17, -17), (1e106, 106)])
def test_exact_decimal_powers_have_significand_one(x, exponent):
    # The double nearest 10^k is what B^k rounds to once; np.power(10.0, k)
    # misses it by an ulp for these k, which read as 1.0000000000000002.
    d = significand(x)
    assert d.significand == 1.0 and d.exponent == exponent


@pytest.mark.parametrize("base", [2, 3, 7, 10, 36])
def test_the_double_nearest_each_power_of_the_base(base):
    # At or above B^k it has significand exactly 1 and exponent k. Below,
    # either that or exponent k - 1 and a significand just under B.
    ks = range(math.floor(math.log(np.finfo(float).tiny) / math.log(base)) + 1,
               math.floor(math.log(np.finfo(float).max) / math.log(base)))
    xs = [float(Fraction(base) ** k) for k in ks]
    s, e, _ = significand_parts(np.array(xs), base)
    above = np.array([Fraction(x) >= Fraction(base) ** k for x, k in zip(xs, ks)])
    assert np.all(s[above] == 1.0) and np.array_equal(e[above], np.array(ks)[above])
    one = (s == 1.0) & (e == np.array(ks))
    under = (e == np.array(ks) - 1) & (s < base) & (s > base * (1 - 1e-15))
    assert np.all(one | under)


# --- the power-table route against a per-lane reference ---------------------------


def _rounded_power(base, k):
    try:
        return float(Fraction(base) ** k)
    except OverflowError:
        return math.inf


def _per_lane_parts(values, base):
    """Reference decomposition: every lane divides by its own B^e, in two
    steps, B^(e - e_hi) and then B^e_hi with e_hi = max(e, e_min), so no
    power is subnormal; each decade fix-up redoes every lane."""
    x = np.asarray(values, dtype=float)
    ax = np.abs(x)
    e = np.floor(np.log(ax) / math.log(base))
    e_min = math.ceil(math.log(np.finfo(float).tiny) / math.log(base))

    def power(k):
        # B^k rounded once, per distinct exponent; inf past the double range.
        ks, where = np.unique(k, return_inverse=True)
        return np.array([_rounded_power(base, int(j)) for j in ks])[where].reshape(k.shape)

    def divide(e):
        e_hi = np.maximum(e, e_min)
        return ax / power(e - e_hi) / power(e_hi)

    s = divide(e)
    for _ in range(2):
        high = s >= base
        low = s < 1.0
        if not (high.any() or low.any()):
            break
        e = e + high - low
        s = divide(e)
    return s, e.astype(np.int64), np.where(x > 0, 1, -1).astype(np.int64)


def _assert_parts_identical(values, base):
    got = significand_parts(values, base)
    want = _per_lane_parts(values, base)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).filter(bool),
        min_size=1,
        max_size=40,
    ),
    st.integers(min_value=2, max_value=36),
)
@example([5e-324, 1.0, 1.7976931348623157e308], 10)
@example([-5e-324, 1e-310, 2.2250738585072014e-308], 36)
def test_parts_match_per_lane_reference_on_every_finite_double(xs, base):
    _assert_parts_identical(np.array(xs), base)


def test_parts_match_per_lane_reference_on_mixed_subnormal_array():
    # Subnormal lanes take the two-step divide, the others the power table.
    tiny = np.finfo(float).tiny
    xs = np.array([5e-324, -1e-320, 3e-310, tiny, -tiny * 7, 1e-300, 0.5, 99.0, -1e300])
    for base in (2, 3, 7, 10, 36):
        _assert_parts_identical(xs, base)
        _assert_parts_identical(xs[:8].reshape(2, 4), base)


@pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 36])
def test_parts_match_per_lane_reference_on_a_million_draws(base):
    rng = np.random.default_rng(base)  # independent generator, inputs only
    logs = rng.uniform(math.log(5e-324), math.log(np.finfo(float).max), 1_000_000)
    xs = np.exp(logs) * np.where(rng.random(logs.size) < 0.5, -1.0, 1.0)
    _assert_parts_identical(xs[xs != 0.0], base)


def test_significand_values_footprint(traced_peak):
    # Reduction keeps three input-sized arrays alive at once (|x|, the
    # exponent index, the result), not one per arithmetic step, and builds
    # no sign array for a caller that drops it.
    xs = 10.0 ** np.random.default_rng(0).uniform(-5, 5, 1_000_000)
    _, peak = traced_peak(lambda: significand_values(xs, 10))
    assert peak <= 4.0 * xs.nbytes
