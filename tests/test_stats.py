"""Tests for the goodness-of-fit statistics.

Reference tail probabilities are frozen from high-precision evaluations of
the exact Kolmogorov series and the regularized incomplete gamma function;
the module's cheap approximations must sit within their documented error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haar_digits.errors import DomainError
from haar_digits.laws import Benford, DigitLaw, FlatWindowSignificand, PowerLaw, UniformSignificand
from haar_digits.rng import TILE, RngStream
from haar_digits.samplers import sample_log_uniform, sample_sphere_coords
from haar_digits.significand import significand_values
from haar_digits.sphere import SphereErf, SphereExact, SphereLimit
from haar_digits.stats import (
    EmpiricalDigitDistribution,
    GOFReport,
    _chi_square_p,
    build_empirical,
    chi_square_first_digit,
    chi_square_independence,
    digit_contingency,
    digit_tv,
    ks_p_approx,
    ks_statistic,
    ks_test,
    tv_distance,
)

# Exact Kolmogorov tail Q(lambda) = 2 sum (-1)^(k-1) exp(-2 k^2 lambda^2),
# summed to convergence at 30 significant digits.
KOLMOGOROV_REFERENCE = {
    1.0: 0.26999967167735452,
    1.358: 0.050026797334447014,
    2.0: 0.00067092525577969535,
}

# Exact chi-square upper tails, regularized Gamma(dof/2, stat/2, inf).
CHI2_SF_REFERENCE = {
    (26.12, 8): 0.0010017693618094564,
    (83.7, 64): 0.049811476052235492,
    (15.507, 8): 0.050005219283280794,
    (3.0, 8): 0.93435754562154991,
    (30.0, 16): 0.018002193147830759,
}

# Total variation between the base-10 logarithmic and flat digit masses.
TV_LOG_VS_FLAT = 0.26872665799462906


# --- empirical reduction --------------------------------------------------------


def test_build_empirical_counts_and_rejections():
    emp = build_empirical([1.0, 0.0, math.nan, math.inf, -2.5, 250.0])
    assert emp.n == 3
    assert emp.n_rejected == 3
    assert np.array_equal(emp.values, np.array([1.0, 2.5, 2.5]))
    assert emp.digit_counts.tolist() == [1, 2, 0, 0, 0, 0, 0, 0, 0]
    assert emp.digit_freqs().sum() == pytest.approx(1.0)


def test_build_empirical_sorts_only_when_values_are_read():
    x = RngStream(5).normal(1000)
    sig = significand_values(x, 10)
    assert not np.all(np.diff(sig) >= 0)
    emp = build_empirical(x)
    assert emp.n == 1000 and emp.digit_counts.sum() == 1000
    assert emp.digit_freqs().sum() == pytest.approx(1.0)
    assert "values" not in vars(emp)
    assert np.array_equal(emp.significands, sig)  # still in sample order
    assert np.array_equal(emp.values, np.sort(sig))
    assert emp.values is emp.values


def test_build_empirical_sorting_and_sign_blindness():
    emp = build_empirical([-9.5, 120.0, 0.0013])
    # 0.0013 is not exactly representable, so compare within an ulp.
    assert np.allclose(emp.values, np.array([1.2, 1.3, 9.5]), rtol=1e-15, atol=0.0)
    assert emp.digit_counts.tolist() == [2, 0, 0, 0, 0, 0, 0, 0, 1]


def test_build_empirical_validation():
    with pytest.raises(DomainError):
        build_empirical([])
    with pytest.raises(DomainError):
        build_empirical([0.0, math.nan])
    with pytest.raises(DomainError):
        build_empirical([1.0], base=1)


def test_build_empirical_tiles_match_one_pass():
    # Rejections on both sides of tile edges and one tile with no usable
    # value: the same significands, counts and rejections as one reduction
    # of the filtered sample.
    x = RngStream(9).normal(3 * TILE + 11)
    x[[0, TILE - 1, TILE, 2 * TILE + 5]] = [0.0, math.nan, -math.inf, 0.0]
    x[TILE + 7 : 2 * TILE + 3] = 0.0  # tile 1 from its 7th value on, and into tile 2
    x[TILE : TILE + 7] = math.nan
    keep = np.isfinite(x) & (x != 0.0)
    sig = significand_values(x[keep], 10)
    emp = build_empirical(x, 10)
    assert emp.n_rejected == x.size - keep.sum()
    assert emp.significands.tobytes() == sig.tobytes()
    digits = np.clip(np.floor(sig).astype(np.int64), 1, 9)
    assert emp.digit_counts.tolist() == np.bincount(digits - 1, minlength=9).tolist()


def test_build_empirical_footprint(traced_peak):
    # The significands and one tile's temporaries: the sample is reduced a
    # tile at a time, and the caller's array is left as it was.
    xs = 10.0 ** np.random.default_rng(0).uniform(-5, 5, 1_000_000)
    before = xs.copy()
    emp, peak = traced_peak(lambda: build_empirical(xs, 10))
    assert emp.n == xs.size and emp.n_rejected == 0
    assert peak <= 1.5 * xs.nbytes
    assert np.array_equal(xs, before)


# --- Kolmogorov-Smirnov -----------------------------------------------------------


def test_ks_statistic_hand_example():
    # Significands 1.5, 2.5, 4, 8 against the logarithmic CDF: the largest
    # gap is at the first point, cdf(1.5) - 0/4 = log10(1.5).
    emp = build_empirical([1.5, 2.5, 4.0, 8.0])
    d = ks_statistic(emp, Benford(10))
    assert d == pytest.approx(math.log10(1.5), abs=1e-15)
    # Scale/sign-shifted inputs give the same significands, hence same D.
    emp2 = build_empirical([-1.5, 2.5e3, 4.0e-2, 8.0])
    assert ks_statistic(emp2, Benford(10)) == pytest.approx(d, abs=1e-15)


def test_ks_statistic_base_mismatch():
    emp = build_empirical([1.5, 2.5], base=10)
    with pytest.raises(DomainError):
        ks_statistic(emp, Benford(2))


def _ks_full(emp, law):
    """Reference KS statistic: the law evaluated at every sample point."""
    n = emp.n
    cdf = np.asarray(law.cdf(emp.values), dtype=float)
    steps = np.arange(n + 1, dtype=float)
    steps /= n
    return float(max((cdf - steps[:-1]).max(), (steps[1:] - cdf).max()))


class _CountingLaw(DigitLaw):
    """Passes cdf through to a law and counts the points asked for."""

    def __init__(self, law):
        self.law = law
        self.base = law.base
        self.points = 0

    def cdf(self, s):
        self.points += np.size(s)
        return self.law.cdf(s)


KS_LAWS = [
    Benford(10),
    PowerLaw(10, 0.5),
    PowerLaw(10, 2.0),
    PowerLaw(10, 1.0 + 1e-9),
    UniformSignificand(10),
    FlatWindowSignificand(10, 0.3),
    SphereExact(10, 1),
    SphereExact(10, 2),
    SphereExact(10, 9),
    SphereExact(10, 10**4),
    SphereErf(10, 9),
    SphereLimit(10, 100),
]


def _sorted_significands(kind, size, seed, ties, ends):
    """A sorted sample on [1, 10] from one of five laws, optionally rounded
    to 0.05 (ties), with its lowest and highest `ends` points set to 1 and 10."""
    u = np.random.default_rng(seed).random(size)
    if kind == "log":
        x = 10.0**u
    elif kind == "flat":
        x = 1.0 + 9.0 * u
    elif kind == "steep":  # piled up near 1: far from every law here
        x = 10.0 ** (u**4)
    elif kind == "atom":  # all at 1: ties throughout
        x = np.ones(size)
    else:
        x = significand_values(sample_sphere_coords(9, 1, RngStream(seed), size)[:, 0], 10)
    if ties:
        x = np.round(x * 20.0) / 20.0
    x.sort()
    if ends:
        x[:ends] = 1.0
        x[-ends:] = 10.0
    return x


@settings(max_examples=150)
@given(
    law=st.sampled_from(KS_LAWS),
    kind=st.sampled_from(("log", "flat", "steep", "atom", "sphere")),
    size=st.integers(1, 5000),
    ties=st.booleans(),
    ends=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(law=SphereExact(10, 9), kind="sphere", size=5000, ties=False, ends=0, seed=7)
@example(law=Benford(10), kind="log", size=257, ties=True, ends=30, seed=1)
@example(law=SphereExact(10, 10**4), kind="steep", size=4999, ties=False, ends=1, seed=3)
# The supremum at n - 2, inside the last, shorter gap (anchors 298 and 300).
@example(law=Benford(10), kind="atom", size=301, ties=False, ends=1, seed=0)
# Missed by a gap bound b/n - F(x_a) taken one step too tight.
@example(law=Benford(10), kind="steep", size=656, ties=False, ends=196, seed=998034089)
def test_ks_sweep_equals_full_evaluation(law, kind, size, ties, ends, seed):
    x = _sorted_significands(kind, size, seed, ties, ends)
    emp = EmpiricalDigitDistribution(10, x, np.zeros(9, dtype=np.int64), 0)
    assert ks_statistic(emp, law) == _ks_full(emp, law)


def test_ks_sweep_evaluates_few_points():
    # The sample `sample --group sphere --n 9 --N 2e5 --seed 7` tests. The
    # sweep evaluates the law at 5 % of it; evaluating all points reads 100 %.
    emp = build_empirical(sample_sphere_coords(9, 1, RngStream(7).substream(0), 200_000)[:, 0])
    law = _CountingLaw(SphereExact(10, 9))
    d = ks_statistic(emp, law)
    assert law.points <= 0.15 * emp.n
    assert d == _ks_full(emp, law.law)


def _d_for_lambda(lam, n):
    sqrt_n = math.sqrt(n)
    return lam / (sqrt_n + 0.12 + 0.11 / sqrt_n)


def test_ks_p_approx_matches_exact_series():
    n = 10_000
    # Two-term truncation error is 2 exp(-18 lambda^2): ~3e-8 at lambda=1,
    # negligible beyond.
    assert ks_p_approx(_d_for_lambda(1.0, n), n) == pytest.approx(
        KOLMOGOROV_REFERENCE[1.0], abs=1e-6
    )
    assert ks_p_approx(_d_for_lambda(1.358, n), n) == pytest.approx(
        KOLMOGOROV_REFERENCE[1.358], abs=1e-9
    )
    assert ks_p_approx(_d_for_lambda(2.0, n), n) == pytest.approx(
        KOLMOGOROV_REFERENCE[2.0], abs=1e-12
    )


def test_ks_p_approx_shape():
    assert ks_p_approx(0.0, 100) == 1.0
    assert ks_p_approx(-0.1, 100) == 1.0
    assert ks_p_approx(0.9, 100) < 1e-10  # huge distance -> tiny tail
    # Monotone nonincreasing in d, including through the small-lambda
    # clamp: a nearly perfect fit must never look like a rejection.
    ps = [ks_p_approx(d, 1000) for d in (1e-6, 0.01, 0.02, 0.04, 0.08)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    assert ps[0] > 0.9
    assert all(a > b for a, b in zip(ps[2:], ps[3:]))  # strict in the tail
    assert all(0.0 <= p <= 1.0 for p in ps)
    with pytest.raises(DomainError):
        ks_p_approx(0.1, 0)


def test_ks_p_approx_refuses_nan():
    with pytest.raises(DomainError, match="^d must be a finite real, got nan$"):
        ks_p_approx(math.nan, 5)


@pytest.mark.parametrize("alpha", [math.nan, 2.0, 0.0, 1.0, -0.1])
@pytest.mark.parametrize("test", ["ks", "chi2", "independence"])
def test_gof_tests_refuse_alpha_outside_the_unit_interval(test, alpha):
    # A NaN or out-of-range level gave a report whose `passed` was False.
    x = sample_log_uniform(10, 3, RngStream(523), count=2000)
    run = {
        "ks": lambda: ks_test(x, Benford(10), alpha=alpha),
        "chi2": lambda: chi_square_first_digit(x, Benford(10), alpha=alpha),
        "independence": lambda: chi_square_independence(np.full((3, 3), 10.0), alpha=alpha),
    }[test]
    with pytest.raises(DomainError, match=r"^alpha must be a finite real in \(0, 1\)"):
        run()


def test_ks_test_report():
    x = sample_log_uniform(10, 3, RngStream(521), count=20000)
    report = ks_test(x, Benford(10))
    assert isinstance(report, GOFReport)
    assert report.test == "ks"
    assert report.dof is None
    assert report.n == 20000
    assert report.alpha == 0.001
    assert report.passed
    # The same sample against the wrong law is rejected decisively.
    bad = ks_test(x, UniformSignificand(10))
    assert not bad.passed
    assert bad.statistic > 0.2


def test_gof_report_threshold_and_dict():
    report = GOFReport(test="ks", statistic=0.1, dof=None, p_approx=0.001, alpha=0.001, n=50)
    assert report.passed  # p == alpha counts as a pass
    d = report.to_dict()
    assert d == {
        "test": "ks",
        "statistic": 0.1,
        "dof": None,
        "p_approx": 0.001,
        "alpha": 0.001,
        "n": 50,
        "pass": True,
    }


# --- chi-square -------------------------------------------------------------------


def test_chi_square_p_matches_exact_tails():
    # Wilson-Hilferty is good to a few 1e-4 in the far tail and a few 1e-3
    # in the body; the frozen values are exact.
    assert _chi_square_p(26.12, 8) == pytest.approx(CHI2_SF_REFERENCE[(26.12, 8)], abs=2e-4)
    assert _chi_square_p(83.7, 64) == pytest.approx(CHI2_SF_REFERENCE[(83.7, 64)], abs=2e-4)
    assert _chi_square_p(15.507, 8) == pytest.approx(CHI2_SF_REFERENCE[(15.507, 8)], abs=2e-3)
    assert _chi_square_p(3.0, 8) == pytest.approx(CHI2_SF_REFERENCE[(3.0, 8)], abs=5e-3)
    assert _chi_square_p(30.0, 16) == pytest.approx(CHI2_SF_REFERENCE[(30.0, 16)], abs=1e-3)


def test_chi_square_p_shape():
    assert _chi_square_p(0.0, 5) == 1.0
    assert _chi_square_p(-1.0, 5) == 1.0
    ps = [_chi_square_p(s, 8) for s in (2.0, 8.0, 20.0, 40.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    with pytest.raises(DomainError):
        _chi_square_p(1.0, 0)


def test_chi_square_first_digit_pass_and_fail():
    x = sample_log_uniform(10, 3, RngStream(523), count=20000)
    report = chi_square_first_digit(x, Benford(10))
    assert report.test == "chi2_first_digit"
    assert report.dof == 8
    assert report.passed
    flat = RngStream(541).uniform(1.0, 10.0, 20000)
    bad = chi_square_first_digit(flat, Benford(10))
    assert not bad.passed
    assert bad.statistic > 100.0
    # ...while the same flat sample passes against its own law.
    assert chi_square_first_digit(flat, UniformSignificand(10)).passed


def test_chi_square_first_digit_validation():
    with pytest.raises(DomainError):
        chi_square_first_digit([1.5] * 20, Benford(10))  # expected count < 5
    emp = build_empirical(np.linspace(1.0, 1.999, 2000), base=2)
    with pytest.raises(DomainError):
        chi_square_first_digit(emp, Benford(10))  # base mismatch


# --- independence -----------------------------------------------------------------


def test_digit_contingency_table():
    a = [1.2, 2.3, 9.5, math.nan]
    b = [3.3, 1.1, 2.2, 4.4]
    table = digit_contingency(a, b)
    assert table.shape == (9, 9)
    assert table.sum() == 3  # the nan pair is dropped jointly
    assert table[0, 2] == 1 and table[1, 0] == 1 and table[8, 1] == 1


def test_digit_contingency_validation():
    with pytest.raises(DomainError):
        digit_contingency([1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        digit_contingency([], [])
    with pytest.raises(DomainError):
        digit_contingency([math.nan], [1.0])


def test_chi_square_independence_pass_and_fail():
    # A table that is exactly the product of its margins has statistic 0.
    p = Benford(10).first_digit_probs()
    table = np.outer(p, p) * 40000.0
    report = chi_square_independence(table)
    assert report.test == "chi2_independence"
    assert report.dof == 64
    assert report.statistic == pytest.approx(0.0, abs=1e-18)
    assert report.passed
    # A diagonal-heavy table is strongly dependent.
    dep = np.full((9, 9), 10.0) + 200.0 * np.eye(9)
    bad = chi_square_independence(dep)
    assert not bad.passed
    assert bad.statistic > 500.0


def test_chi_square_independence_on_sampled_pairs():
    rng = RngStream(547)
    a = sample_log_uniform(10, 3, rng, count=30000)
    b = sample_log_uniform(10, 3, rng, count=30000)
    report = chi_square_independence(digit_contingency(a, b))
    assert report.passed
    # Perfectly correlated pairs fail.
    bad = chi_square_independence(digit_contingency(a, a))
    assert not bad.passed


def test_chi_square_independence_validation():
    with pytest.raises(DomainError):
        chi_square_independence(np.ones(9))
    with pytest.raises(DomainError):
        chi_square_independence(np.ones((1, 5)))
    with pytest.raises(DomainError):
        chi_square_independence(-np.ones((3, 3)))
    with pytest.raises(DomainError):
        chi_square_independence(np.zeros((3, 3)))
    zero_row = np.ones((3, 3)) * 100
    zero_row[1] = 0.0
    with pytest.raises(DomainError):
        chi_square_independence(zero_row)
    with pytest.raises(DomainError):
        chi_square_independence(np.ones((9, 9)))  # expected counts below 5


# --- total variation --------------------------------------------------------------


def test_tv_distance_log_vs_flat():
    p = Benford(10).first_digit_probs()
    q = np.full(9, 1.0 / 9.0)
    assert tv_distance(p, q) == pytest.approx(TV_LOG_VS_FLAT, abs=1e-12)
    assert tv_distance(p, p) == 0.0
    assert tv_distance(q, p) == tv_distance(p, q)


def test_tv_distance_validation():
    q = np.full(9, 1.0 / 9.0)
    with pytest.raises(DomainError):
        tv_distance(q, np.full(8, 1.0 / 8.0))
    with pytest.raises(DomainError):
        tv_distance(q, np.full(9, 0.5))  # does not sum to 1
    bad = q.copy()
    bad[0] = -bad[0]
    with pytest.raises(DomainError):
        tv_distance(q, bad)
    nan = q.copy()
    nan[0] = math.nan
    with pytest.raises(DomainError):
        tv_distance(nan, q)


def test_digit_tv_combinations():
    assert digit_tv(Benford(10), UniformSignificand(10)) == pytest.approx(
        TV_LOG_VS_FLAT, abs=1e-12
    )
    x = sample_log_uniform(10, 3, RngStream(557), count=20000)
    emp = build_empirical(x)
    assert digit_tv(emp, Benford(10)) < 0.02
    assert digit_tv(emp, emp) == 0.0
    assert digit_tv(Benford(10), emp) == digit_tv(emp, Benford(10))


def test_digit_tv_validation():
    with pytest.raises(DomainError):
        digit_tv(Benford(10), Benford(2))
    with pytest.raises(DomainError):
        digit_tv(Benford(10), [0.5, 0.5])
    emp2 = build_empirical(np.linspace(1.0, 1.999, 100), base=2)
    with pytest.raises(DomainError):
        digit_tv(emp2, Benford(10))


def test_empirical_digit_distribution_is_reusable():
    emp = build_empirical([1.5, 2.5, 4.0, 8.0])
    assert isinstance(emp, EmpiricalDigitDistribution)
    # Both tests accept the reduced form directly.
    assert ks_test(emp, Benford(10)).n == 4
    assert digit_tv(emp, Benford(10)) >= 0.0
