"""Goodness-of-fit statistics for empirical significand samples.

The verification loop is: sample a component, reduce to significands,
then compare against the predicted analytic law with
Kolmogorov-Smirnov (full CDF), Pearson chi-square (first-digit masses),
and total-variation summaries. Decisions use a conservative default
alpha = 0.001: with many criteria checked per run, a loose alpha would
produce false alarms on healthy samplers.

p-value approximations are classical closed forms (two-term Kolmogorov
series with the Stephens small-sample correction; Wilson-Hilferty cube
root for chi-square), adequate for the sample sizes used here (10^4 to
10^7); pass/fail is decided on the p-approximation, never by comparing
raw statistics to hard-coded quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .laws import DigitLaw
from .significand import check_base, first_digits, significand_values
from .specfun import normal_cdf

__all__ = [
    "EmpiricalDigitDistribution",
    "GOFReport",
    "build_empirical",
    "ks_statistic",
    "ks_p_approx",
    "ks_test",
    "chi_square_first_digit",
    "chi_square_independence",
    "digit_contingency",
    "tv_distance",
    "digit_tv",
]


@dataclass(frozen=True)
class EmpiricalDigitDistribution:
    """Sorted significands of a sample plus its first-digit histogram.

    n_rejected counts input values dropped for being zero or non-finite
    (they carry no significand); digit_counts[k] is the number of
    significands with first digit k+1.
    """

    base: int
    values: np.ndarray
    digit_counts: np.ndarray
    n_rejected: int

    @property
    def n(self) -> int:
        return int(self.values.size)

    def digit_freqs(self) -> np.ndarray:
        return self.digit_counts / self.values.size


@dataclass(frozen=True)
class GOFReport:
    """Outcome of one goodness-of-fit test."""

    test: str
    statistic: float
    dof: Optional[int]
    p_approx: float
    alpha: float
    n: int

    @property
    def passed(self) -> bool:
        return self.p_approx >= self.alpha

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "statistic": self.statistic,
            "dof": self.dof,
            "p_approx": self.p_approx,
            "alpha": self.alpha,
            "n": self.n,
            "pass": self.passed,
        }


def build_empirical(values, base: int = 10) -> EmpiricalDigitDistribution:
    """Reduce raw sample values to an EmpiricalDigitDistribution.

    Zero and non-finite inputs are filtered out and counted rather than
    raising: samplers of continuous laws produce them with probability
    zero, so a nonzero rejection count is itself diagnostic."""
    base = check_base(base)
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("empty sample")
    keep = np.isfinite(arr) & (arr != 0.0)
    n_rejected = int(arr.size - np.count_nonzero(keep))
    if n_rejected == arr.size:
        raise DomainError("no usable values in sample (all zero or non-finite)")
    sig = significand_values(arr[keep] if n_rejected else arr, base)
    sig.sort()
    digits = np.floor(sig).astype(np.int64)
    np.clip(digits, 1, base - 1, out=digits)
    counts = np.bincount(digits - 1, minlength=base - 1).astype(np.int64)
    return EmpiricalDigitDistribution(base, sig, counts, n_rejected)


def _as_empirical(sample, base: int) -> EmpiricalDigitDistribution:
    if isinstance(sample, EmpiricalDigitDistribution):
        return sample
    return build_empirical(sample, base)


def ks_statistic(sample, law: DigitLaw) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the sample CDF of the
    significands and the law's CDF."""
    emp = _as_empirical(sample, law.base)
    if emp.base != law.base:
        raise DomainError(f"sample base {emp.base} != law base {law.base}")
    n = emp.n
    cdf = np.asarray(law.cdf(emp.values), dtype=float)
    steps = np.arange(n + 1, dtype=float)
    steps /= n  # the sample CDF just below (steps[:-1]) and at (steps[1:]) each value
    diff = np.empty(n)
    above = np.subtract(cdf, steps[:-1], out=diff).max()
    below = np.subtract(steps[1:], cdf, out=diff).max()
    return float(max(above, below))


def ks_p_approx(d: float, n: int) -> float:
    """Two-term Kolmogorov tail probability with the Stephens finite-sample
    correction lambda = d (sqrt(n) + 0.12 + 0.11/sqrt(n)).

    The expansion 2(exp(-2 lam^2) - exp(-8 lam^2)) is only valid in the
    tail; below its stationary point lam* = sqrt(ln(4)/6) it turns around
    and heads to 0, which would reject samples for fitting too well.
    Clamping lambda at lam* keeps the result monotone nonincreasing in d
    and conservative (never below the true tail) for small distances.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if d <= 0.0:
        return 1.0
    sqrt_n = math.sqrt(n)
    lam = d * (sqrt_n + 0.12 + 0.11 / sqrt_n)
    lam = max(lam, math.sqrt(math.log(4.0) / 6.0))
    p = 2.0 * (math.exp(-2.0 * lam * lam) - math.exp(-8.0 * lam * lam))
    return min(max(p, 0.0), 1.0)


def ks_test(sample, law: DigitLaw, alpha: float = 0.001) -> GOFReport:
    """Kolmogorov-Smirnov goodness-of-fit report against a significand law."""
    emp = _as_empirical(sample, law.base)
    d = ks_statistic(emp, law)
    return GOFReport(
        test="ks",
        statistic=d,
        dof=None,
        p_approx=ks_p_approx(d, emp.n),
        alpha=alpha,
        n=emp.n,
    )


def _chi_square_p(stat: float, dof: int) -> float:
    """Wilson-Hilferty upper-tail approximation for the chi-square law."""
    if dof < 1:
        raise DomainError(f"dof must be >= 1, got {dof}")
    if stat <= 0.0:
        return 1.0
    scale = 2.0 / (9.0 * dof)
    z = ((stat / dof) ** (1.0 / 3.0) - (1.0 - scale)) / math.sqrt(scale)
    return min(max(1.0 - normal_cdf(z), 0.0), 1.0)


def chi_square_first_digit(sample, law: DigitLaw, alpha: float = 0.001) -> GOFReport:
    """Pearson chi-square of the first-digit histogram against the law.

    B-1 cells with fully specified probabilities give B-2 degrees of
    freedom. Requires enough samples for every expected count to clear
    the usual >= 5 rule."""
    emp = _as_empirical(sample, law.base)
    if emp.base != law.base:
        raise DomainError(f"sample base {emp.base} != law base {law.base}")
    probs = np.asarray(law.first_digit_probs(), dtype=float)
    expected = emp.n * probs
    if np.any(expected < 5.0):
        raise DomainError(
            f"sample too small for the digit chi-square: min expected count "
            f"{expected.min():.3g} < 5 (n={emp.n})"
        )
    stat = float(np.sum((emp.digit_counts - expected) ** 2 / expected))
    dof = emp.base - 2
    return GOFReport(
        test="chi2_first_digit",
        statistic=stat,
        dof=dof,
        p_approx=_chi_square_p(stat, dof),
        alpha=alpha,
        n=emp.n,
    )


def digit_contingency(values_a, values_b, base: int = 10) -> np.ndarray:
    """(B-1) x (B-1) table counting joint first digits of two components.

    The inputs must be paired samples of equal length; zero/non-finite
    pairs are dropped jointly."""
    base = check_base(base)
    a = np.asarray(values_a, dtype=float).ravel()
    b = np.asarray(values_b, dtype=float).ravel()
    if a.size != b.size:
        raise DomainError(f"paired samples must have equal length ({a.size} vs {b.size})")
    if a.size == 0:
        raise DomainError("empty sample")
    keep = np.isfinite(a) & np.isfinite(b) & (a != 0.0) & (b != 0.0)
    if not keep.any():
        raise DomainError("no usable pairs in sample")
    da = first_digits(np.abs(a[keep]), base) - 1
    db = first_digits(np.abs(b[keep]), base) - 1
    table = np.zeros((base - 1, base - 1), dtype=np.int64)
    np.add.at(table, (da, db), 1)
    return table


def chi_square_independence(table, alpha: float = 0.001) -> GOFReport:
    """Pearson chi-square test of independence on a contingency table.

    Expected counts come from the product of the margins; degrees of
    freedom are (rows - 1)(cols - 1)."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
        raise DomainError(f"need a table with >= 2 rows and columns, got shape {t.shape}")
    if np.any(t < 0) or not np.all(np.isfinite(t)):
        raise DomainError("table entries must be finite and nonnegative")
    total = t.sum()
    if total <= 0:
        raise DomainError("table has no counts")
    row = t.sum(axis=1)
    col = t.sum(axis=0)
    if np.any(row == 0) or np.any(col == 0):
        raise DomainError("every row and column must have at least one count")
    expected = np.outer(row, col) / total
    if np.any(expected < 5.0):
        raise DomainError(
            f"table too sparse for the chi-square approximation: min expected "
            f"count {expected.min():.3g} < 5"
        )
    stat = float(np.sum((t - expected) ** 2 / expected))
    dof = (t.shape[0] - 1) * (t.shape[1] - 1)
    return GOFReport(
        test="chi2_independence",
        statistic=stat,
        dof=dof,
        p_approx=_chi_square_p(stat, dof),
        alpha=alpha,
        n=int(round(total)),
    )


def tv_distance(p, q) -> float:
    """Total-variation distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise DomainError(f"need equal-length vectors, got {p.shape} and {q.shape}")
    for name, v in (("first", p), ("second", q)):
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise DomainError(f"{name} vector has negative or non-finite entries")
        if abs(float(v.sum()) - 1.0) > 1e-8:
            raise DomainError(f"{name} vector sums to {v.sum()!r}, not 1")
    return 0.5 * float(np.abs(p - q).sum())


def _digit_profile(x):
    if isinstance(x, EmpiricalDigitDistribution):
        return x.base, x.digit_freqs()
    if isinstance(x, DigitLaw):
        return x.base, np.asarray(x.first_digit_probs(), dtype=float)
    raise DomainError(
        "digit_tv expects EmpiricalDigitDistribution or DigitLaw operands"
    )


def digit_tv(a, b) -> float:
    """Total-variation distance between first-digit mass functions of two
    empirical distributions and/or laws (bases must match)."""
    base_a, pa = _digit_profile(a)
    base_b, pb = _digit_profile(b)
    if base_a != base_b:
        raise DomainError(f"base mismatch: {base_a} vs {base_b}")
    return tv_distance(pa, pb)
